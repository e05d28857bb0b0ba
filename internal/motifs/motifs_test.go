package motifs

import (
	"testing"

	"polarstar/internal/flowsim"
	"polarstar/internal/sim"
)

func network(specName string, adaptive bool, seed int64) *flowsim.Network {
	spec := must(sim.NewSpec(specName))
	p := flowsim.DefaultParams(seed)
	p.Adaptive = adaptive
	return flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids, p)
}

func TestAllreduceCompletes(t *testing.T) {
	n := network("ps-iq-small", false, 1)
	tm := Allreduce(n, 64, 64*1024, 1)
	if tm <= 0 {
		t.Fatal("non-positive completion time")
	}
	// Lower bound: log2(64) = 6 rounds, each at least one 64KB transfer
	// (16384 ns at 4 B/ns) plus latencies.
	if tm < 6*16384 {
		t.Errorf("allreduce %f ns is faster than the serialization bound", tm)
	}
}

func TestAllreduceScalesWithIterations(t *testing.T) {
	a := Allreduce(network("ps-iq-small", false, 2), 32, 4096, 1)
	b := Allreduce(network("ps-iq-small", false, 2), 32, 4096, 5)
	if b < 4*a {
		t.Errorf("5 iterations (%f) should cost ~5x one iteration (%f)", b, a)
	}
}

func TestAllreduceMoreRanksSlower(t *testing.T) {
	small := Allreduce(network("ps-iq-small", false, 3), 16, 64*1024, 1)
	large := Allreduce(network("ps-iq-small", false, 3), 128, 64*1024, 1)
	if large <= small {
		t.Errorf("128-rank allreduce (%f) not slower than 16-rank (%f)", large, small)
	}
}

func TestSweep3DCompletes(t *testing.T) {
	n := network("ps-iq-small", false, 4)
	tm := Sweep3D(n, 8, 8, 4096, 50, 1)
	if tm <= 0 {
		t.Fatal("non-positive completion time")
	}
	// The wavefront has 15 diagonals; each costs at least the compute.
	if tm < 15*50 {
		t.Errorf("sweep %f ns beats the critical-path bound", tm)
	}
}

func TestSweep3DIterationsAccumulate(t *testing.T) {
	// Successive sweeps pipeline (a rank starts the next sweep after its
	// own cell), so 10 iterations cost more than one sweep but less than
	// 10 sequential ones.
	one := Sweep3D(network("ps-iq-small", false, 5), 6, 6, 2048, 50, 1)
	ten := Sweep3D(network("ps-iq-small", false, 5), 6, 6, 2048, 50, 10)
	if ten < 2*one {
		t.Errorf("10 sweeps (%f) too close to one sweep (%f)", ten, one)
	}
	if ten > 10*one {
		t.Errorf("10 sweeps (%f) exceed 10 sequential sweeps (%f)", ten, 10*one)
	}
}

func TestUGALHelpsAllreduceOnDragonfly(t *testing.T) {
	// §10.2: UGAL performs significantly better than MIN on Dragonfly
	// for Allreduce.
	min := Allreduce(network("df-small", false, 6), 128, 64*1024, 3)
	ugal := Allreduce(network("df-small", true, 6), 128, 64*1024, 3)
	if ugal >= min {
		t.Errorf("UGAL allreduce (%f) not faster than MIN (%f) on dragonfly", ugal, min)
	}
}

func TestMotifsDeterministic(t *testing.T) {
	a := Allreduce(network("bf-small", true, 7), 64, 8192, 2)
	b := Allreduce(network("bf-small", true, 7), 64, 8192, 2)
	if a != b {
		t.Errorf("allreduce not deterministic: %f vs %f", a, b)
	}
}

func TestFlowsimLatencyBandwidthModel(t *testing.T) {
	// A single message between adjacent endpoints: injection +
	// (hops × hop latency) + per-link serialization pipeline.
	n := network("ps-iq-small", false, 8)
	tm := n.Send(0, 1, 4096, 0) // same router (endpoints 0,1 on router 0)
	// Pipelined (cut-through) transfer: the ejection link streams as the
	// head arrives, so the 4096-byte serialization (1024 ns at 4 B/ns)
	// is paid once, plus two 20 ns hops.
	want := 20 + 20 + 1024.0
	if tm != want {
		t.Errorf("same-router message time = %f, want %f", tm, want)
	}
	// A second message on the same links queues behind the first.
	tm2 := n.Send(0, 1, 4096, 0)
	if tm2 <= tm {
		t.Errorf("no queueing: %f then %f", tm, tm2)
	}
}

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
