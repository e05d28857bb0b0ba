package faults

import (
	"testing"

	"polarstar/internal/sim"
)

// The pinned values below were captured from the pre-optimization
// implementation (edge-list shuffle + Builder-round-trip subgraphs). The
// scratch-CSR sweeper must reproduce them bit for bit: the refactor is
// behavior-preserving, down to RNG consumption and float summation order.

func TestGoldenTrialPSIQSmall(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	tr, err := trial(spec.Graph, nil, 7, DefaultFracs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.DisconnectionRatio, 0.47999999999999998; got != want {
		t.Errorf("disconnection ratio = %.17g, want %.17g", got, want)
	}
	wantCurve := []struct {
		diam int32
		avg  float64
		conn bool
	}{
		{3, 2.6728259734836621, true},
		{4, 2.762083724814699, true},
		{5, 2.8550788182482516, true},
		{5, 2.9441486585238543, true},
		{5, 3.0405261509552144, true},
		{5, 3.1336256394195638, true},
		{5, 3.2278525942165155, true},
		{6, 3.3363816682325922, true},
		{6, 3.4738281657793091, true},
		{6, 3.6357031005324147, true},
		{0, 0, false},
		{0, 0, false},
		{0, 0, false},
		{0, 0, false},
	}
	if len(tr.Curve) != len(wantCurve) {
		t.Fatalf("curve has %d points, want %d", len(tr.Curve), len(wantCurve))
	}
	for i, w := range wantCurve {
		p := tr.Curve[i]
		if p.Diameter != w.diam || p.AvgPath != w.avg || p.Connected != w.conn {
			t.Errorf("point %d (f=%.2f): got diam=%d avg=%.17g conn=%v, want diam=%d avg=%.17g conn=%v",
				i, p.FailFrac, p.Diameter, p.AvgPath, p.Connected, w.diam, w.avg, w.conn)
		}
	}
}

func TestGoldenMedianTrial(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	med, err := MedianTrial(spec.Graph, nil, 5, 1, DefaultFracs)
	if err != nil {
		t.Fatal(err)
	}
	if med.Seed != 1 {
		t.Errorf("median seed = %d, want 1", med.Seed)
	}
	if got, want := med.DisconnectionRatio, 0.53419354838709676; got != want {
		t.Errorf("median ratio = %.17g, want %.17g", got, want)
	}
}

// TestGoldenTrialHostsSubset pins the host-restricted protocol (Fat-tree:
// only leaf routers count, §11.2).
func TestGoldenTrialHostsSubset(t *testing.T) {
	ft := must(sim.NewSpec("ft-small"))
	tr, err := trial(ft.Graph, Hosts(ft.Hosts), 3, []float64{0, 0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.DisconnectionRatio, 0.496; got != want {
		t.Errorf("disconnection ratio = %.17g, want %.17g", got, want)
	}
	for i, p := range tr.Curve {
		if p.Diameter != 4 || p.AvgPath != 3.6666666666666665 || !p.Connected {
			t.Errorf("point %d: got diam=%d avg=%.17g conn=%v, want diam=4 avg=3.6666666666666665 conn=true",
				i, p.Diameter, p.AvgPath, p.Connected)
		}
	}
}
