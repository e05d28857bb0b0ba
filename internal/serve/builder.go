package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"polarstar/internal/sim"
)

// BuiltSpec is a constructed topology ready to serve runs: the sim.Spec
// (graph + endpoint layout + routing engines), the content hash of its
// adjacency, and its resident routing-state footprint. Every field is
// read-only after construction — the engines the Spec hands out are
// either stateless or cloned per run — so one BuiltSpec is shared by
// any number of concurrent evaluations.
type BuiltSpec struct {
	Spec *sim.Spec
	// Hash is the FNV-1a 64 of the canonical adjacency (%016x): the
	// content address of the wiring, recorded in every artifact built
	// from this spec.
	Hash string
	// Bytes is the resident footprint of the routing state plus the
	// adjacency CSR.
	Bytes int64
}

// Builder is the expensive, cacheable half of an evaluation: it maps a
// spec name to a BuiltSpec, constructing each topology exactly once.
// Concurrent requests for the same name share one construction
// (singleflight): the first caller builds, the rest block on its result.
// Failed builds are not cached — a later request retries.
type Builder struct {
	mu    sync.Mutex
	specs map[string]*buildEntry

	builds     atomic.Int64 // topologies constructed
	hits       atomic.Int64 // requests answered by a resident spec
	shared     atomic.Int64 // requests that waited on a concurrent build
	resident   atomic.Int64 // specs currently resident
	totalBytes atomic.Int64 // resident routing-state bytes
}

type buildEntry struct {
	done chan struct{} // closed when the build finishes
	bs   *BuiltSpec    // set before done closes
	err  error
}

// NewBuilder returns an empty build cache.
func NewBuilder() *Builder {
	return &Builder{specs: map[string]*buildEntry{}}
}

// Get returns the BuiltSpec for name, constructing it on first use.
// Unknown names fail without construction work.
func (b *Builder) Get(name string) (*BuiltSpec, error) {
	if !sim.KnownSpec(name) {
		return nil, fmt.Errorf("serve: unknown spec %q", name)
	}
	b.mu.Lock()
	if e, ok := b.specs[name]; ok {
		b.mu.Unlock()
		select {
		case <-e.done:
			b.hits.Add(1)
		default:
			b.shared.Add(1)
			<-e.done
		}
		return e.bs, e.err
	}
	e := &buildEntry{done: make(chan struct{})}
	b.specs[name] = e
	b.mu.Unlock()

	b.builds.Add(1)
	spec, err := sim.NewSpec(name)
	if err != nil {
		e.err = err
		b.mu.Lock()
		delete(b.specs, name) // do not cache failures
		b.mu.Unlock()
		close(e.done)
		return nil, err
	}
	e.bs = &BuiltSpec{Spec: spec, Hash: graphHash(spec), Bytes: specBytes(spec)}
	b.resident.Add(1)
	b.totalBytes.Add(e.bs.Bytes)
	close(e.done)
	return e.bs, nil
}

// Resident reports the number of built specs held and their total
// routing-state bytes.
func (b *Builder) Resident() (specs, bytes int64) {
	return b.resident.Load(), b.totalBytes.Load()
}

// graphHash content-addresses the constructed wiring: FNV-1a 64 over
// the vertex count followed by every adjacency row in vertex order.
// Two specs with the same hash simulate identically (same graph, and
// the rest of the Spec is a pure function of the construction).
func graphHash(spec *sim.Spec) string {
	h := fnv.New64a()
	var buf [4]byte
	g := spec.Graph
	binary.LittleEndian.PutUint32(buf[:], uint32(g.N()))
	h.Write(buf[:])
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			binary.LittleEndian.PutUint32(buf[:], uint32(w))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// specBytes estimates the resident footprint of a built spec: the
// adjacency CSR plus whatever routing state the MIN engine holds
// (route.Table reports its arrays via MemBytes; the analytic PolarStar
// router holds only factor-graph state and reports nothing here).
// Table-routed specs build their table on first use, and charging one
// builds it: every cached spec is about to run, so the build happens
// here rather than in the first run, and the charge is memory held.
func specBytes(spec *sim.Spec) int64 {
	bytes := 4 * int64(spec.Graph.NumChannels()) // adjacency CSR
	if m, ok := spec.MinEngine.(interface{ MemBytes() int64 }); ok {
		bytes += m.MemBytes()
	}
	return bytes
}
