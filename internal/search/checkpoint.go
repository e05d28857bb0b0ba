// Checkpoint/resume: the full engine state — every searcher's graph,
// rng position, costs and counters, plus the global best — serializes
// to indented JSON whose bytes are a pure function of that state.
// Resuming a checkpoint and running to the same Params.Epochs therefore
// re-emits an identical checkpoint (the CI smoke asserts this with cmp),
// and resuming with a higher Epochs continues the run exactly as if it
// had never stopped.
package search

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"

	"polarstar/internal/graph"
)

// CheckpointSchema identifies the checkpoint format.
const CheckpointSchema = "pssearch-checkpoint/v1"

// SearcherState is one annealer's serialized state.
type SearcherState struct {
	ID          int        `json:"id"`
	Rng         string     `json:"rng"` // splitmix64 position, hex
	Cost        int64      `json:"cost"`
	BestCost    int64      `json:"best_cost"`
	SinceResync int        `json:"since_resync"`
	Counters    Counters   `json:"counters"`
	Edges       [][2]int32 `json:"edges"`
	BestEdges   [][2]int32 `json:"best_edges"`
}

// Checkpoint is the serialized engine.
type Checkpoint struct {
	Schema     string          `json:"schema"`
	Name       string          `json:"name"`
	N          int             `json:"n"`
	Params     Params          `json:"params"`
	Epoch      int             `json:"epoch"`
	BestCost   int64           `json:"best_cost"`
	BestEdges  [][2]int32      `json:"best_edges"`
	Trajectory []EpochStat     `json:"trajectory"`
	States     []SearcherState `json:"states"`
}

// Checkpoint captures the engine's current state.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Schema:     CheckpointSchema,
		Name:       e.name,
		N:          e.n,
		Params:     e.p,
		Epoch:      e.epoch,
		BestCost:   e.bestCost,
		BestEdges:  e.bestEdges,
		Trajectory: e.traj,
	}
	for _, s := range e.searchers {
		cp.States = append(cp.States, SearcherState{
			ID:          s.id,
			Rng:         fmt.Sprintf("%016x", s.rng.x),
			Cost:        s.cost,
			BestCost:    s.bestCost,
			SinceResync: s.sinceResync,
			Counters:    s.ctr,
			Edges:       appendEdges(nil, s.d.Graph()),
			BestEdges:   slices.Clone(s.bestEdges), // the searcher may overwrite its own
		})
	}
	return cp
}

// Restore rebuilds an engine from a checkpoint. Workers comes from the
// caller (it is not part of the serialized state); epochs may be raised
// to continue a finished run.
func Restore(cp *Checkpoint, workers, epochs int) (*Engine, error) {
	if cp.Schema != CheckpointSchema {
		return nil, fmt.Errorf("search: checkpoint schema %q, want %q", cp.Schema, CheckpointSchema)
	}
	if len(cp.States) == 0 {
		return nil, fmt.Errorf("search: checkpoint has no searcher states")
	}
	p := cp.Params
	p.Workers = workers
	if epochs > p.Epochs {
		p.Epochs = epochs
	}
	if len(cp.States) != p.Searchers {
		return nil, fmt.Errorf("search: checkpoint has %d states for %d searchers", len(cp.States), p.Searchers)
	}
	// Edges are int32 pairs, so no vertex count above MaxInt32 is
	// addressable.
	if cp.N < 0 || cp.N > math.MaxInt32 {
		return nil, fmt.Errorf("search: checkpoint vertex count %d outside [0,%d]", cp.N, math.MaxInt32)
	}
	if err := checkEdges("best", cp.BestEdges, cp.N); err != nil {
		return nil, err
	}
	e := &Engine{
		p:         p,
		name:      cp.Name,
		n:         cp.N,
		bestCost:  cp.BestCost,
		bestEdges: cp.BestEdges,
		bestOwner: -1,
		epoch:     cp.Epoch,
		traj:      cp.Trajectory,
	}
	e.initPools()
	for i, st := range cp.States {
		if st.ID != i {
			return nil, fmt.Errorf("search: checkpoint state %d has id %d", i, st.ID)
		}
		// Checkpoint writes 16 lowercase hex digits; anything else would
		// not round-trip.
		x, err := strconv.ParseUint(st.Rng, 16, 64)
		if err != nil || fmt.Sprintf("%016x", x) != st.Rng {
			return nil, fmt.Errorf("search: state %d rng %q is not 16 lowercase hex digits", i, st.Rng)
		}
		if len(st.Edges) < 2 {
			return nil, fmt.Errorf("search: state %d has %d edges; 2-opt needs at least 2", i, len(st.Edges))
		}
		if err := checkEdges(fmt.Sprintf("state %d", i), st.Edges, cp.N); err != nil {
			return nil, err
		}
		if err := checkEdges(fmt.Sprintf("state %d best", i), st.BestEdges, cp.N); err != nil {
			return nil, err
		}
		s := &searcher{
			id:          st.ID,
			rng:         splitmix{x: x},
			cost:        st.Cost,
			bestCost:    st.BestCost,
			bestEdges:   st.BestEdges,
			bestShared:  true,
			sinceResync: st.SinceResync,
			ctr:         st.Counters,
		}
		g := buildFromEdges(cp.Name, cp.N, st.Edges)
		if !slices.Equal(appendEdges(nil, g), st.Edges) {
			return nil, fmt.Errorf("search: state %d edges are not the sorted u < v pairs Checkpoint writes", i)
		}
		s.d = graph.NewDeltaStatsPool(g, e.pools[0])
		if got := costOf(s.d, cp.N); got != st.Cost {
			return nil, fmt.Errorf("search: state %d cost %d does not match its graph (recomputed %d)", i, st.Cost, got)
		}
		e.searchers = append(e.searchers, s)
	}
	return e, nil
}

// checkEdges rejects an edge snapshot with an endpoint outside [0, n).
func checkEdges(what string, edges [][2]int32, n int) error {
	for _, e := range edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return fmt.Errorf("search: checkpoint %s edge %v outside [0,%d)", what, e, n)
		}
	}
	return nil
}

// WriteCheckpoint writes the checkpoint as indented JSON with a trailing
// newline. The encoding is deterministic: struct fields in declaration
// order, no maps, no timestamps.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(b, cp); err != nil {
		return nil, fmt.Errorf("search: checkpoint %s: %v", path, err)
	}
	return cp, nil
}
