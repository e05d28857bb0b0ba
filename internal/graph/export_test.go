package graph

// Dirty returns the sources the most recent Apply re-evaluated, in the
// order it re-evaluated them, for the external oracle tests.
func (d *DeltaStats) Dirty() []int32 { return d.dirty }
