package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// FuzzReadEdgeList throws arbitrary bytes at the edge-list parser
// (`pssearch -start <file>` reads them): no input may panic, and every
// accepted graph must survive WriteEdgeList → ReadEdgeList unchanged.
func FuzzReadEdgeList(f *testing.F) {
	pet := graph.NewBuilder("petersen", 10)
	for i := 0; i < 5; i++ {
		pet.AddEdge(i, (i+1)%5)
		pet.AddEdge(5+i, 5+(i+2)%5)
		pet.AddEdge(i, 5+i)
	}
	for _, g := range []*graph.Graph{
		pet.Build(),
		topo.MustNewPolarStar(5, 4, topo.KindIQ).G, // ps-iq-small
		must(topo.NewER(3)).G,                      // quadric self-loops
	} {
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("# n 3\n0 5\n")
	f.Add("# n 3\n-1 2\n")
	f.Add("# n 2\n7 loop\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := graph.ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := g.WriteEdgeList(&first); err != nil {
			t.Fatal(err)
		}
		h, err := graph.ReadEdgeList(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted graph %v does not read back: %v", g, err)
		}
		if err := h.WriteEdgeList(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the graph:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
