package route

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// treesDigest hashes a tree set: its size, then each tree's root and
// parent array, in order.
func treesDigest(trees []*SpanningTree) string {
	h := fnv.New64a()
	var b [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	put(int32(len(trees)))
	for _, tr := range trees {
		put(int32(tr.Root))
		for _, p := range tr.Parent {
			put(p)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

const edstDigestFile = "testdata/edst_digest.txt"

// TestEDSTDigest pins the trees EdgeDisjointBFSTrees extracts — the
// multipath lanes every MP-MIN/MP-UGAL result is built on — on PolarStar
// (IQ and Paley supernodes) and jellyfish graphs at k = 2..4, one row per
// graph in testdata/edst_digest.txt. POLARSTAR_REGEN=1 rewrites the file
// instead (TestRegen in the repository root runs every such rewrite).
func TestEDSTDigest(t *testing.T) {
	ps := func(q, d int, kind topo.SupernodeKind) func() *graph.Graph {
		return func() *graph.Graph { return topo.MustNewPolarStar(q, d, kind).G }
	}
	jelly := func(n int) func() *graph.Graph {
		return func() *graph.Graph {
			g, err := topo.NewJellyfish(n, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"ps-iq-3-3", ps(3, 3, topo.KindIQ)},
		{"ps-iq-4-3", ps(4, 3, topo.KindIQ)},
		{"ps-iq-5-4", ps(5, 4, topo.KindIQ)},
		{"ps-iq-7-3", ps(7, 3, topo.KindIQ)},
		{"ps-iq-11-3", ps(11, 3, topo.KindIQ)},
		{"ps-pal-5-4", ps(5, 4, topo.KindPaley)},
		{"ps-pal-8-6", ps(8, 6, topo.KindPaley)},
		{"jellyfish-256", jelly(256)},
		{"jellyfish-1024", jelly(1024)},
	}
	var got strings.Builder
	for _, c := range cases {
		g := c.build()
		got.WriteString(c.name)
		for _, k := range []int{2, 3, 4} {
			trees, err := EdgeDisjointBFSTrees(g, 0, k, 1)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.name, k, err)
			}
			fmt.Fprintf(&got, " k%d=%s", k, treesDigest(trees))
		}
		got.WriteString("\n")
	}
	if os.Getenv("POLARSTAR_REGEN") == "1" {
		if err := os.WriteFile(edstDigestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(edstDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("trees differ from %s:\ngot:\n%swant:\n%s", edstDigestFile, got.String(), want)
	}
}
