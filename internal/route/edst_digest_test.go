package route

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// TestEDSTDigest pins the trees EdgeDisjointBFSTrees extracts — the
// multipath lanes every MP-MIN/MP-UGAL result is built on — on PolarStar
// (IQ and Paley supernodes) and jellyfish graphs at k = 2..4. The digests
// were recorded before the extractor kept its scan cursors across repair
// exchanges and its reattach scratch across calls; both changes must
// leave every tree bit-identical.
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
		want  [3]string // k = 2, 3, 4
	}{
		{"ps-iq-3-3", ps(3, 3, topo.KindIQ), [3]string{"38a6993bba4557a2", "61ab10b1e9290b4a", "61ab10b1e9290b4a"}},
		{"ps-iq-4-3", ps(4, 3, topo.KindIQ), [3]string{"bfe4fa137cfe4937", "ff7c17c41cd5d1db", "ff7c17c41cd5d1db"}},
		{"ps-iq-5-4", ps(5, 4, topo.KindIQ), [3]string{"d9c7244beddb280b", "bd4f2f509f5f511d", "8fe241b0314681b8"}},
		{"ps-iq-7-3", ps(7, 3, topo.KindIQ), [3]string{"b6ff3144a65bd97b", "20f4086f0b0b38b4", "654d3dc77f0c2ee8"}},
		{"ps-iq-11-3", ps(11, 3, topo.KindIQ), [3]string{"bf1f9194ee1c37e9", "56998794e05f8dde", "9a0c8987bdf26020"}},
		{"ps-pal-5-4", ps(5, 4, topo.KindPaley), [3]string{"cb2ba0f71e039246", "b640ed7c82288731", "81e5cb0645ba6a09"}},
		{"ps-pal-8-6", ps(8, 6, topo.KindPaley), [3]string{"f4a93cc58767f5c7", "686ea2a0d793b2a2", "5b2a24d37d36faf9"}},
		{"jellyfish-256", jelly(256), [3]string{"3d74379f15bd21ce", "ba7edff3cdb20063", "5aa5ae58f1537c59"}},
		{"jellyfish-1024", jelly(1024), [3]string{"4bbcd2bd9765056f", "c8f53e9a7a7c88d6", "f9ee6dc044277135"}},
	}
	for _, c := range cases {
		g := c.build()
		for i, k := range []int{2, 3, 4} {
			trees, err := EdgeDisjointBFSTrees(g, 0, k, 1)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.name, k, err)
			}
			if got := treesDigest(trees); got != c.want[i] {
				t.Errorf("%s k=%d: digest %s (%d trees), want %s", c.name, k, got, len(trees), c.want[i])
			}
		}
	}
}
