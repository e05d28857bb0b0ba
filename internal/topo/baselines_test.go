package topo

import "testing"

func TestBundleflyTable3Config(t *testing.T) {
	// Table 3: BF with d=11 (MMS q=7), d'=4 (Paley 9): 882 routers,
	// radix 15, diameter 3.
	bf := must(NewBundlefly(7, 4))
	if bf.G.N() != 882 {
		t.Errorf("order = %d, want 882", bf.G.N())
	}
	if !bf.G.IsRegular() || bf.G.MaxDegree() != 15 {
		t.Errorf("not 15-regular: max %d min %d", bf.G.MaxDegree(), bf.G.MinDegree())
	}
	if d := bf.G.Diameter(); d != 3 {
		t.Errorf("diameter = %d, want 3", d)
	}
	if bf.NumGroups() != 98 {
		t.Errorf("groups = %d, want 98", bf.NumGroups())
	}
}

func TestBundleflySmallDiameter3(t *testing.T) {
	for _, c := range []struct{ q, d int }{{4, 2}, {5, 2}, {5, 4}} {
		bf := must(NewBundlefly(c.q, c.d))
		if d := bf.G.Diameter(); d > 3 || d < 0 {
			t.Errorf("Bundlefly(q=%d,d'=%d) diameter = %d, want <= 3", c.q, c.d, d)
		}
		if want := BundleflyOrder(c.q, c.d); bf.G.N() != want {
			t.Errorf("Bundlefly(q=%d,d'=%d) order = %d, want %d", c.q, c.d, bf.G.N(), want)
		}
	}
	if BundleflyOrder(6, 4) != 0 || BundleflyOrder(7, 3) != 0 {
		t.Error("infeasible Bundlefly parameters should give order 0")
	}
}

func TestDragonflyStructure(t *testing.T) {
	// Table 3: a=12, h=6: 876 routers, radix 17, diameter 3.
	df := must(NewDragonfly(12, 6))
	if df.G.N() != 876 {
		t.Errorf("order = %d, want 876", df.G.N())
	}
	if !df.G.IsRegular() || df.G.MaxDegree() != 17 {
		t.Errorf("not 17-regular: max %d min %d", df.G.MaxDegree(), df.G.MinDegree())
	}
	if d := df.G.Diameter(); d != 3 {
		t.Errorf("diameter = %d, want 3", d)
	}
	// Exactly one global link between each group pair.
	globals := make(map[[2]int]int)
	for _, e := range df.G.Edges() {
		gu, gv := df.GroupOf(e[0]), df.GroupOf(e[1])
		if gu != gv {
			if gu > gv {
				gu, gv = gv, gu
			}
			globals[[2]int{gu, gv}]++
		}
	}
	g := df.NumGroups()
	if len(globals) != g*(g-1)/2 {
		t.Errorf("global pairs = %d, want %d", len(globals), g*(g-1)/2)
	}
	for pair, c := range globals {
		if c != 1 {
			t.Errorf("groups %v joined by %d links, want 1", pair, c)
		}
	}
}

func TestHyperXStructure(t *testing.T) {
	// Table 3: 9×9×8, 648 routers, radix 23, diameter 3.
	hx := must(NewHyperX(9, 9, 8))
	if hx.G.N() != 648 {
		t.Errorf("order = %d, want 648", hx.G.N())
	}
	if !hx.G.IsRegular() || hx.G.MaxDegree() != 23 {
		t.Error("HyperX should be 23-regular")
	}
	if d := hx.G.Diameter(); d != 3 {
		t.Errorf("diameter = %d, want 3", d)
	}
	// Vertex ids are mixed-radix coordinates, first coordinate fastest;
	// adjacency = differ in exactly one coord.
	for v := 0; v < hx.G.N(); v += 37 {
		if c := hx.coordsOf(v); c[0]+9*(c[1]+9*c[2]) != v {
			t.Fatalf("coords round trip failed at %d: %v", v, c)
		}
	}
	u, v := 0, 3 // (0,0,0) and (3,0,0)
	if !hx.G.HasEdge(u, v) {
		t.Error("same-row vertices must be adjacent")
	}
	w := 3 + 4*9 // (3,4,0)
	if hx.G.HasEdge(u, w) {
		t.Error("two-coordinate change must not be adjacent")
	}
}

func TestFatTreeStructure(t *testing.T) {
	// Table 3: p=18: 972 routers, 324 leaves with 18 endpoints each.
	ft := must(NewFatTree(18))
	if ft.G.N() != 972 {
		t.Errorf("order = %d, want 972", ft.G.N())
	}
	if len(ft.LeafRouters()) != 324 {
		t.Errorf("leaves = %d, want 324", len(ft.LeafRouters()))
	}
	// Leaf and mid routers have 18 switch links; top routers 18 too
	// (half radix: no up links). Leaf: 18 up; mid: 18 down + 18 up = 36;
	// top: 18 down.
	for v := 0; v < ft.G.N(); v++ {
		want := 36
		if ft.Level(v) == 0 || ft.Level(v) == 2 {
			want = 18
		}
		if ft.G.Degree(v) != want {
			t.Fatalf("level-%d router %d degree = %d, want %d", ft.Level(v), v, ft.G.Degree(v), want)
		}
	}
	// Any two leaves are within 4 switch hops (up to top, down).
	small := must(NewFatTree(4))
	dist := small.G.BFSDistances(0, nil, nil)
	for _, leaf := range small.LeafRouters() {
		if dist[leaf] > 4 {
			t.Errorf("leaf distance %d > 4", dist[leaf])
		}
	}
}

func TestMegaflyStructure(t *testing.T) {
	// Table 3: ρ=8, a=16: 1040 routers, 65 groups, radix 16, 520 leaves.
	mf := must(NewMegafly(8, 16))
	if mf.G.N() != 1040 {
		t.Errorf("order = %d, want 1040", mf.G.N())
	}
	if mf.NumGroups() != 65 {
		t.Errorf("groups = %d, want 65", mf.NumGroups())
	}
	if len(mf.LeafRouters()) != 520 {
		t.Errorf("leaves = %d, want 520", len(mf.LeafRouters()))
	}
	for v := 0; v < mf.G.N(); v++ {
		if mf.IsLeaf(v) {
			if mf.G.Degree(v) != 8 {
				t.Fatalf("leaf %d degree = %d, want 8", v, mf.G.Degree(v))
			}
		} else if mf.G.Degree(v) != 16 {
			t.Fatalf("spine %d degree = %d, want 16", v, mf.G.Degree(v))
		}
	}
	// Leaf-to-leaf diameter <= 4 (leaf-spine-spine-leaf).
	leaves := mf.LeafRouters()
	dist := mf.G.BFSDistances(leaves[0], nil, nil)
	for _, l := range leaves {
		if dist[l] > 4 {
			t.Errorf("leaf distance %d > 4", dist[l])
		}
	}
}

func TestKautzStructure(t *testing.T) {
	k := must(NewKautz(3, 2))
	if k.G.N() != KautzOrder(3, 2) || k.G.N() != 36 {
		t.Errorf("order = %d, want 36", k.G.N())
	}
	// Undirected degree at most 2d (in + out, some may coincide).
	if k.G.MaxDegree() > 6 {
		t.Errorf("max degree = %d > 6", k.G.MaxDegree())
	}
	// K(d, n) has directed diameter n+1; the undirected diameter can only
	// be smaller or equal.
	if d := k.G.Diameter(); d > 3 {
		t.Errorf("undirected diameter = %d, want <= 3", d)
	}
	if !k.G.IsConnected(nil) {
		t.Error("Kautz disconnected")
	}
}

func TestJellyfishStructure(t *testing.T) {
	g, err := NewJellyfish(100, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular() || g.MaxDegree() != 7 {
		t.Errorf("not 7-regular: [%d,%d]", g.MinDegree(), g.MaxDegree())
	}
	if !g.IsConnected(nil) {
		t.Error("Jellyfish disconnected")
	}
	// Determinism.
	g2, _ := NewJellyfish(100, 7, 42)
	if g.M() != g2.M() {
		t.Error("Jellyfish not deterministic for fixed seed")
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Jellyfish edge sets differ for same seed")
		}
	}
	if _, err := NewJellyfish(9, 7, 1); err == nil {
		t.Error("odd n·r should fail")
	}
}

func TestLPSSpectralfly(t *testing.T) {
	// Small instance first: X^{5,13}: 5 is not a QR mod 13 → PGL,
	// order 13·168 = 2184, 6-regular.
	l := must(NewLPS(5, 13))
	if l.PSL {
		t.Error("5 is not a QR mod 13; expected PGL")
	}
	if l.G.N() != 2184 || l.G.N() != LPSOrder(5, 13) {
		t.Errorf("order = %d, want 2184", l.G.N())
	}
	if !l.G.IsRegular() || l.G.MaxDegree() != 6 {
		t.Errorf("not 6-regular: [%d,%d]", l.G.MinDegree(), l.G.MaxDegree())
	}
	if !l.G.IsConnected(nil) {
		t.Error("LPS disconnected")
	}
}

func TestLPSTable3Spectralfly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Table 3: X^{23,13}: 23 ≡ 10 ≡ 6² mod 13 is a QR → PSL(2,13),
	// order 1092, radix 24.
	l := must(NewLPS(23, 13))
	if !l.PSL {
		t.Error("23 is a QR mod 13; expected PSL")
	}
	if l.G.N() != 1092 {
		t.Errorf("order = %d, want 1092", l.G.N())
	}
	if !l.G.IsRegular() || l.G.MaxDegree() != 24 {
		t.Errorf("radix/regularity wrong: max degree %d", l.G.MaxDegree())
	}
	if d := l.G.Diameter(); d != 3 {
		t.Errorf("diameter = %d, want 3", d)
	}
}

func TestTopologyConstructorErrors(t *testing.T) {
	if _, err := NewDragonfly(0, 1); err == nil {
		t.Error("Dragonfly(0,1) should fail")
	}
	if _, err := NewHyperX(); err == nil {
		t.Error("HyperX() should fail")
	}
	if _, err := NewHyperX(1); err == nil {
		t.Error("HyperX(1) should fail")
	}
	if _, err := NewFatTree(0); err == nil {
		t.Error("FatTree(0) should fail")
	}
	if _, err := NewMegafly(1, 3); err == nil {
		t.Error("Megafly odd group size should fail")
	}
	if _, err := NewKautz(1, 1); err == nil {
		t.Error("Kautz(1,1) should fail")
	}
	if _, err := NewLPS(4, 13); err == nil {
		t.Error("LPS with composite p should fail")
	}
	if _, err := NewLPS(5, 11); err == nil {
		t.Error("LPS with q ≡ 3 mod 4 should fail")
	}
}

// TestGirthOfKnownFamilies validates girth facts of the constructed
// families: the Hoffman–Singleton graph (MMS(5)) has girth 5; Paley
// graphs contain triangles; LPS Ramanujan graphs have large girth
// (>= 2·log_p(n) asymptotically — X^{5,13} has girth >= 6).
func TestGirthOfKnownFamilies(t *testing.T) {
	if g := must(NewMMS(5)).G.Girth(); g != 5 {
		t.Errorf("Hoffman–Singleton girth = %d, want 5", g)
	}
	pal, _ := NewPaleyGraph(13)
	if g := pal.Girth(); g != 3 {
		t.Errorf("Paley(13) girth = %d, want 3", g)
	}
	if testing.Short() {
		return
	}
	lps := must(NewLPS(5, 13))
	if g := lps.G.Girth(); g < 6 {
		t.Errorf("X^{5,13} girth = %d, want >= 6", g)
	}
}
