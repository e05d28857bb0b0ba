package moore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polarstar/internal/topo"
)

// TestMeasureConfigs constructs every radix-10 design point and checks the
// measured structural statistics against the theory: the constructed order
// matches the closed form, the graph is connected, and the diameter obeys
// Thm 4/5 (≤ 3). A cap placed below the largest order must mark exactly
// the above-cap configurations as skipped.
func TestMeasureConfigs(t *testing.T) {
	cfgs := PolarStarConfigs(10)
	if len(cfgs) < 2 {
		t.Fatalf("radix 10: only %d configurations", len(cfgs))
	}
	for _, m := range MeasureConfigs(cfgs, 0) {
		want := int64(topo.PolarStarOrder(m.Q, m.DPrime, m.Kind))
		if m.Order != want {
			t.Errorf("%v: design-space order %d disagrees with PolarStarOrder %d", m.Config, m.Order, want)
		}
		if !m.Measured {
			t.Errorf("%v: unmeasured with no cap", m.Config)
			continue
		}
		if !m.Stats.Connected {
			t.Errorf("%v: constructed graph disconnected", m.Config)
		}
		if m.Stats.Diameter < 1 || m.Stats.Diameter > 3 {
			t.Errorf("%v: measured diameter %d, want ≤ 3", m.Config, m.Stats.Diameter)
		}
		if m.Stats.AvgPath <= 1 || float64(m.Stats.Diameter) < m.Stats.AvgPath {
			t.Errorf("%v: avg path %f outside (1, diameter]", m.Config, m.Stats.AvgPath)
		}
	}

	// Cap below the largest order: configs are sorted descending, so the
	// head must be skipped and the tail measured.
	cap := int(cfgs[len(cfgs)-1].Order)
	for _, m := range MeasureConfigs(cfgs, cap) {
		if got, want := m.Measured, m.Order <= int64(cap); got != want {
			t.Errorf("%v (order %d, cap %d): Measured = %v, want %v", m.Config, m.Order, cap, got, want)
		}
	}
}

// TestMeasureConfigsDeterministic pins the worker-pool output ordering:
// repeated runs must be deeply equal regardless of goroutine scheduling.
func TestMeasureConfigsDeterministic(t *testing.T) {
	cfgs := PolarStarConfigs(9)
	a := MeasureConfigs(cfgs, 0)
	b := MeasureConfigs(cfgs, 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("MeasureConfigs output differs between runs")
	}
}

// golden compares got against testdata/<name>, rewriting it instead under
// POLARSTAR_REGEN=1 (TestRegen in the repository root runs every such
// rewrite).
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("POLARSTAR_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (write it with POLARSTAR_REGEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file; POLARSTAR_REGEN=1 rewrites it if intended\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestFigureGoldens locks the rendered figure tables over a small radix
// window against golden files, so formatting or design-space regressions
// surface as a readable diff.
func TestFigureGoldens(t *testing.T) {
	var buf bytes.Buffer
	WriteFig1(&buf, Fig1(8, 12))
	golden(t, "fig1_r8-12.txt", buf.Bytes())

	buf.Reset()
	WriteFig4(&buf, Fig4(6, 10))
	golden(t, "fig4_r6-10.txt", buf.Bytes())

	buf.Reset()
	WriteFig7(&buf, 8, 12)
	golden(t, "fig7_r8-12.txt", buf.Bytes())

	buf.Reset()
	WriteFig7Measured(&buf, 8, 9, 400)
	golden(t, "fig7_measured_r8-9.txt", buf.Bytes())
}
