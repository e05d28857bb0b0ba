package clitest

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExamples runs every program under examples/: each must exit 0 and
// print one line of seeded results, which depends only on the code.
func TestExamples(t *testing.T) {
	want := map[string]string{
		"designspace":    "Built PolarStar-IQ(q=23,d'=8){n=9954 m=159264 loops=0}: diameter 3",
		"faulttolerance": "   20% failed: diameter 5, avg path 3.038",
		"quickstart":     "Diameter:   3 (connected: true, avg path 2.777)",
		"routingdemo":    "Verified 1997 random analytic minpaths against BFS ground truth.",
		"trafficsim":     "  uniform      MIN   saturation load: 0.50   latency@0.1:   18.2 cycles",
	}
	for _, e := range examples {
		t.Run(e, func(t *testing.T) {
			out := run(t, e)
			found := false
			for _, line := range strings.Split(out, "\n") {
				found = found || line == want[e]
			}
			if !found {
				t.Errorf("%s output lacks the line %q:\n%s", filepath.Join("examples", e), want[e], out)
			}
		})
	}
}
