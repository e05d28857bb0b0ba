package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serializes the graph in a plain-text format:
//
//	# name <name>
//	# n <vertices> m <edges> loops <loops>
//	u v        (one edge per line, u < v)
//	v loop     (one line per self-loop annotation)
//
// The format round-trips through ReadEdgeList and is the interchange format
// emitted by cmd/psgen.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n# n %d m %d loops %d\n", g.name, g.n, g.nEdges, g.nLoops); err != nil {
		return err
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if g.loops[v] {
			if _, err := fmt.Fprintf(bw, "%d loop\n", v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxEdgeListVertices caps the vertex count ReadEdgeList accepts, so
// that no header can make it allocate more than a few tens of MB before
// the first edge is read. It is far above any graph the repository
// builds (the largest, IQ(23,11), has 13 272 vertices) and keeps every id
// inside the CSR's int32 range.
const maxEdgeListVertices = 1 << 22

// ReadEdgeList parses the format produced by WriteEdgeList. Input is
// outside bytes: a malformed header, a line that is not exactly "u v" or
// "v loop", a vertex id outside [0, n) or a vertex count above
// maxEdgeListVertices is an error, never a panic.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	name := ""
	n := -1
	var b *Builder
	vertex := func(line, s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("graph: bad line %q: %v", line, err)
		}
		if v < 0 || v >= n {
			return 0, fmt.Errorf("graph: line %q: vertex %d out of range [0,%d)", line, v, n)
		}
		return v, nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "#") {
			for i := 1; i < len(fields)-1; i++ {
				switch fields[i] {
				case "name":
					name = fields[i+1]
				case "n":
					if b != nil {
						return nil, fmt.Errorf("graph: header %q after the first edge", line)
					}
					c, err := strconv.Atoi(fields[i+1])
					if err != nil || c < 0 || c > maxEdgeListVertices {
						return nil, fmt.Errorf("graph: bad header %q: vertex count must be an integer in [0,%d]", line, maxEdgeListVertices)
					}
					n = c
				}
			}
			continue
		}
		if n < 0 {
			return nil, fmt.Errorf("graph: edge before '# n <count>' header")
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: bad line %q: want \"u v\" or \"v loop\"", line)
		}
		if b == nil {
			b = NewBuilder(name, n)
		}
		u, err := vertex(line, fields[0])
		if err != nil {
			return nil, err
		}
		v := u
		if fields[1] != "loop" {
			if v, err = vertex(line, fields[1]); err != nil {
				return nil, err
			}
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		if n < 0 {
			return nil, fmt.Errorf("graph: empty input")
		}
		b = NewBuilder(name, n)
	}
	return b.Build(), nil
}
