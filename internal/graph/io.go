package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The interchange format is a line-oriented edge list:
//
//	# comment
//	name <topology-name>     (optional)
//	nodes <N>
//	<u> <v>                  (one edge per line, 0-based)
//
// Duplicate edges and self-loops are cleaned on read, matching the paper's
// topology preparation.

// Write serializes g in the edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		if _, err := fmt.Fprintf(bw, "name %s\n", g.Name()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "nodes %d\n", g.N()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int) {
		if werr == nil {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Read parses the edge-list format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var b *Builder
	name := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed name directive", lineNo)
			}
			name = fields[1]
		case "nodes":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed nodes directive", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: node count %d overflows int32 node ids", lineNo, n)
			}
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate nodes directive", lineNo)
			}
			b = NewBuilder(n)
		default:
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before nodes directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: expected `u v`, got %q", lineNo, line)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", lineNo, line)
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing nodes directive")
	}
	b.SetName(name)
	return b.Build(), nil
}
