package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks that the edge-list parser never panics and that anything
// it accepts round-trips through Write into an equivalent graph.
func FuzzRead(f *testing.F) {
	f.Add("nodes 3\n0 1\n1 2\n")
	f.Add("name x\nnodes 2\n0 1\n")
	f.Add("# comment\nnodes 0\n")
	f.Add("nodes 5\n0 0\n0 1\n1 0\n")
	f.Add("nodes -1\n")
	f.Add("nodes 2\n0 99\n")
	f.Add("nodes 1000000000000000\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g.N(), g.M(), h.N(), h.M())
		}
	})
}
