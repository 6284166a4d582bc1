package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := randomGraph(12, 50, 80).WithName("rt50")
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() || h.Name() != g.Name() {
		t.Fatalf("round trip changed shape: %v vs %v", h, g)
	}
	g.Edges(func(u, v int) {
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost", u, v)
		}
	})
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `# a comment
name demo

nodes 3
0 1
# interior comment
1 2
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Name() != "demo" {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadCleansDuplicates(t *testing.T) {
	in := "nodes 3\n0 1\n1 0\n0 1\n1 1\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (dups and self-loop cleaned)", g.M())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                     // no nodes directive
		"0 1\n",                // edge before nodes
		"nodes x\n",            // bad count
		"nodes -5\n",           // negative count
		"nodes 2\nnodes 2\n",   // duplicate directive
		"nodes 2\n0\n",         // malformed edge
		"nodes 2\n0 five\n",    // non-numeric endpoint
		"nodes 2\n0 7\n",       // out of range
		"name\nnodes 2\n",      // malformed name
		"nodes 2 extra\n0 1\n", // malformed nodes
		"nodes 2\n0 1 2\n",     // too many fields
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// A node count past int32 cannot be a graph of int32 node ids: Read names
// the line instead of letting Build panic on the allocation.
func TestReadRejectsNodeCountOverflow(t *testing.T) {
	for in, line := range map[string]string{
		"nodes 1000000000000000\n":  "line 1",
		"# big\nnodes 2147483648\n": "line 2",
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), line) || !strings.Contains(err.Error(), "overflows int32") {
			t.Errorf("input %q: err = %v, want an int32 overflow error at %s", in, err, line)
		}
	}
}

func TestWriteNoName(t *testing.T) {
	g := path(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "name") {
		t.Fatalf("unnamed graph emitted a name line:\n%s", buf.String())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		g := randomGraph(seed, n, n)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		h, err := Read(&buf)
		if err != nil {
			return false
		}
		if h.N() != g.N() || h.M() != g.M() {
			return false
		}
		ok := true
		g.Edges(func(u, v int) {
			if !h.HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
