package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const canned = `goos: linux
goarch: amd64
pkg: mtreescale
cpu: AMD EPYC 7B13
BenchmarkMeasureCurve-8           	     100	  11183044 ns/op	   75060 B/op	     913 allocs/op
BenchmarkMeasureCurveNested-8     	     500	   2210033 ns/op	   12345 B/op	      97 allocs/op
BenchmarkTopologyGeneration/arpa-8	    2000	    523441 ns/op
PASS
ok  	mtreescale	12.345s
`

func TestParseCanned(t *testing.T) {
	doc, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("want 3 benchmarks, got %d: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	b := doc.Benchmarks[0]
	if b.Name != "MeasureCurve" || b.Procs != 8 || b.Iterations != 100 {
		t.Fatalf("first benchmark: %+v", b)
	}
	if b.NsPerOp != 11183044 || b.BytesPerOp != 75060 || b.AllocsPerOp != 913 {
		t.Fatalf("first benchmark metrics: %+v", b)
	}
	if doc.Benchmarks[1].Name != "MeasureCurveNested" {
		t.Fatalf("second benchmark: %+v", doc.Benchmarks[1])
	}
	// No -benchmem columns on the sub-benchmark line.
	sub := doc.Benchmarks[2]
	if sub.Name != "TopologyGeneration/arpa" || sub.BytesPerOp != -1 || sub.AllocsPerOp != -1 {
		t.Fatalf("sub-benchmark: %+v", sub)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok mtreescale 0.1s\n")); err == nil {
		t.Fatal("no benchmark lines must error")
	}
}

func TestParseSkipsNonResultBenchmarkLines(t *testing.T) {
	// `-v` runs interleave RUN/PASS markers; only result lines must parse.
	in := `BenchmarkMeasureCurve
BenchmarkMeasureCurve-8   	     100	  11183044 ns/op
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Iterations != 100 {
		t.Fatalf("benchmarks: %+v", doc.Benchmarks)
	}
}

func writeDoc(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	doc := Doc{Benchmarks: benches}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareNoRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", []Benchmark{
		{Name: "MeasureCurve", NsPerOp: 1000},
		{Name: "BFS50k", NsPerOp: 2000},
	})
	newPath := writeDoc(t, dir, "new.json", []Benchmark{
		{Name: "MeasureCurve", NsPerOp: 1050}, // +5%: within the 10% gate
		{Name: "BFS50k", NsPerOp: 1400},       // -30%: improvement
		{Name: "BFS50kDense", NsPerOp: 900},   // new benchmark
	})
	var buf strings.Builder
	regressed, err := runCompare(&buf, oldPath, newPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("unexpected regression verdict:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"MeasureCurve", "BFS50k", "new", "+5.0%", "-30.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", []Benchmark{
		{Name: "MeasureCurve", NsPerOp: 1000},
		{Name: "Dropped", NsPerOp: 10},
	})
	newPath := writeDoc(t, dir, "new.json", []Benchmark{
		{Name: "MeasureCurve", NsPerOp: 1201}, // +20.1%
	})
	var buf strings.Builder
	regressed, err := runCompare(&buf, oldPath, newPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("20%% slowdown must trip the 10%% gate:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "FAIL", "dropped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// A looser threshold accepts the same pair.
	buf.Reset()
	regressed, err = runCompare(&buf, oldPath, newPath, 25)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("20%% slowdown must pass a 25%% gate:\n%s", buf.String())
	}
}

func TestReadDocRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	valid, err := json.Marshal(Doc{Benchmarks: []Benchmark{{Name: "X", NsPerOp: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		content string
		wantErr string // substring of the one-line diagnosis; "" = no error
	}{
		{"valid", string(valid), ""},
		{"empty", "", "empty file"},
		{"whitespace-only", "  \n\t\n", "empty file"},
		{"malformed", "{not json", "malformed JSON"},
		{"truncated", string(valid[:len(valid)/2]), "malformed JSON"},
		{"no-benchmarks-object", "{}", "no benchmarks"},
		{"empty-benchmark-list", `{"benchmarks":[]}`, "no benchmarks"},
		{"null-benchmark-list", `{"benchmarks":null}`, "no benchmarks"},
		{"nameless-benchmark", `{"benchmarks":[{"ns_per_op":5}]}`, "empty name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			doc, err := readDoc(path)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid document rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted bad document, got %+v", doc)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file", err)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnosis is not one line: %q", err)
			}
		})
	}
	if _, err := readDoc(filepath.Join(dir, "does-not-exist.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestWriteDocToAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	doc := &Doc{Goos: "linux", Benchmarks: []Benchmark{{Name: "X", NsPerOp: 1}}}
	if err := writeDocTo(path, doc); err != nil {
		t.Fatal(err)
	}
	back, err := readDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Goos != "linux" || len(back.Benchmarks) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	// No temp droppings from the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just bench.json", len(entries))
	}
}

func TestCompareErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeDoc(t, dir, "good.json", []Benchmark{{Name: "X", NsPerOp: 1}})
	var buf strings.Builder
	if _, err := runCompare(&buf, filepath.Join(dir, "missing.json"), good, 10); err == nil {
		t.Fatal("missing old file must error")
	}
	if _, err := runCompare(&buf, good, filepath.Join(dir, "missing.json"), 10); err == nil {
		t.Fatal("missing new file must error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCompare(&buf, bad, good, 10); err == nil {
		t.Fatal("malformed JSON must error")
	}
	zero := writeDoc(t, dir, "zero.json", []Benchmark{{Name: "X", NsPerOp: 0}})
	if _, err := runCompare(&buf, zero, good, 10); err == nil {
		t.Fatal("non-positive old ns/op must error")
	}
	other := writeDoc(t, dir, "other.json", []Benchmark{{Name: "Y", NsPerOp: 1}})
	if _, err := runCompare(&buf, good, other, 10); err == nil {
		t.Fatal("documents sharing no benchmark name must error")
	}
}
