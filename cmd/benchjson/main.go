// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout — the format of the repo's
// committed BENCH_N.json perf-trajectory points (see `make bench`) — and
// compares two such documents for regressions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_1.json
//	benchjson -compare BENCH_1.json BENCH_2.json            # exit 1 on >10% regression
//	benchjson -compare -threshold 5 BENCH_1.json BENCH_2.json
//
// -o writes the document atomically (temp file + rename) instead of stdout,
// so an interrupted run never leaves a truncated BENCH_*.json behind.
// Malformed, empty, or truncated input files fail with a one-line error and
// a nonzero exit.
//
// Compare prints a per-benchmark ns/op delta table (negative = faster) and
// exits nonzero when any benchmark present in both files slowed down by more
// than the threshold percentage. Benchmarks only in one file are reported
// but never fail the comparison; two files that share no benchmark name
// are an error, since there is nothing to gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"mtreescale/internal/atomicio"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark identifier without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the reported B/op (requires -benchmem; -1 when absent).
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is the reported allocs/op (requires -benchmem; -1 when
	// absent).
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Doc is the emitted JSON document.
type Doc struct {
	// Goos/Goarch/CPU echo the bench header when present.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks lists every parsed result in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 10, "ns/op slowdown percentage treated as a regression in -compare mode")
	outPath := flag.String("o", "", "write the JSON document to this path atomically instead of stdout")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := writeDocTo(*outPath, doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// writeDocTo emits the document to stdout, or — with -o — atomically to a
// file, so a crash or Ctrl-C never leaves a truncated BENCH_*.json.
func writeDocTo(path string, doc *Doc) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if path == "" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return atomicio.WriteFile(path, buf.Bytes(), 0o644)
}

// readDoc loads one committed BENCH_*.json document, rejecting empty,
// malformed, or benchmark-less files with a one-line diagnosis — a
// truncated document (interrupted `make bench`) must fail loudly, not
// compare as an empty baseline.
func readDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("%s: empty file (interrupted or failed bench run?)", path)
	}
	doc := &Doc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: malformed JSON: %v", path, err)
	}
	if err := validateDoc(doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// validateDoc is the shared document invariant: every doc accepted by
// readDoc AND every doc produced by parse satisfies it, so a parse→write→
// read round-trip can never fail halfway.
func validateDoc(doc *Doc) error {
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks in document")
	}
	for _, b := range doc.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("benchmark entry with empty name")
		}
	}
	return nil
}

// runCompare prints the per-benchmark ns/op delta table and reports whether
// any shared benchmark regressed beyond the threshold percentage. Documents
// that share no benchmark name are an error.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64) (bool, error) {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return false, err
	}
	oldBy := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[b.Name] = b
	}
	if !slices.ContainsFunc(newDoc.Benchmarks, func(b Benchmark) bool { _, ok := oldBy[b.Name]; return ok }) {
		return false, fmt.Errorf("%s and %s share no benchmark name: nothing to compare", oldPath, newPath)
	}
	fmt.Fprintf(w, "%-40s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	regressed := false
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	for _, nb := range newDoc.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.0f %9s\n", nb.Name, "-", nb.NsPerOp, "new")
			continue
		}
		if ob.NsPerOp <= 0 {
			return false, fmt.Errorf("%s: %s has non-positive ns/op", oldPath, nb.Name)
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %+8.1f%%%s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, delta, mark)
	}
	for _, ob := range oldDoc.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "%-40s %14.0f %14s %9s\n", ob.Name, ob.NsPerOp, "-", "dropped")
		}
	}
	if regressed {
		fmt.Fprintf(w, "FAIL: at least one benchmark slowed down more than %.0f%%\n", threshold)
	}
	return regressed, nil
}

func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return doc, nil
}

// parseLine parses one result line, e.g.
//
//	BenchmarkMeasureCurve-8   100   11183044 ns/op   75060 B/op   913 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !isNumber(fields[1]) {
		return Benchmark{}, false
	}
	b := Benchmark{Procs: 1, BytesPerOp: -1, AllocsPerOp: -1}
	b.Name = fields[0]
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	b.Name = strings.TrimPrefix(b.Name, "Benchmark")
	if b.Name == "" {
		// A bare "Benchmark" (or "Benchmark-8") line would produce a doc
		// that readDoc rejects on the next run.
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// Remaining fields come in (value, unit) pairs. ParseFloat accepts
	// "NaN" and "Inf", which JSON cannot encode — reject them here or the
	// document write fails long after the bad line scrolled by.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	if b.NsPerOp <= 0 {
		return Benchmark{}, false
	}
	return b, true
}

func isNumber(s string) bool {
	_, err := strconv.ParseInt(s, 10, 64)
	return err == nil
}
