package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtreescale/internal/cluster"
)

// smallGrid are flags for a grid cheap enough to run many times per test
// binary yet wide enough to shard meaningfully.
var smallGrid = []string{
	"-kind", "ensemble", "-topo", "r100", "-nets", "4",
	"-nsource", "3", "-nrcvr", "2", "-sizes", "1,3,10", "-seed", "7",
}

func ctl(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errw bytes.Buffer
	err := runCtl(context.Background(), args, &out, &errw)
	return out.String(), errw.String(), err
}

func TestVersionFlag(t *testing.T) {
	out, _, err := ctl(t, "-version")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "mtctl ") || strings.TrimSpace(out) == "mtctl" {
		t.Fatalf("version output = %q", out)
	}
}

func TestNeedsWorkersOrLocal(t *testing.T) {
	if _, _, err := ctl(t, smallGrid...); err == nil {
		t.Fatal("expected usage error without -workers/-local/-bench")
	}
}

func TestBadGridFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-local", "-kind", "nope"},
		{"-local", "-mode", "nope"},
		{"-local", "-strategy", "nope"},
		{"-local", "-sizes", "1,-3"},
		{"-local", "-topo", "nope"},
		{"-local", "-resume"}, // the journal lives under -out
	} {
		if _, _, err := ctl(t, bad...); err == nil {
			t.Fatalf("flags %v: expected error", bad)
		}
	}
}

// TestClusterMatchesLocalByteIdentical is the CLI-level determinism claim:
// -local and a two-worker cluster run write byte-identical merged.json.
func TestClusterMatchesLocalByteIdentical(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, _, err := ctl(t, append([]string{"-local", "-out", dirA}, smallGrid...)...); err != nil {
		t.Fatal(err)
	}

	w1, err := cluster.StartStubWorker("t-0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := cluster.StartStubWorker("t-1", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	_, progress, err := ctl(t, append([]string{
		"-workers", w1.URL() + "," + w2.URL(), "-shards", "3", "-out", dirB,
	}, smallGrid...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress, "complete") {
		t.Fatalf("no progress lines in %q", progress)
	}

	a, err := os.ReadFile(filepath.Join(dirA, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("local and cluster merged.json differ:\n%s\n----\n%s", a, b)
	}
}

// TestResumeNeedsNoLiveWorker reruns a completed -out directory with
// -resume against a dead worker: every shard replays from checkpoint.jsonl
// and the rewritten merged.json is unchanged.
func TestResumeNeedsNoLiveWorker(t *testing.T) {
	dir := t.TempDir()
	w, err := cluster.StartStubWorker("t-0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-workers", w.URL(), "-shards", "3", "-out", dir}, smallGrid...)
	if _, _, err := ctl(t, args...); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Same grid, -resume, and a worker URL nothing listens on.
	_, progress, err := ctl(t, append([]string{
		"-workers", "http://127.0.0.1:1", "-shards", "3", "-out", dir, "-resume",
	}, smallGrid...)...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(progress, "resumed from journal") != 3 {
		t.Fatalf("expected 3 resumed shards, got progress:\n%s", progress)
	}
	second, err := os.ReadFile(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("resumed merged.json differs from the original")
	}
}

func TestTimingDoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timing.json")
	if _, _, err := ctl(t, append([]string{"-local", "-out", t.TempDir(), "-timing", path}, smallGrid...)...); err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "LocalRun/ensemble" || doc.Benchmarks[0].NsPerOp <= 0 {
		t.Fatalf("timing doc = %+v", doc)
	}
}

// TestBenchWritesDoc runs the committed-benchmark path with tiny latency:
// the document must carry both wall clocks and the speedup ratio, and the
// bench itself verifies merged bytes against the single-process reference.
func TestBenchWritesDoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	_, progress, err := ctl(t, append([]string{
		"-bench", path, "-bench-latency", "20ms", "-bench-shards", "4",
	}, smallGrid...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress, "merged bytes identical") {
		t.Fatalf("bench progress missing identity check: %q", progress)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]float64{}
	for _, b := range doc.Benchmarks {
		names[b.Name] = b.NsPerOp
	}
	for _, want := range []string{"ClusterEnsembleWorkers1", "ClusterEnsembleWorkers2", "ClusterSpeedupWorkers2"} {
		if names[want] <= 0 {
			t.Fatalf("doc missing %s: %+v", want, doc)
		}
	}
	if sp := names["ClusterSpeedupWorkers2"]; sp < 1.0 {
		t.Fatalf("speedup %v < 1.0 with latency-dominated shards", sp)
	}
}
