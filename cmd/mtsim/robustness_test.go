package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtreescale/internal/experiments"
)

// readOutputs returns the experiment output files (name → contents) in dir,
// excluding the checkpoint journal.
func readOutputs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || e.Name() == experiments.CheckpointFile {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func assertSameOutputs(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("missing output %s", name)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs from the uninterrupted run (%d vs %d bytes)", name, len(w), len(g))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected extra output %s", name)
		}
	}
}

// The PR's acceptance criterion: interrupt a run partway, rerun with
// -resume, and the final outputs are byte-identical to an uninterrupted run.
func TestResumeByteIdenticalOutputs(t *testing.T) {
	ids := "table1,fig8"
	baseline := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", ids, "-profile", "quick", "-out", baseline}, &buf); err != nil {
		t.Fatal(err)
	}

	// Partial run: only fig8 completes and is checkpointed.
	resumed := t.TempDir()
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-out", resumed}, &buf); err != nil {
		t.Fatal(err)
	}
	ck, err := os.ReadFile(filepath.Join(resumed, experiments.CheckpointFile))
	if err != nil {
		t.Fatalf("no checkpoint journal after -out run: %v", err)
	}
	if !strings.Contains(string(ck), `"id":"fig8"`) {
		t.Fatalf("journal does not record fig8:\n%s", ck)
	}

	// Resume: fig8 replays from the journal, table1 runs fresh.
	buf.Reset()
	if err := run(context.Background(), []string{"-experiment", ids, "-profile", "quick", "-out", resumed, "-resume", "-parallel", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# resume: replaying 1 checkpointed experiments") {
		t.Fatalf("resume did not replay the checkpoint:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "(resumed)") {
		t.Fatalf("schedule summary does not mark the replayed experiment:\n%s", buf.String())
	}
	assertSameOutputs(t, readOutputs(t, baseline), readOutputs(t, resumed))
}

// An interrupted run (deadline fires before the work is done) salvages what
// finished, and -resume completes the rest to byte-identical outputs.
func TestTimeoutInterruptThenResume(t *testing.T) {
	ids := "table1,fig8,fig2a"
	baseline := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", ids, "-profile", "quick", "-out", baseline}, &buf); err != nil {
		t.Fatal(err)
	}

	// 1ns: the deadline has already passed by the first ctx poll, however
	// fast the machine; the run must fail and leave the journal usable.
	interrupted := t.TempDir()
	err := run(context.Background(), []string{"-experiment", ids, "-profile", "quick", "-out", interrupted, "-timeout", "1ns"}, &buf)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	buf.Reset()
	if err := run(context.Background(), []string{"-experiment", ids, "-profile", "quick", "-out", interrupted, "-resume"}, &buf); err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, readOutputs(t, baseline), readOutputs(t, interrupted))
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"-experiment", "fig8", "-profile", "quick"}, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestResumeRequiresOut(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-resume"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-resume requires -out") {
		t.Fatalf("err = %v, want -resume requires -out", err)
	}
}

func TestMaxHeapAbortsExperiment(t *testing.T) {
	var buf bytes.Buffer
	// 1 byte: the scheduler's deterministic pre-check trips immediately.
	err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-maxheap", "1"}, &buf)
	if !errors.Is(err, experiments.ErrHeapLimit) {
		t.Fatalf("err = %v, want ErrHeapLimit", err)
	}
	// A generous limit passes.
	if err := run(context.Background(), []string{"-experiment", "fig8", "-profile", "quick", "-maxheap", "64g", "-format", "notes"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestExpandIDs(t *testing.T) {
	if ids, err := expandIDs("all"); err != nil || len(ids) < 10 {
		t.Fatalf("all → %v, %v", ids, err)
	}
	ids, err := expandIDs("fig8, table1,fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "fig8" || ids[1] != "table1" || ids[2] != "fig1a" {
		t.Fatalf("comma list → %v", ids)
	}
	if _, err := expandIDs("fig8,all"); err == nil {
		t.Fatal("'all' in a list must error")
	}
	if _, err := expandIDs(" , "); err == nil {
		t.Fatal("empty list must error")
	}
}

func TestCommaSeparatedExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "fig8,table1", "-profile", "quick", "-format", "notes"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "notes [fig8]") {
		t.Fatalf("missing fig8 output:\n%s", out)
	}
}

// The checkpoint journal's own round-trip, torn-line and profile-key tests
// live with the implementation in internal/experiments/checkpoint_test.go;
// here we only keep the CLI-level resume behavior above.
