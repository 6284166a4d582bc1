package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtreescale/internal/plot"
	"mtreescale/internal/topology"
)

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"paper", "medium", "quick"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("profile name %q", p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Scale: 0, NSource: 1, NRcvr: 1, GridPoints: 2, MCMCSamples: 1},
		{Scale: 2, NSource: 1, NRcvr: 1, GridPoints: 2, MCMCSamples: 1},
		{Scale: 1, NSource: 0, NRcvr: 1, GridPoints: 2, MCMCSamples: 1},
		{Scale: 1, NSource: 1, NRcvr: 1, GridPoints: 1, MCMCSamples: 1},
		{Scale: 1, NSource: 1, NRcvr: 1, GridPoints: 2, MCMCSamples: 0},
		{Scale: 1, NSource: 1, NRcvr: 1, GridPoints: 2, MCMCSamples: 1, MaxGroupSize: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d must error: %+v", i, p)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1",
		"fig1a", "fig1b",
		"fig2a", "fig2b",
		"fig3a", "fig3b",
		"fig4a", "fig4b",
		"fig5a", "fig5b",
		"fig6a", "fig6b",
		"fig7a", "fig7b",
		"fig8",
		"fig9a", "fig9b",
		"ext-shared", "ext-steiner", "ext-ensemble", "ext-weighted", "ext-affinity-graph",
		"churn-steady", "churn-repair",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestRunInvalidProfile(t *testing.T) {
	if _, err := Run("table1", Profile{}); err == nil {
		t.Fatal("invalid profile must error")
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestRunAllQuick executes every registered experiment at the quick profile
// and validates the structural contract of each result.
func TestRunAllQuick(t *testing.T) {
	p := Quick()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Fatalf("result id %q", res.ID)
			}
			if res.Title == "" {
				t.Fatal("missing title")
			}
			if id == "table1" {
				if len(res.Rows) != 8 {
					t.Fatalf("table1 rows = %d, want 8", len(res.Rows))
				}
				if len(res.Header) == 0 {
					t.Fatal("table1 missing header")
				}
				for _, row := range res.Rows {
					if len(row) != len(res.Header) {
						t.Fatalf("ragged row %v", row)
					}
				}
				return
			}
			if res.Figure == nil {
				t.Fatal("figure experiment produced no figure")
			}
			if len(res.Figure.Series) < 2 {
				t.Fatalf("only %d series", len(res.Figure.Series))
			}
			for _, s := range res.Figure.Series {
				if s.Len() == 0 {
					t.Fatalf("series %q empty", s.Name)
				}
			}
			if _, _, _, _, err := res.Figure.Bounds(); err != nil {
				t.Fatalf("figure unplottable: %v", err)
			}
			// Every figure must render without error.
			if _, err := plot.RenderASCII(res.Figure, plot.ASCIIOptions{Width: 60, Height: 16}); err != nil {
				t.Fatalf("render: %v", err)
			}
			if len(res.Notes) == 0 {
				t.Fatalf("experiment %s recorded no notes", id)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	p := Quick()
	a, err := Run("fig3a", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig3a", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Figure.Series) != len(b.Figure.Series) {
		t.Fatal("series count differs")
	}
	for i := range a.Figure.Series {
		sa, sb := a.Figure.Series[i], b.Figure.Series[i]
		for j := range sa.X {
			if sa.X[j] != sb.X[j] || sa.Y[j] != sb.Y[j] {
				t.Fatalf("series %d point %d differs", i, j)
			}
		}
	}
}

func TestFig1NotesContainExponents(t *testing.T) {
	res, err := Run("fig1a", Quick())
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, n := range res.Notes {
		if strings.Contains(n, "fitted exponent") {
			found++
		}
	}
	if found < 4 {
		t.Fatalf("expected an exponent note per topology, got %d:\n%v", found, res.Notes)
	}
}

func TestFig9AffinityOrdering(t *testing.T) {
	// The last series (β=10, strongest affinity) must lie below the first
	// (β=-10, strongest disaffinity) at every shared n.
	res, err := Run("fig9a", Quick())
	if err != nil {
		t.Fatal(err)
	}
	var spread, cluster *plot.Series
	for i := range res.Figure.Series {
		s := &res.Figure.Series[i]
		switch s.Name {
		case "β=-10":
			spread = s
		case "β=10":
			cluster = s
		}
	}
	if spread == nil || cluster == nil {
		t.Fatal("β series missing")
	}
	for i := range spread.X {
		// A single receiver has no pairwise distance (β inert), and far past
		// population saturation every configuration fills the whole tree, so
		// check only the pre-saturation regime.
		if spread.X[i] < 2 || spread.X[i] > 100 {
			continue
		}
		if cluster.Y[i] >= spread.Y[i] {
			t.Fatalf("at n=%v: cluster %.3f >= spread %.3f", spread.X[i], cluster.Y[i], spread.Y[i])
		}
	}
}

func TestXGrid(t *testing.T) {
	g := xGrid(1, 1000, 4)
	if len(g) != 4 || g[0] != 1 || g[3] != 1000 {
		t.Fatalf("grid = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("not increasing: %v", g)
		}
	}
	// Degenerate input falls back to endpoints.
	if got := xGrid(5, 2, 10); len(got) != 2 {
		t.Fatalf("degenerate grid = %v", got)
	}
}

func TestCapSize(t *testing.T) {
	p := Profile{MaxGroupSize: 100}
	if p.capSize(500) != 100 || p.capSize(50) != 50 {
		t.Fatal("capSize")
	}
	p.MaxGroupSize = 0
	if p.capSize(500) != 500 {
		t.Fatal("uncapped")
	}
}

// TestChurnExperimentsQuick pins the churn family's structural contract:
// the steady-state figure carries the static reference plus all three
// churn variants, the repair figure carries both cost curves, notes record
// the fitted exponent / PASTA deviation / degree pressure, and repeated
// runs are byte-deterministic (the engine's wall-clock rate is never
// consumed).
func TestChurnExperimentsQuick(t *testing.T) {
	p := Quick()
	steady, err := Run("churn-steady", p)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries := []string{"static snapshot", "churn-spt", "churn-shared", "churn-bounded"}
	if len(steady.Figure.Series) != len(wantSeries) {
		t.Fatalf("churn-steady series = %d, want %d", len(steady.Figure.Series), len(wantSeries))
	}
	for i, s := range steady.Figure.Series {
		if s.Name != wantSeries[i] {
			t.Fatalf("series %d = %q, want %q", i, s.Name, wantSeries[i])
		}
	}
	if len(steady.Notes) != 3 {
		t.Fatalf("churn-steady notes = %v", steady.Notes)
	}
	for _, frag := range []string{"exponent", "PASTA", "degree cap"} {
		found := false
		for _, n := range steady.Notes {
			if strings.Contains(n, frag) {
				found = true
			}
		}
		if !found {
			t.Fatalf("churn-steady notes missing %q: %v", frag, steady.Notes)
		}
	}

	repair, err := Run("churn-repair", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(repair.Figure.Series) != 2 {
		t.Fatalf("churn-repair series = %d, want 2", len(repair.Figure.Series))
	}
	for _, s := range repair.Figure.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q has non-positive repair cost %v", s.Name, s.Y)
			}
		}
	}
	if len(repair.Notes) != 2 {
		t.Fatalf("churn-repair notes = %v", repair.Notes)
	}

	again, err := Run("churn-steady", p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *again.Figure) != fmt.Sprintf("%+v", *steady.Figure) ||
		fmt.Sprintf("%v", again.Notes) != fmt.Sprintf("%v", steady.Notes) {
		t.Fatal("churn-steady is not deterministic across runs")
	}
}

// TestChurnExperimentCancelled: the runner observes ctx between grid
// points and surfaces the cancellation (the engine-level partial-result
// contract is tested in internal/mcast).
func TestChurnExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, "churn-repair", Quick()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFig9bTimeoutCancels: fig9's Metropolis chains poll ctx once per
// sweep, so a medium-profile fig9b — seconds of work uncancelled — returns
// the deadline error well within a second of a 100 ms deadline.
func TestFig9bTimeoutCancels(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, "fig9b", Medium())
	if took := time.Since(start); took > time.Second {
		t.Fatalf("fig9b returned after %v, want within 1s", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRegistryIndependentOfGOMAXPROCS runs every registered experiment at
// the quick profile at GOMAXPROCS 1 and 4 and requires the same figure CSV
// bytes, or the same table rows: worker pools size themselves by GOMAXPROCS,
// and no schedule may change an output. It iterates the registry, so an
// experiment gets the check by being registered.
func TestRegistryIndependentOfGOMAXPROCS(t *testing.T) {
	render := func(t *testing.T, id string, procs int) []byte {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		res, err := Run(id, Quick())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if res.Figure != nil {
			if err := plot.WriteCSV(&buf, res.Figure); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&buf, "%q\n", res.Header)
		for _, row := range res.Rows {
			fmt.Fprintf(&buf, "%q\n", row)
		}
		return buf.Bytes()
	}
	for _, info := range List() {
		t.Run(info.ID, func(t *testing.T) {
			one, four := render(t, info.ID, 1), render(t, info.ID, 4)
			if !bytes.Equal(one, four) {
				t.Fatalf("output differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", one, four)
			}
		})
	}
}

// TestExtSteinerDeadlineCancels: ext-steiner polls ctx before every KMB
// call, and its job pool before every SPT prefill batch and every cell, so
// it returns within 100 ms of a 5 ms deadline. It runs the paper profile,
// about 2.5 s of CPU on a 2 vCPU Xeon, so no host finishes it inside the
// deadline. The topology is built before the clock starts, so the deadline
// lands in the prefill or the cells.
func TestExtSteinerDeadlineCancels(t *testing.T) {
	p := Paper()
	if _, err := topology.GenerateCached("ts1000", 0, p.Scale); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, "ext-steiner", p)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("ext-steiner returned after %v, want within 100ms", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
