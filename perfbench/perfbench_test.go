package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mtreescale"
)

// mtsimdBin is an mtsimd built once for the shards tests.
var mtsimdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	mtsimdBin = filepath.Join(dir, "mtsimd")
	cmd := exec.Command("go", "build", "-o", mtsimdBin, "mtreescale/cmd/mtsimd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building mtsimd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyBench is a bench on the quick profile, so a test iteration takes
// well under a second.
func tinyBench(set int) *bench {
	p := mtreescale.QuickProfile()
	p.Seed = 1999 + int64(set)
	return &bench{prof: p, mtsimd: mtsimdBin, procs: 2, seconds: 0.001}
}

// tinyGolden computes the digests the untraced path produces for one
// workload on the quick profile.
func tinyGolden(t *testing.T, w *workload) map[string]string {
	t.Helper()
	got, err := tinyBench(3).once(context.Background(), w)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	g := map[string]string{}
	for k, v := range got {
		g[k] = digest(v)
	}
	return g
}

func measureTiny(t *testing.T, w *workload, golden map[string]string, traced bool) *report {
	t.Helper()
	b := tinyBench(3)
	b.golden = golden
	rep, err := b.measure(context.Background(), w, traced)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if b.worker != nil {
		t.Fatalf("%s: a worker is still running after the run", w.name)
	}
	return rep
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricsMatchBenchmarkJSON pins perfbench's workload and metric lists
// to BENCHMARK.json, units included.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, workloadOrder)
	}
	check := func(kind string, want []metric, got []struct{ Name, Unit string }) {
		a := map[string]string{}
		for _, m := range want {
			a[m.name] = m.unit
		}
		b := map[string]string{}
		for _, m := range got {
			b[m.Name] = m.Unit
		}
		if len(a) != len(b) {
			t.Errorf("%s: perfbench has %d metrics, BENCHMARK.json %d", kind, len(a), len(b))
		}
		for n, u := range a {
			if b[n] != u {
				t.Errorf("%s %s: perfbench unit %q, BENCHMARK.json %q", kind, n, u, b[n])
			}
		}
	}
	check("end_to_end", endToEndMetrics, bj.EndToEnd)
	check("per_layer", perLayerMetrics, bj.PerLayer)
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced and
// checks that the printed result carries exactly the BENCHMARK.json metrics,
// each with its unit, and that the traced replicas reproduce the untraced
// results byte for byte.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, name := range workloadOrder {
		w := workloads[name]
		golden := tinyGolden(t, w)
		for _, traced := range []bool{false, true} {
			rep := measureTiny(t, w, golden, traced)
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			raw, err := json.Marshal(rep.result())
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			var missing []string
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					missing = append(missing, m.Name)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 || len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d; missing or mis-united: %v", name, traced, len(out.Metrics), len(want), missing)
			}
		}
	}
}

// TestCorruptGoldenFailsRun checks that a result which does not match its
// golden digest is a failed operation: ok_frac drops below 1 and the run
// is reported incorrect.
func TestCorruptGoldenFailsRun(t *testing.T) {
	w := workloads["curves"]
	golden := tinyGolden(t, w)
	rep := measureTiny(t, w, golden, false)
	if rep.Metrics["ok_frac"] != 1 || !rep.Correct {
		t.Fatalf("intact golden: ok_frac=%v correct=%v %v", rep.Metrics["ok_frac"], rep.Correct, rep.Failures)
	}
	bad := map[string]string{}
	for k, v := range golden {
		bad[k] = v
	}
	bad["fig1b.csv"] = strings.Repeat("0", 64)
	rep = measureTiny(t, w, bad, false)
	if rep.Metrics["ok_frac"] >= 1 || rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted golden: ok_frac=%v correct=%v failed=%d", rep.Metrics["ok_frac"], rep.Correct, rep.Failed)
	}
}

// TestTracedRunFailsOnColdEngineCall checks that a traced curve replica
// whose fill does not leave the engine a warm SPT cache fails its results
// instead of counting the engine's own fill as mcast time. A one-byte cache
// budget evicts every tree the replica fills.
func TestTracedRunFailsOnColdEngineCall(t *testing.T) {
	w := workloads["curves"]
	golden := tinyGolden(t, w)
	old := mtreescale.SetSPTCacheLimit(1)
	defer mtreescale.SetSPTCacheLimit(old)
	rep := measureTiny(t, w, golden, true)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("cold engine call passed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	found := false
	for _, f := range rep.Failures {
		found = found || strings.Contains(f, "filled SPTs after the replica's fill")
	}
	if !found {
		t.Fatalf("failures do not name the cold engine call: %v", rep.Failures)
	}
}

// TestInputSetFromSeed checks that equal seeds select equal input sets and
// negative seeds stay in range.
func TestInputSetFromSeed(t *testing.T) {
	for _, s := range []int64{-33, -1, 0, 1, 15, 16, 17, 1 << 40} {
		set := inputSet(s)
		if set < 0 || set >= inputSets || set != inputSet(s+inputSets) {
			t.Errorf("inputSet(%d) = %d", s, set)
		}
	}
}

// TestSelfTime checks self time against a hand-built span tree.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "bench.iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mcast.measure", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "plot.write", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "graph.spt", Start: 15, End: 20},
	}
	self := tr.selfByLayer()
	want := map[string]float64{"bench": 50e-9, "mcast": 25e-9, "plot": 30e-9, "graph": 5e-9}
	for k, v := range want {
		if d := self[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", k, self[k], v)
		}
	}
}
