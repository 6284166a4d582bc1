// Command perfbench is mtreescale's end-to-end benchmark. It runs one
// workload in a fresh process through the entry points mtsim and mtctl use
// (experiment runners, the mcast/steiner/affinity calls, and the cluster
// coordinator posting shards to a real mtsimd worker), checks every result
// against a committed golden digest, and prints the metrics BENCHMARK.json
// names as the last line of standard output:
//
//	perfbench -workload curves -seed 3 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it also
// runs a traced replica of the workload, with spans around every call into
// a layer, and reports the per-layer metrics. README.md maps each layer
// metric to the end-to-end metric and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runTimeout bounds one run: a run must end within 180 s, so a hung layer
// fails the run well before that.
const runTimeout = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: curves|steiner|affinity|shards")
	seed := fs.Int64("seed", 1, "workload seed; it selects one of the input sets the golden digests cover")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 adds a traced replica and reports the per-layer metrics")
	mtsimd := fs.String("mtsimd", ".bench_build/mtsimd", "mtsimd binary the shards workload starts as its worker")
	outDir := fs.String("out", ".bench_build/runs", "directory for the run record and span files")
	writeGolden := fs.String("write-golden", "", "compute every workload's results for every input set, write their digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden != "" {
		if err := writeGoldenFile(context.Background(), *writeGolden, *mtsimd, runtime.NumCPU(), stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadOrder, "|"))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	procs := w.procs(runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	set := inputSet(*seed)
	b := &bench{
		prof:    benchProfile(set),
		golden:  golden.forRun(w.name, set),
		mtsimd:  *mtsimd,
		procs:   procs,
		seconds: *seconds,
	}
	if golden.Profile != profileKey(benchProfile(0)) {
		fmt.Fprintln(stderr, "perfbench: golden.json was written for another profile; regenerate it with -write-golden")
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := b.measure(ctx, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env := runEnv(procs)
	rec := record{Env: env, Workload: w.name, Seed: *seed, InputSet: set, Trace: *trace, Report: res}
	if err := rec.save(*outDir, b.tr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info, _ := json.Marshal(map[string]any{"perfbench": rec.Env, "workload": w.name, "input_set": set,
		"iterations": res.Iterations, "cores_busy": res.CoresBusy})
	fmt.Fprintln(stdout, string(info))
	line, err := json.Marshal(res.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// inputSets is how many distinct input sets the golden digests cover: a
// seed selects set seed mod inputSets, so equal seeds give equal inputs.
const inputSets = 16

func inputSet(seed int64) int {
	s := int(seed % inputSets)
	if s < 0 {
		s += inputSets
	}
	return s
}

// environment records what a result was measured on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func runEnv(procs int) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// record is one run as appended to runs.jsonl.
type record struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	InputSet int         `json:"input_set"`
	Trace    int         `json:"trace"`
	Report   *report     `json:"report"`
}

// save appends the record to <dir>/runs.jsonl and, for a traced run, writes
// its spans to <dir>/spans-<workload>-<run>.jsonl.
func (r record) save(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(filepath.Join(dir, "spans-"+r.Workload+"-"+tr.run+".jsonl"))
}
