// Command mtsim reproduces the paper's tables and figures.
//
// Usage:
//
//	mtsim -list
//	mtsim -experiment fig1a [-profile quick|medium|paper] [-format ascii|csv|gnuplot|notes]
//	mtsim -experiment all -out results/
//	mtsim -experiment all -parallel 0 -out results/   # use every core
//	mtsim -experiment all -out results/ -resume       # skip checkpointed work
//	mtsim -experiment all -out results/ -report       # and results/REPORT.md
//	mtsim -report                                     # run all, print the report
//
// With -out, each experiment writes <id>.csv, <id>.gp (gnuplot) and
// <id>.txt (ASCII + notes) into the directory, and -report renders the
// same results into REPORT.md there; without it, the selected format
// prints to stdout. Output files are written atomically (temp file +
// rename), so a crash never leaves a torn file.
//
// -parallel N runs independent experiments concurrently on up to N workers
// (0 = all cores); output and files stay in paper order. A per-experiment
// wall-clock/allocation summary and the process's peak RSS are appended at
// any -parallel (to stderr when stdout is a CSV stream); allocation is
// exact per experiment only when experiments ran one at a time.
//
// Robustness controls:
//
//   - SIGINT/SIGTERM cancel the run promptly at grid-point granularity;
//     completed experiments are kept (and written when -out is set).
//   - -timeout bounds the whole run's wall clock the same way.
//   - -maxheap N (accepts k/m/g suffixes) softly aborts any experiment
//     that pushes the heap past N bytes, without killing its siblings.
//   - With -out, every completed experiment is journaled to
//     <out>/checkpoint.jsonl (fsynced JSON, keyed by profile); -resume
//     replays the journal and reruns only what is missing. Experiments are
//     deterministic per profile, so a resumed run's outputs are
//     byte-identical to an uninterrupted one.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof flag: profiling handlers on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"mtreescale/internal/atomicio"
	"mtreescale/internal/buildinfo"
	"mtreescale/internal/chaos"
	"mtreescale/internal/experiments"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/valid"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mtsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	fs := flag.NewFlagSet("mtsim", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiment ids with one-line titles and exit")
		describe   = fs.Bool("describe", false, "list experiment ids with titles and descriptions")
		report     = fs.Bool("report", false, "emit a Markdown report: alone, run every experiment and print it; with -experiment and -out, write <out>/REPORT.md from that run's results")
		experiment = fs.String("experiment", "", "experiment id (e.g. fig1a), comma-separated ids, or 'all'")
		profile    = fs.String("profile", "medium", "effort profile: quick|medium|paper")
		format     = fs.String("format", "ascii", "stdout format: ascii|csv|gnuplot|notes")
		outDir     = fs.String("out", "", "write <id>.csv/.gp/.txt into this directory")
		width      = fs.Int("width", 72, "ASCII plot width")
		height     = fs.Int("height", 24, "ASCII plot height")
		parallel   = fs.Int("parallel", 1, "run independent experiments on up to N workers (0 = all cores); output stays in paper order")
		churnCap   = fs.Int("churn-cap", 0, "degree cap for the churn experiments' bounded variant (0 = profile default, else ≥ 2)")
		churnSess  = fs.String("churn-session", "", "session-length distribution for the churn experiments: exp|pareto|fixed (empty = profile default)")
		sptcache   = fs.Bool("sptcache", true, "reuse shortest-path trees across experiments via the process-wide SPT cache (byte-identical output; -sptcache=false disables)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		timeout    = fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = no limit)")
		maxHeap    = fs.String("maxheap", "", "soft per-experiment heap limit, e.g. 512m or 4g (empty = no limit); an experiment exceeding it is aborted, its siblings continue")
		resume     = fs.Bool("resume", false, "with -out: skip experiments already journaled in <out>/checkpoint.jsonl for this profile")
		chaosSpec  = fs.String("chaos", "", "fault-injection schedule, e.g. 'journal.write=short@0.2;atomicio.commit=error#1' (testing only; see internal/chaos)")
		chaosSeed  = fs.Int64("chaos-seed", 1, "seed for the -chaos schedule; the same seed reproduces the identical fault sequence")
		version    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "mtsim", buildinfo.String())
		return nil
	}
	if *chaosSpec != "" {
		plan, err := chaos.Parse(*chaosSpec, *chaosSeed)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		plan.SetLogf(func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) })
		chaos.Enable(plan)
		defer chaos.Disable()
		fmt.Fprintf(os.Stderr, "mtsim: CHAOS ENABLED seed=%d spec=%q\n", *chaosSeed, *chaosSpec)
	}
	if *list {
		return writeList(out)
	}
	if *describe {
		for _, e := range experiments.List() {
			fmt.Fprintf(out, "%-20s %s\n%20s %s\n", e.ID, e.Title, "", e.Description)
		}
		return nil
	}
	if *experiment == "" && !*report {
		fs.Usage()
		return fmt.Errorf("missing -experiment (or -list/-describe/-report)")
	}
	if *resume && *outDir == "" {
		return fmt.Errorf("-resume requires -out (the checkpoint journal lives in the output directory)")
	}
	maxHeapBytes, err := valid.ParseByteSize(*maxHeap)
	if err != nil {
		return fmt.Errorf("-maxheap: %w", err)
	}
	p, err := experiments.ProfileByName(*profile)
	if err != nil {
		return err
	}
	p.SPTCache = *sptcache
	if *churnCap != 0 {
		p.ChurnCap = *churnCap
	}
	if *churnSess != "" {
		p.ChurnSession = *churnSess
	}
	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on the default mux; serve it
		// on a side listener for the lifetime of the run.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mtsim: pprof server:", err)
			}
		}()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *report && *experiment == "" {
		return experiments.ReportCtx(ctx, out, p, time.Now())
	}
	if *report && *outDir == "" {
		return fmt.Errorf("-report with -experiment requires -out (the report is written to <out>/REPORT.md)")
	}
	ids, err := expandIDs(*experiment)
	if err != nil {
		return err
	}
	return runScheduled(ctx, out, ids, p, scheduleConfig{
		parallel: *parallel,
		maxHeap:  maxHeapBytes,
		resume:   *resume,
		format:   *format,
		outDir:   *outDir,
		report:   *report,
		width:    *width,
		height:   *height,
	})
}

// writeList renders -list: experiments grouped by family, each group
// introduced by a "[family]" header line, ids and one-line titles aligned
// in a tab table. Families appear in first-encounter (paper) order.
func writeList(out io.Writer) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	var families []string
	byFamily := map[string][]experiments.Info{}
	for _, e := range experiments.List() {
		if _, ok := byFamily[e.Family]; !ok {
			families = append(families, e.Family)
		}
		byFamily[e.Family] = append(byFamily[e.Family], e)
	}
	for i, fam := range families {
		if i > 0 {
			fmt.Fprintln(tw)
		}
		fmt.Fprintf(tw, "[%s]\n", fam)
		for _, e := range byFamily[fam] {
			fmt.Fprintf(tw, "%s\t%s\n", e.ID, oneLine(e.Title))
		}
	}
	return tw.Flush()
}

// oneLine collapses a multi-line description to its first line for -list.
func oneLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// expandIDs resolves the -experiment argument: "all", one id, or a
// comma-separated list.
func expandIDs(arg string) ([]string, error) {
	if arg == "all" {
		return experiments.IDs(), nil
	}
	var ids []string
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if id == "all" {
			return nil, fmt.Errorf("'all' cannot be combined with other experiment ids")
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty -experiment list")
	}
	return ids, nil
}

type scheduleConfig struct {
	parallel int
	maxHeap  uint64
	resume   bool
	format   string
	outDir   string
	report   bool // also write <outDir>/REPORT.md
	width    int
	height   int
}

// emit writes one result either into the output directory or to out in the
// selected format.
func emit(out io.Writer, res *experiments.Result, format, outDir string, w, h int) error {
	if outDir != "" {
		if err := writeAll(outDir, res, w, h); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%s)\n", res.ID, res.Title)
		return nil
	}
	return render(out, res, format, w, h)
}

// runScheduled executes the experiments on the scheduler and emits results
// in paper order. With -out it journals each completed experiment to the
// checkpoint file and, under -resume, replays journaled results instead of
// rerunning them; with -report it also renders them into REPORT.md. On
// failure or cancellation, completed results are still written into -out
// before the error is returned, so interrupted work is never thrown away.
func runScheduled(ctx context.Context, out io.Writer, ids []string, p experiments.Profile, cfg scheduleConfig) error {
	opts := experiments.ScheduleOptions{Parallel: cfg.parallel, MaxHeapBytes: cfg.maxHeap}
	var ck *experiments.Checkpointer
	if cfg.outDir != "" {
		key := experiments.ProfileKey(p)
		if cfg.resume {
			done, err := experiments.LoadCheckpoints(cfg.outDir, key)
			if err != nil {
				return err
			}
			if len(done) > 0 {
				fmt.Fprintf(out, "# resume: replaying %d checkpointed experiments\n", len(done))
			}
			opts.Replay = func(id string) (*experiments.Result, bool) {
				res, ok := done[id]
				return res, ok
			}
		}
		var err error
		if ck, err = experiments.NewCheckpointer(cfg.outDir, cfg.resume); err != nil {
			return err
		}
		defer ck.Close()
		opts.OnComplete = func(st experiments.RunStats) {
			ck.Append(key, st.ID, st.Result)
		}
	}
	start := time.Now()
	stats, err := experiments.RunManyCtx(ctx, ids, p, opts)
	total := time.Since(start)
	if err != nil {
		// Salvage completed work: with -out, finished experiments are
		// written (and were checkpointed) even though the run failed.
		if cfg.outDir != "" {
			for _, st := range stats {
				if st.Err == nil && st.Result != nil {
					if werr := emit(out, st.Result, cfg.format, cfg.outDir, cfg.width, cfg.height); werr != nil {
						return fmt.Errorf("%w (and writing salvaged results: %v)", err, werr)
					}
				}
			}
		}
		return err
	}
	results := make([]*experiments.Result, len(stats))
	for i, st := range stats {
		if err := emit(out, st.Result, cfg.format, cfg.outDir, cfg.width, cfg.height); err != nil {
			return err
		}
		results[i] = st.Result
	}
	if cfg.report {
		var md bytes.Buffer
		experiments.RenderReport(&md, p, results, time.Now())
		if err := atomicio.WriteFile(filepath.Join(cfg.outDir, "REPORT.md"), md.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote REPORT.md")
	}
	// The table's "#" lines would break a CSV stream on stdout, so it goes
	// to stderr there; any other stdout is files written or is for a human.
	sum := out
	if cfg.outDir == "" && cfg.format == "csv" {
		sum = os.Stderr
	}
	printSummary(sum, stats, cfg.parallel, p, total)
	if ck != nil {
		return ck.Close()
	}
	return nil
}

// printSummary appends the per-experiment wall-clock/allocation table and
// the process's peak RSS. An experiment's allocation is the process-wide
// TotalAlloc delta while it ran: exact when experiments ran one at a time,
// and counting its neighbours' allocations when they overlapped, so the
// column is labelled by which it is.
func printSummary(out io.Writer, stats []experiments.RunStats, parallel int, p experiments.Profile, total time.Duration) {
	// The engine worker count the profile actually gets: Protocol.Workers
	// defaults to GOMAXPROCS and is clamped to the profile's source count.
	engineWorkers := mcast.Protocol{NSource: p.NSource}.EffectiveWorkers()
	fmt.Fprintf(out, "# schedule: %d experiments, parallel=%d, engine workers/experiment=%d, profile=%s, total wall %.2fs\n",
		len(stats), parallel, engineWorkers, p.Name, total.Seconds())
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // the scheduler's default
	}
	alloc := "alloc (exact)"
	if min(workers, len(stats)) > 1 {
		alloc = "alloc (process-wide)"
		fmt.Fprintln(out, "# experiments overlapped: each alloc counts whatever ran beside it; -parallel 1 gives exact figures")
	}
	var sumWall time.Duration
	replayed := 0
	for _, st := range stats {
		marker := ""
		if st.Replayed {
			marker = "  (resumed)"
			replayed++
		}
		fmt.Fprintf(out, "# %-20s wall %8.2fs  %-20s %8.1f MB%s\n",
			st.ID, st.Wall.Seconds(), alloc, float64(st.AllocBytes)/(1<<20), marker)
		sumWall += st.Wall
	}
	if replayed > 0 {
		fmt.Fprintf(out, "# %d of %d experiments replayed from checkpoint\n", replayed, len(stats))
	}
	if len(stats) > 1 && total > 0 {
		fmt.Fprintf(out, "# sum of experiment wall clocks %.2fs (speedup ×%.2f)\n",
			sumWall.Seconds(), sumWall.Seconds()/total.Seconds())
	}
	if rss, ok := peakRSS(); ok {
		fmt.Fprintf(out, "# peak RSS %.1f MB\n", float64(rss)/(1<<20))
	} else {
		fmt.Fprintln(out, "# peak RSS n/a")
	}
}

func render(out io.Writer, res *experiments.Result, format string, w, h int) error {
	switch format {
	case "ascii":
		if res.Figure == nil {
			return renderTable(out, res)
		}
		s, err := plot.RenderASCII(res.Figure, plot.ASCIIOptions{Width: w, Height: h})
		if err != nil {
			return err
		}
		fmt.Fprint(out, s)
		renderNotes(out, res)
		return nil
	case "csv":
		if res.Figure == nil {
			return renderTableCSV(out, res)
		}
		return plot.WriteCSV(out, res.Figure)
	case "gnuplot":
		if res.Figure == nil {
			return fmt.Errorf("%s is a table; use -format ascii or csv", res.ID)
		}
		return plot.WriteGnuplot(out, res.Figure)
	case "notes":
		renderNotes(out, res)
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func renderNotes(out io.Writer, res *experiments.Result) {
	if len(res.Notes) == 0 {
		return
	}
	fmt.Fprintf(out, "notes [%s]:\n", res.ID)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  - %s\n", n)
	}
}

func renderTable(out io.Writer, res *experiments.Result) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", strings.Join(res.Header, "\t"))
	for _, row := range res.Rows {
		fmt.Fprintf(tw, "%s\n", strings.Join(row, "\t"))
	}
	return tw.Flush()
}

func renderTableCSV(out io.Writer, res *experiments.Result) error {
	fmt.Fprintln(out, strings.Join(res.Header, ","))
	for _, row := range res.Rows {
		fmt.Fprintln(out, strings.Join(row, ","))
	}
	return nil
}

// writeAll renders one result into <dir>/<id>.{txt,csv,gp}. Every file is
// published atomically: a crash mid-run leaves either the previous contents
// or the complete new contents, never a torn file.
func writeAll(dir string, res *experiments.Result, w, h int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var txt strings.Builder
	if res.Figure != nil {
		s, err := plot.RenderASCII(res.Figure, plot.ASCIIOptions{Width: w, Height: h})
		if err != nil {
			return err
		}
		txt.WriteString(s)
	} else {
		if err := renderTable(&txt, res); err != nil {
			return err
		}
	}
	renderNotes(&txt, res)
	if err := atomicio.WriteFile(filepath.Join(dir, res.ID+".txt"), []byte(txt.String()), 0o644); err != nil {
		return err
	}

	var csvB strings.Builder
	if res.Figure != nil {
		if err := plot.WriteCSV(&csvB, res.Figure); err != nil {
			return err
		}
	} else {
		if err := renderTableCSV(&csvB, res); err != nil {
			return err
		}
	}
	if err := atomicio.WriteFile(filepath.Join(dir, res.ID+".csv"), []byte(csvB.String()), 0o644); err != nil {
		return err
	}

	if res.Figure != nil {
		var gp strings.Builder
		if err := plot.WriteGnuplot(&gp, res.Figure); err != nil {
			return err
		}
		if err := atomicio.WriteFile(filepath.Join(dir, res.ID+".gp"), []byte(gp.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
