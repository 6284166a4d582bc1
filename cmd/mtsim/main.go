// Command mtsim reproduces the paper's tables and figures.
//
// Usage:
//
//	mtsim -list
//	mtsim -experiment fig1a [-profile quick|medium|paper] [-format ascii|csv|gnuplot|notes]
//	mtsim -experiment all -out results/
//	mtsim -experiment all -parallel 0 -out results/   # use every core
//	mtsim -experiment all -out results/ -resume       # skip checkpointed work
//
// With -out, each experiment writes <id>.csv, <id>.gp (gnuplot) and
// <id>.txt (ASCII + notes) into the directory; without it, the selected
// format prints to stdout. Output files are written atomically (temp file +
// rename), so a crash never leaves a torn file.
//
// -parallel N runs independent experiments concurrently on up to N workers
// (0 = all cores); output and files stay in paper order, and a per-
// experiment wall-clock/allocation summary is appended.
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
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof flag: profiling handlers on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	mtreescale "mtreescale"
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
		report     = fs.Bool("report", false, "run every experiment and emit a Markdown report")
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
		batchbfs   = fs.Bool("batchbfs", true, "resolve source trees through the multi-source BFS batch kernel, up to 64 sources per traversal (byte-identical output; -batchbfs=false disables)")
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
		fmt.Fprintln(out, "mtsim", mtreescale.VersionString())
		return nil
	}
	if *chaosSpec != "" {
		plan, err := mtreescale.ParseChaosPlan(*chaosSpec, *chaosSeed)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		plan.SetLogf(func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) })
		mtreescale.EnableChaos(plan)
		defer mtreescale.DisableChaos()
		fmt.Fprintf(os.Stderr, "mtsim: CHAOS ENABLED seed=%d spec=%q\n", *chaosSeed, *chaosSpec)
	}
	if *list {
		return writeList(out)
	}
	if *describe {
		for _, id := range mtreescale.ExperimentIDs() {
			title, desc, err := mtreescale.ExperimentInfo(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-20s %s\n%20s %s\n", id, title, "", desc)
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
	maxHeapBytes, err := mtreescale.ParseByteSize(*maxHeap)
	if err != nil {
		return fmt.Errorf("-maxheap: %w", err)
	}
	p, err := mtreescale.ProfileByName(*profile)
	if err != nil {
		return err
	}
	p.SPTCache = *sptcache
	p.BatchBFS = *batchbfs
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
	if *report {
		return mtreescale.WriteReportCtx(ctx, out, p)
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
	byFamily := map[string][]mtreescale.ExperimentListing{}
	for _, e := range mtreescale.ListExperiments() {
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
		return mtreescale.ExperimentIDs(), nil
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
	width    int
	height   int
}

// emit writes one result either into the output directory or to out in the
// selected format.
func emit(out io.Writer, res *mtreescale.Result, format, outDir string, w, h int) error {
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
// rerunning them. On failure or cancellation, completed results are still
// written into -out before the error is returned, so interrupted work is
// never thrown away.
func runScheduled(ctx context.Context, out io.Writer, ids []string, p mtreescale.Profile, cfg scheduleConfig) error {
	opts := mtreescale.ScheduleOptions{Parallel: cfg.parallel, MaxHeapBytes: cfg.maxHeap}
	var ck *mtreescale.Checkpointer
	if cfg.outDir != "" {
		key := mtreescale.ProfileKey(p)
		if cfg.resume {
			done, err := mtreescale.LoadCheckpoints(cfg.outDir, key)
			if err != nil {
				return err
			}
			if len(done) > 0 {
				fmt.Fprintf(out, "# resume: replaying %d checkpointed experiments\n", len(done))
			}
			opts.Replay = func(id string) (*mtreescale.Result, bool) {
				res, ok := done[id]
				return res, ok
			}
		}
		var err error
		if ck, err = mtreescale.NewCheckpointer(cfg.outDir, cfg.resume); err != nil {
			return err
		}
		defer ck.Close()
		opts.OnComplete = func(st mtreescale.ExperimentStats) {
			ck.Append(key, st.ID, st.Result)
		}
	}
	start := time.Now()
	stats, err := mtreescale.RunExperimentsCtx(ctx, ids, p, opts)
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
	for _, st := range stats {
		if err := emit(out, st.Result, cfg.format, cfg.outDir, cfg.width, cfg.height); err != nil {
			return err
		}
	}
	if cfg.parallel != 1 {
		printSummary(out, stats, cfg.parallel, p, total)
	}
	if ck != nil {
		return ck.Close()
	}
	return nil
}

// printSummary appends the per-experiment wall-clock/allocation table.
func printSummary(out io.Writer, stats []mtreescale.ExperimentStats, parallel int, p mtreescale.Profile, total time.Duration) {
	// The engine worker count the profile actually gets: Protocol.Workers
	// defaults to GOMAXPROCS and is clamped to the profile's source count.
	engineWorkers := mtreescale.Protocol{NSource: p.NSource}.EffectiveWorkers()
	fmt.Fprintf(out, "# schedule: %d experiments, parallel=%d, engine workers/experiment=%d, profile=%s, total wall %.2fs\n",
		len(stats), parallel, engineWorkers, p.Name, total.Seconds())
	var sumWall time.Duration
	replayed := 0
	for _, st := range stats {
		marker := ""
		if st.Replayed {
			marker = "  (resumed)"
			replayed++
		}
		fmt.Fprintf(out, "# %-20s wall %8.2fs  alloc %8.1f MB%s\n",
			st.ID, st.Wall.Seconds(), float64(st.AllocBytes)/(1<<20), marker)
		sumWall += st.Wall
	}
	if replayed > 0 {
		fmt.Fprintf(out, "# %d of %d experiments replayed from checkpoint\n", replayed, len(stats))
	}
	if len(stats) > 1 && total > 0 {
		fmt.Fprintf(out, "# sum of experiment wall clocks %.2fs (speedup ×%.2f)\n",
			sumWall.Seconds(), sumWall.Seconds()/total.Seconds())
	}
}

func render(out io.Writer, res *mtreescale.Result, format string, w, h int) error {
	switch format {
	case "ascii":
		if res.Figure == nil {
			return renderTable(out, res)
		}
		s, err := mtreescale.RenderASCII(res.Figure, mtreescale.ASCIIOptions{Width: w, Height: h})
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
		return mtreescale.WriteFigureCSV(out, res.Figure)
	case "gnuplot":
		if res.Figure == nil {
			return fmt.Errorf("%s is a table; use -format ascii or csv", res.ID)
		}
		return mtreescale.WriteFigureGnuplot(out, res.Figure)
	case "notes":
		renderNotes(out, res)
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func renderNotes(out io.Writer, res *mtreescale.Result) {
	if len(res.Notes) == 0 {
		return
	}
	fmt.Fprintf(out, "notes [%s]:\n", res.ID)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  - %s\n", n)
	}
}

func renderTable(out io.Writer, res *mtreescale.Result) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", strings.Join(res.Header, "\t"))
	for _, row := range res.Rows {
		fmt.Fprintf(tw, "%s\n", strings.Join(row, "\t"))
	}
	return tw.Flush()
}

func renderTableCSV(out io.Writer, res *mtreescale.Result) error {
	fmt.Fprintln(out, strings.Join(res.Header, ","))
	for _, row := range res.Rows {
		fmt.Fprintln(out, strings.Join(row, ","))
	}
	return nil
}

// writeAll renders one result into <dir>/<id>.{txt,csv,gp}. Every file is
// published atomically: a crash mid-run leaves either the previous contents
// or the complete new contents, never a torn file.
func writeAll(dir string, res *mtreescale.Result, w, h int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var txt strings.Builder
	if res.Figure != nil {
		s, err := mtreescale.RenderASCII(res.Figure, mtreescale.ASCIIOptions{Width: w, Height: h})
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
	if err := mtreescale.WriteFileAtomic(filepath.Join(dir, res.ID+".txt"), []byte(txt.String()), 0o644); err != nil {
		return err
	}

	var csvB strings.Builder
	if res.Figure != nil {
		if err := mtreescale.WriteFigureCSV(&csvB, res.Figure); err != nil {
			return err
		}
	} else {
		if err := renderTableCSV(&csvB, res); err != nil {
			return err
		}
	}
	if err := mtreescale.WriteFileAtomic(filepath.Join(dir, res.ID+".csv"), []byte(csvB.String()), 0o644); err != nil {
		return err
	}

	if res.Figure != nil {
		var gp strings.Builder
		if err := mtreescale.WriteFigureGnuplot(&gp, res.Figure); err != nil {
			return err
		}
		if err := mtreescale.WriteFileAtomic(filepath.Join(dir, res.ID+".gp"), []byte(gp.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
