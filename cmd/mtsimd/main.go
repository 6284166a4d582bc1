// Command mtsimd serves the paper's experiments over HTTP: L(m) curves,
// reachability tables and scaling summaries computed on demand, cached in
// memory, and journaled to the same checkpoint format mtsim writes — so a
// daemon pointed at an mtsim -out directory answers instantly from the
// precomputed results, and a restarted daemon replays its own journal
// byte-identically.
//
// Robustness is the point of the binary, not an afterthought:
//
//   - a bounded admission queue sheds excess /curve load with 429 +
//     Retry-After instead of queueing unboundedly;
//   - every request runs under a deadline (server default, client-settable
//     via ?deadline=, capped by a ceiling) that propagates through the
//     measurement engines' contexts;
//   - a panicking experiment answers 500 with an opaque incident id, is
//     quarantined with exponential backoff, and never takes the process
//     down;
//   - /healthz and /readyz stay responsive however saturated the pool is;
//   - SIGTERM triggers a graceful drain: stop admitting, finish in-flight
//     work within the drain budget (then cancel it), flush the checkpoint
//     journal, exit;
//   - when the pool is saturated or an experiment quarantined, cached
//     results keep being served, marked with an X-Mtsimd-Degraded header.
//
// Endpoints:
//
//	GET  /healthz             liveness + load counters (never blocks)
//	GET  /readyz              503 while draining, 200 otherwise
//	GET  /experiments         registry listing, profiles, quarantine state
//	GET  /curve?experiment=fig3a&profile=quick[&deadline=10s]
//	POST /shard               execute one cluster shard spec (see mtctl),
//	                          returning the block's partial statistics
//
// Every response carries an X-Mtsimd-Worker header naming the worker
// (-worker-id, default hostname), so mtctl runs can be attributed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof flag: profiling handlers on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	mtreescale "mtreescale"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runDaemon(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mtsimd:", err)
		os.Exit(1)
	}
}

// runDaemon parses flags, builds the server and serves until ctx is
// cancelled (SIGINT/SIGTERM in production), then drains gracefully.
func runDaemon(ctx context.Context, args []string, logw io.Writer) error {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("mtsimd", flag.ContinueOnError)
	fs.SetOutput(logw)
	fs.StringVar(&cfg.addr, "addr", cfg.addr, "listen address")
	fs.StringVar(&cfg.workerID, "worker-id", "", "worker name stamped in the X-Mtsimd-Worker response header (default: hostname)")
	version := fs.Bool("version", false, "print build information and exit")
	fs.StringVar(&cfg.dataDir, "data", "", "checkpoint directory: fresh results are journaled here and reloaded on restart (accepts an mtsim -out directory)")
	fs.IntVar(&cfg.maxActive, "max-active", cfg.maxActive, "concurrent experiment computations")
	fs.IntVar(&cfg.maxWait, "max-wait", cfg.maxWait, "requests allowed to queue for a compute slot before shedding with 429")
	fs.DurationVar(&cfg.deadline, "deadline", cfg.deadline, "default per-request compute budget")
	fs.DurationVar(&cfg.deadlineCeiling, "deadline-ceiling", cfg.deadlineCeiling, "maximum compute budget a client may request via ?deadline=")
	fs.DurationVar(&cfg.drainBudget, "drain", cfg.drainBudget, "graceful-drain budget after SIGTERM before in-flight work is cancelled")
	fs.DurationVar(&cfg.shedRetryAfter, "retry-after", cfg.shedRetryAfter, "Retry-After hint attached to shed (429) responses")
	fs.DurationVar(&cfg.quarBase, "quarantine-base", cfg.quarBase, "quarantine backoff after an experiment's first dangerous failure (doubles per strike)")
	fs.DurationVar(&cfg.quarMax, "quarantine-max", cfg.quarMax, "quarantine backoff cap")
	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", cfg.readHeaderTimeout, "slow-loris defense: close connections that have not finished sending headers")
	fs.IntVar(&cfg.churnCap, "churn-cap", 0, "degree cap for the churn experiments' bounded variant (0 = profile default, else ≥ 2)")
	fs.StringVar(&cfg.churnSession, "churn-session", "", "session-length distribution for the churn experiments: exp|pareto|fixed (empty = profile default)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on a separate listener at this address (e.g. localhost:6060); empty disables")
	maxHeap := fs.String("maxheap", "", "per-experiment soft heap cap, e.g. 512m (empty = unlimited)")
	fs.StringVar(&cfg.shardToken, "shard-token", "", "require this bearer token on POST /shard (empty = open); coordinators pass it via mtctl -token")
	fs.StringVar(&cfg.tlsCert, "tls-cert", "", "serve TLS with this PEM certificate (requires -tls-key); coordinators connect with mtctl -tls-ca")
	fs.StringVar(&cfg.tlsKey, "tls-key", "", "PEM private key for -tls-cert")
	chaosSpec := fs.String("chaos", "", "fault-injection schedule, e.g. 'serve.handler=error@0.1;shard.payload=bitflip#1' (testing only; see internal/chaos)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the -chaos schedule; the same seed reproduces the identical fault sequence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(logw, "mtsimd", mtreescale.VersionString())
		return nil
	}
	hb, err := mtreescale.ParseByteSize(*maxHeap)
	if err != nil {
		return fmt.Errorf("-maxheap: %w", err)
	}
	cfg.maxHeap = hb
	if (cfg.tlsCert == "") != (cfg.tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key must be given together")
	}

	logf := func(format string, args ...any) { fmt.Fprintf(logw, format+"\n", args...) }
	if *chaosSpec != "" {
		plan, err := mtreescale.ParseChaosPlan(*chaosSpec, *chaosSeed)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		plan.SetLogf(logf)
		mtreescale.EnableChaos(plan)
		defer mtreescale.DisableChaos()
		logf("mtsimd: CHAOS ENABLED seed=%d spec=%q", *chaosSeed, *chaosSpec)
	}
	s, err := newServer(cfg, logf)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// Profiling stays off the serving listener: net/http/pprof registers
		// on the default mux, which the service handler never exposes.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer pln.Close()
		logf("mtsimd: pprof on http://%s", pln.Addr())
		go func() { _ = http.Serve(pln, nil) }()
	}
	defer s.close()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	scheme := "http"
	if cfg.tlsCert != "" {
		scheme = "https"
	}
	logf("mtsimd: listening on %s://%s (%d experiments, profiles paper|medium|quick)",
		scheme, ln.Addr(), len(mtreescale.ListExperiments()))
	return serveDaemon(ctx, s, ln)
}

// serveDaemon serves on ln until ctx is cancelled, then runs the drain
// sequence: refuse new /curve work, wait for in-flight requests up to the
// drain budget, cancel stragglers, close the listener, flush the journal.
// It owns ln and s's shutdown; tests drive it directly with a cancellable
// ctx in place of a signal.
func serveDaemon(ctx context.Context, s *server, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: s.cfg.readHeaderTimeout,
	}
	errCh := make(chan error, 1)
	if s.cfg.tlsCert != "" {
		go func() { errCh <- hs.ServeTLS(ln, s.cfg.tlsCert, s.cfg.tlsKey) }()
	} else {
		go func() { errCh <- hs.Serve(ln) }()
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}

	s.logf("mtsimd: shutdown requested; draining %d in-flight requests (budget %s)",
		s.drain.Inflight(), s.cfg.drainBudget)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.drainBudget)
	defer cancel()
	if err := s.drain.Drain(dctx); err != nil {
		s.logf("mtsimd: drain budget expired with %d in flight; cancelling them", s.drain.Inflight())
		s.cancelBase()
	}

	// In-flight handlers have finished (or are unwinding after the
	// cancellation); give the connections a short grace to flush, then
	// force-close whatever remains.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		_ = hs.Close()
	}
	<-errCh

	if err := s.close(); err != nil {
		return fmt.Errorf("flushing checkpoint journal: %w", err)
	}
	s.logf("mtsimd: drained and stopped")
	return nil
}
