package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// worker is one mtsimd process serving POST /shard on a loopback port.
type worker struct {
	cmd  *exec.Cmd
	url  string
	addr string
	done chan error // receives cmd.Wait's result once stderr is drained
	log  *strings.Builder
}

var listenRE = regexp.MustCompile(`listening on (https?)://(\S+)`)

// startWorker starts mtsimd on an ephemeral loopback port with GOMAXPROCS
// pinned to procs and returns once its /readyz answers 200. The worker is
// killed if this process dies first.
func startWorker(ctx context.Context, bin string, procs int) (*worker, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-worker-id", "perfbench")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	w := &worker{cmd: cmd, done: make(chan error, 1), log: &strings.Builder{}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[2]:
				default:
				}
			}
			if w.log.Len() < 1<<16 {
				w.log.WriteString(line + "\n")
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		w.done <- cmd.Wait()
	}()
	select {
	case w.addr = <-addr:
	case err := <-w.done:
		w.done <- err
		return nil, fmt.Errorf("mtsimd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		w.kill()
		return nil, errors.New("mtsimd did not start listening within 30s")
	case <-ctx.Done():
		w.kill()
		return nil, ctx.Err()
	}
	w.url = "http://" + w.addr
	if err := w.awaitReady(ctx); err != nil {
		w.kill()
		return nil, err
	}
	return w, nil
}

// awaitReady polls /readyz until it answers 200.
func (w *worker) awaitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(w.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mtsimd at %s not ready within 30s (last error %v)", w.url, err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procFields returns /proc/<pid>/stat's fields after the command name.
func (w *worker) procFields() []string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", w.cmd.Process.Pid))
	if err != nil {
		return nil
	}
	s := string(b)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	return strings.Fields(s)
}

// cpuSeconds is the worker's user+system CPU time so far.
func (w *worker) cpuSeconds() float64 {
	f := w.procFields()
	if len(f) < 13 {
		return 0
	}
	// Fields 14 and 15 of stat (utime, stime) are 11 and 12 after the name.
	u, _ := strconv.ParseInt(f[11], 10, 64)
	s, _ := strconv.ParseInt(f[12], 10, 64)
	return float64(u+s) / clockTicks
}

// peakRSS is the worker's peak resident set in bytes.
func (w *worker) peakRSS() int64 {
	return peakRSS(strconv.Itoa(w.cmd.Process.Pid))
}

// stop drains the worker with SIGTERM, waits for it to exit, and checks
// that nothing survives: the process is reaped and its port is closed.
func (w *worker) stop() error {
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-w.done:
	case <-time.After(20 * time.Second):
		w.kill()
		return fmt.Errorf("mtsimd at %s ignored SIGTERM for 20s and was killed", w.url)
	}
	if err != nil {
		return fmt.Errorf("mtsimd at %s exited with %v:\n%s", w.url, err, w.log.String())
	}
	if syscall.Kill(w.cmd.Process.Pid, 0) == nil {
		return fmt.Errorf("mtsimd pid %d survived its stop", w.cmd.Process.Pid)
	}
	if c, err := net.DialTimeout("tcp", w.addr, time.Second); err == nil {
		c.Close()
		return fmt.Errorf("mtsimd port %s still accepts connections after stop", w.addr)
	}
	return nil
}

// kill ends the worker without draining and waits for it.
func (w *worker) kill() {
	_ = w.cmd.Process.Kill()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
	}
}
