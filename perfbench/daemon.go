package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one systolicdbd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	base string // http://addr

	mu        sync.Mutex
	recovered string // the daemon's own "recovered ..." boot line
	done      chan struct{}
}

// startDaemon spawns bin with args (which must include -addr
// 127.0.0.1:0) and waits until it announces its listening address. The
// daemon's output goes to logPath.
func startDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		defer logf.Close()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "systolicdbd: listening on http://"); ok {
				addrCh <- strings.TrimSpace(rest)
			}
			if strings.HasPrefix(line, "systolicdbd: recovered ") {
				d.mu.Lock()
				d.recovered = line
				d.mu.Unlock()
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case d.addr = <-addrCh:
		d.base = "http://" + d.addr
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening (see %s)", filepath.Base(bin), logPath)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not listen within 60s (see %s)", filepath.Base(bin), logPath)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// kill stops the daemon with SIGKILL and waits for it and its output
// reader to finish. SIGKILL, not SIGTERM: the benchmark never relies on a
// graceful drain.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// recoveredLine is the daemon's own report of its WAL recovery.
func (d *daemon) recoveredLine() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", d.cmd.Process.Pid)
}

// metrics is one /metrics scrape: every exposition line's value, keyed by
// its full `name{labels}` text.
type metrics map[string]float64

func scrapeMetrics(hc *http.Client, base string) (metrics, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds every series of the named metric, across label sets.
func (m metrics) sum(name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta returns after.sum(name) - before.sum(name).
func delta(before, after metrics, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// reportedCounters are the /metrics series the benchmark prints after
// each run, beside its own span-derived counts.
var reportedCounters = []string{
	"server_queries_total",
	"query_plan_cache_hits_total",
	"query_plan_cache_misses_total",
	"query_plan_cache_invalidations_total",
	"wal_appends_total",
	"wal_append_bytes_total",
	"wal_snapshots_total",
	"cluster_subqueries_total",
	"cluster_shuffle_rows_total",
	"cluster_broadcast_rows_total",
	"cluster_join_strategy_total",
	"cluster_shard_failures_total",
}
