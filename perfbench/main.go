// Command perfbench is the repository's end-to-end benchmark. It starts
// systolicdbd daemons on loopback, drives one workload from two
// closed-loop client connections, checks every answer against an
// independent oracle, and prints every metric with its unit. With
// -trace 1 it instead hosts the same packages in-process and reports
// per-layer numbers from spans recorded around each layer's calls.
//
// Run it through run.sh from the repository root, which builds the
// daemon and this program first:
//
//	bash perfbench/run.sh --workload small-rw --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupsBefore and setupsAfter are how many times a run sets its
// daemons up before and after the measured window; setup_s is the median
// of all of them. Spreading them over the run keeps one busy moment of
// the machine from setting the value.
const setupsBefore, setupsAfter = 6, 5

// readOnlyWriteShare is the part of a read-only workload's run spent in
// its trailing write phase.
const readOnlyWriteShare = 0.3

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "0: daemons, end-to-end metrics; 1: in-process traced run, per-layer metrics")
		daemonB = flag.String("daemon", "", "path to the systolicdbd binary")
		workDir = flag.String("work", "", "directory for daemon logs, data and spans")
		specF   = flag.String("benchmark", "BENCHMARK.json", "the benchmark definition listing the metrics")
	)
	flag.Parse()
	// Fewer collections in the load generator leave more of the shared
	// CPUs to the daemons it measures.
	debug.SetGCPercent(400)
	if *daemonB == "" || *workDir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -work, -seconds >= 1 and -trace 0|1 (run through run.sh)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *specF, *daemonB, *workDir)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, d time.Duration, traced bool, specPath, daemonBin, workDir string) (*result, error) {
	bs, err := readSpec(specPath)
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if w.topo.backend.String() == "pulse" {
		if err := checkAgainstPulse(w); err != nil {
			return nil, err
		}
		fmt.Printf("oracle cross-checked against the pulse arrays on all %d plans\n", len(w.queries))
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-seed%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if traced {
		return runTracedResult(ctx, bs, w, seed, d, dir, filepath.Join(workDir, "spans-"+name+".json"))
	}
	return runDaemons(ctx, bs, w, seed, d, daemonBin, dir)
}

// metricSpec is one metric as BENCHMARK.json names it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json that lists the metrics.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// selectMetrics reports exactly the metrics the spec lists, with its units. A
// value the run produced that the spec does not list is an error; a
// listed metric the run did not produce is an error too, unless offPath
// allows it to read 0 (a layer not on this workload's path).
func selectMetrics(specs []metricSpec, values map[string]float64, offPath bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok && !offPath {
			return nil, fmt.Errorf("BENCHMARK.json lists %s, which this run does not produce", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func runTracedResult(ctx context.Context, bs *benchSpec, w *spec, seed int64, d time.Duration, dir, spansPath string) (*result, error) {
	tres, err := runTraced(ctx, w, seed, d, dir, spansPath)
	if err != nil {
		return nil, err
	}
	for _, l := range tres.report {
		fmt.Println(l)
	}
	for _, e := range tres.errs {
		fmt.Println("FAILED:", e)
	}
	ms, err := selectMetrics(bs.PerLayer, tres.layers, true)
	if err != nil {
		return nil, err
	}
	for _, m := range bs.PerLayer {
		fmt.Printf("%-34s %14.4f %s\n", m.Name, ms[m.Name].Value, m.Unit)
	}
	return &result{Correct: tres.failed == 0, Attempted: tres.attempted, Failed: tres.failed, Metrics: ms}, nil
}

// fleet is a workload's running daemons: front is the one clients
// talk to.
type fleet struct {
	front *daemon
	all   []*daemon
}

func (c *fleet) kill() {
	for _, d := range c.all {
		d.kill()
	}
	c.all = nil
}

// startCluster spawns the workload's daemons, shards first.
func startCluster(ctx context.Context, w *spec, bin, dir, dataDir string) (*fleet, error) {
	common := []string{"-addr", "127.0.0.1:0", "-backend", w.topo.backend.String()}
	c := &fleet{}
	start := func(logName string, extra ...string) (*daemon, error) {
		d, err := startDaemon(ctx, bin, append(append([]string(nil), common...), extra...), filepath.Join(dir, logName))
		if err != nil {
			c.kill()
			return nil, err
		}
		c.all = append(c.all, d)
		return d, nil
	}
	switch {
	case w.topo.durable:
		d, err := start("daemon.log", "-data-dir", dataDir, "-snapshot-every", "128")
		if err != nil {
			return nil, err
		}
		c.front = d
	case w.topo.shards > 0:
		var addrs []string
		for i := 0; i < w.topo.shards; i++ {
			d, err := start(fmt.Sprintf("shard%d.log", i))
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, d.addr)
		}
		d, err := start("coordinator.log", "-coordinator", "-shards", strings.Join(addrs, ","),
			"-broadcast-limit", fmt.Sprint(w.topo.bcastLimit))
		if err != nil {
			return nil, err
		}
		c.front = d
	default:
		d, err := start("daemon.log")
		if err != nil {
			return nil, err
		}
		c.front = d
	}
	return c, nil
}

// runDaemons is the end-to-end run: set up, measure the closed loop,
// read the daemons' counters and memory, and on small-rw check
// durability across a SIGKILL.
func runDaemons(ctx context.Context, bs *benchSpec, w *spec, seed int64, d time.Duration, bin, dir string) (*result, error) {
	dataDir := filepath.Join(dir, "data")
	var setupS []float64
	var cl *fleet
	defer func() {
		if cl != nil {
			cl.kill()
		}
	}()
	var st *loadState
	// setUp replaces the running daemons with fresh ones on an empty data
	// directory and times them until the first query is answered.
	setUp := func() error {
		if cl != nil {
			cl.kill()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
		st = newLoadState(w)
		t0 := time.Now()
		var err error
		if cl, err = startCluster(ctx, w, bin, dir, dataDir); err != nil {
			return err
		}
		if err := upload(cl.front.base, seed, st); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < setupsBefore; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	if err := warmUp(cl.front.base, seed, st); err != nil {
		return nil, err
	}
	clients := []*client{newClient(0, cl.front.base, seed, st, nil), newClient(1, cl.front.base, seed, st, nil)}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	before := map[*daemon]metrics{}
	for _, dm := range cl.all {
		m, err := scrapeMetrics(hc, dm.base)
		if err != nil {
			return nil, err
		}
		before[dm] = m
	}

	// The workload's mix runs for the whole window, or for the part before
	// a read-only workload's write phase; ops_s is its throughput.
	mixD := d
	if w.writeFrac == 0 {
		mixD = time.Duration((1 - readOnlyWriteShare) * float64(d))
	}
	elapsed := closedLoop(clients, mixD, (*client).step)
	completed := 0
	for _, c := range clients {
		for _, s := range c.samples {
			if s.ok {
				completed++
			}
		}
	}
	opsPerS := float64(completed) / elapsed.Seconds()
	if mixD < d {
		elapsed += closedLoop(clients, d-mixD, (*client).reload)
	}

	var samples []sample
	var errs []string
	for _, c := range clients {
		samples = append(samples, c.samples...)
		errs = append(errs, c.errs...)
	}
	qs, ws := summarize(samples, false), summarize(samples, true)
	attempted, failed := len(samples), qs.failed+ws.failed

	var rssMB float64
	for i, dm := range cl.all {
		m, err := scrapeMetrics(hc, dm.base)
		if err != nil {
			return nil, err
		}
		for _, l := range counterLines(fmt.Sprintf("daemon %d", i), before[dm], m) {
			fmt.Println(l)
		}
		mb, err := dm.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rssMB += mb
	}

	fmt.Printf("workload %s seed %d: 2 closed-loop connections, %.2fs measured\n", w.name, seed, elapsed.Seconds())
	fmt.Printf("queries: %v\n", qs)
	if len(w.queries) <= 16 {
		for _, l := range perPlan(w, samples) {
			fmt.Println(l)
		}
	}
	fmt.Printf("writes:  %v\n", ws)
	fmt.Printf("failed_frac: %.6f (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)

	if w.topo.durable {
		attempted++
		if err := durabilityCheck(ctx, w, cl, st, bin, dir, dataDir); err != nil {
			failed++
			errs = append(errs, err.Error())
		}
	}
	for i := 0; i < setupsAfter; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	fmt.Printf("setup: %d before and %d after the measured window, %v s\n", setupsBefore, setupsAfter, setupS)
	for _, e := range errs {
		fmt.Println("FAILED:", e)
	}
	ms := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return math.MaxFloat32 // a failure sorted into the percentile
		}
		return v
	}
	metrics, err := selectMetrics(bs.EndToEnd, map[string]float64{
		"query_p50_ms": ms(qs.p50),
		"query_p99_ms": ms(qs.p99),
		"write_p50_ms": ms(ws.p50),
		"ops_s":        opsPerS,
		"setup_s":      medianOf(setupS),
		"peak_rss_mb":  rssMB,
	}, false)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// durabilityCheck kills the durable daemon with SIGKILL, restarts it on
// the same data directory and requires every relation at its last
// acknowledged version.
func durabilityCheck(ctx context.Context, w *spec, cl *fleet, st *loadState, bin, dir, dataDir string) error {
	cl.kill()
	t0 := time.Now()
	restarted, err := startCluster(ctx, w, bin, dir, dataDir)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	*cl = *restarted
	d := cl.front
	fmt.Printf("restart after SIGKILL: listening after %.1f ms; %s\n", float64(time.Since(t0))/1e6, d.recoveredLine())
	got := map[string]string{}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, t := range w.setup {
		resp, err := hc.Get(d.base + "/relations/" + t.name)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusOK {
			got[t.name] = string(body)
		}
	}
	if err := st.checkDurable(got); err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	fmt.Printf("durability: all %d relations at their last acknowledged version\n", len(w.setup))
	return nil
}
