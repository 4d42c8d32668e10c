package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"systolicdb/internal/bitset"
	"systolicdb/internal/cluster"
	"systolicdb/internal/dedup"
	"systolicdb/internal/diskchaos"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/server"
	"systolicdb/internal/wal"
)

// host runs a workload's servers inside the benchmark process, configured
// as the daemons are, each behind a traced handler on a loopback port.
type host struct {
	front   *server.Server // the server clients talk to
	base    string
	servers []*server.Server
	https   []*http.Server
	serving []chan error
	co      *cluster.Coordinator
	// rpcErrors counts failed coordinator-to-shard calls.
	rpcErrors atomic.Int64
	log       *wal.Log
	dataDir   string
}

func startHost(w *spec, tr *tracer, dir string) (*host, error) {
	h := &host{}
	// Persist reaches the coordinator server once it exists, as in the
	// daemon.
	var front atomic.Pointer[server.Server]
	serve := func(s *server.Server, name string) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: tracedHandler{next: s.Handler(), tr: tr, name: name}}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		h.servers, h.https, h.serving = append(h.servers, s), append(h.https, hs), append(h.serving, done)
		return "http://" + ln.Addr().String(), nil
	}
	cfg := server.Config{Backend: w.topo.backend, Metrics: obs.NewRegistry(), SnapshotEvery: 128}
	switch {
	case w.topo.durable:
		h.dataDir = filepath.Join(dir, "data")
		cat := server.NewCatalog()
		log, err := openWAL(h.dataDir, cat, timingFS{FS: diskchaos.OS, tr: tr}, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		h.log, cfg.Catalog, cfg.WAL = log, cat, log
	case w.topo.shards > 0:
		var specs []cluster.ShardSpec
		for i := 0; i < w.topo.shards; i++ {
			base, err := serve(server.New(server.Config{Backend: w.topo.backend, Metrics: obs.NewRegistry()}), "shard.handler")
			if err != nil {
				h.close()
				return nil, err
			}
			specs = append(specs, cluster.ShardSpec{Addr: base})
		}
		cat := server.NewCatalog()
		co, err := cluster.NewCoordinator(specs, cluster.CoordinatorOptions{
			BroadcastLimit: w.topo.bcastLimit,
			Backend:        w.topo.backend.String(),
			LocalBackend:   w.topo.backend,
			Parse: func(text string) (*relation.Relation, error) {
				return cat.ParseTable(strings.NewReader(text), "")
			},
			Persist: func(name string, rel *relation.Relation) error {
				if s := front.Load(); s != nil {
					return s.CommitPut(name, rel)
				}
				return nil
			},
			Metrics: cfg.Metrics,
			WrapTransport: func(base http.RoundTripper) http.RoundTripper {
				return &tracedTransport{base: base, tr: tr, errors: &h.rpcErrors}
			},
		})
		if err != nil {
			h.close()
			return nil, err
		}
		h.co, cfg.Catalog, cfg.Cluster = co, cat, co
	}
	h.front = server.New(cfg)
	front.Store(h.front)
	base, err := serve(h.front, "server.handler")
	if err != nil {
		h.close()
		return nil, err
	}
	h.base = base
	return h, nil
}

func openWAL(dir string, cat *server.Catalog, fsys diskchaos.FS, reg *obs.Registry) (*wal.Log, error) {
	return wal.Open(wal.Options{
		Dir:     dir,
		Fsync:   true,
		FS:      fsys,
		Metrics: reg,
		Decode: func(table string) (*relation.Relation, error) {
			return cat.ParseTable(strings.NewReader(table), "")
		},
	})
}

// close stops serving and every server's background work; the WAL is
// closed without a final snapshot, as after a crash.
func (h *host) close() {
	for i, hs := range h.https {
		_ = hs.Close()
		<-h.serving[i]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range h.servers {
		_ = s.Shutdown(ctx)
	}
	if h.log != nil {
		_ = h.log.Close()
		h.log = nil
	}
	h.https, h.servers = nil, nil
}

// checkAgainstPulse evaluates every plan on the pulse-simulated arrays,
// the reference semantics, and requires the oracle's answer.
func checkAgainstPulse(w *spec) error {
	cat := query.Catalog(w.relations())
	for _, q := range w.queries {
		n, err := query.Parse(q.text)
		if err != nil {
			return err
		}
		rel, err := query.ExecuteCtx(context.Background(), n, cat, &query.Options{Backend: machine.BackendPulse})
		if err != nil {
			return fmt.Errorf("pulse %s: %w", q.text, err)
		}
		var sb strings.Builder
		if err := relation.FormatTable(&sb, rel); err != nil {
			return err
		}
		if got := answerOfTable(sb.String()); got != q.want[0] {
			return fmt.Errorf("oracle and pulse arrays disagree on %s: pulse %v, oracle %v", q.text, got, q.want[0])
		}
	}
	return nil
}

// tracedResult is everything the traced run measured.
type tracedResult struct {
	attempted, failed int
	errs              []string
	layers            map[string]float64
	report            []string
}

// runTraced hosts the workload in-process and measures it in three
// phases of the run's duration: the closed loop untraced (30%), the same
// loop with spans at every HTTP and storage boundary (30%), then direct,
// single-threaded calls into each layer's functions (40%).
func runTraced(ctx context.Context, w *spec, seed int64, d time.Duration, dir, spansPath string) (*tracedResult, error) {
	tr := newTracer()
	h, err := startHost(w, tr, dir)
	if err != nil {
		return nil, err
	}
	defer h.close()
	st := newLoadState(w)
	if err := upload(h.base, seed, st); err != nil {
		return nil, err
	}
	res := &tracedResult{layers: map[string]float64{}}
	if err := warmUp(h.base, seed, st); err != nil {
		return nil, err
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()

	// Phase A: untraced closed loop.
	untraced := runLoop(h.base, seed, st, nil, time.Duration(0.3*float64(d)), res)

	// Phase B: traced closed loop.
	before, err := scrapeMetrics(hc, h.base)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	traced := runLoop(h.base, seed+1, st, tr, time.Duration(0.3*float64(d)), res)
	tr.on.Store(false)
	after, err := scrapeMetrics(hc, h.base)
	if err != nil {
		return nil, err
	}
	spansB := tr.snapshot()

	// Phase C: direct layer calls.
	tr.on.Store(true)
	dr := directPhase(ctx, w, h, st, tr, time.Duration(0.4*float64(d)), res)
	tr.on.Store(false)
	afterC, err := scrapeMetrics(hc, h.base)
	if err != nil {
		return nil, err
	}
	all := tr.snapshot()
	ixB, ixAll := indexSpans(spansB), indexSpans(all)
	ixC := indexSpans(all[len(spansB):])

	L := res.layers
	qa, qb := summarize(untraced.samples, false), summarize(traced.samples, false)
	if qa.p50 > 0 {
		L["bench.trace_overhead_pct"] = 100 * (qb.p50 - qa.p50) / qa.p50
	}
	res.report = append(res.report,
		fmt.Sprintf("untraced loop: queries %v", qa),
		fmt.Sprintf("traced loop:   queries %v", qb))

	// server: handler and loopback under the traced loop.
	var handler, loop []float64
	for _, c := range ixB.named("client.query") {
		for _, k := range ixB.children[c.ID] {
			if k.Name == "server.handler" {
				handler = append(handler, float64(k.dur())/1e3)
			}
		}
		loop = append(loop, float64(ixB.self(c))/1e3)
	}
	L["server.handler_us"] = medianOf(handler)
	L["server.loopback_us"] = medianOf(loop)
	if n := delta(before, after, "server_queries_total"); n > 0 {
		L["server.queue_wait_us"] = 1e6 * delta(before, after, "server_queue_wait_seconds_sum") / n
	}
	hits, misses := delta(before, after, "query_plan_cache_hits_total"), delta(before, after, "query_plan_cache_misses_total")
	if hits+misses > 0 {
		L["query.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	for k, v := range dr.layers {
		L[k] = v
	}

	if w.topo.durable {
		walLayers(L, ixAll, before, after, traced.putBytes, traced.acked, &res.report)
		rec, err := recoverAndCheck(w, h, st)
		if err != nil {
			res.failed++
			res.errs = append(res.errs, err.Error())
		}
		L["wal.recovery_ms"] = rec
	}
	if w.topo.shards > 0 {
		clusterLayers(L, ixC, after, afterC, dr.clusterCalls, h.rpcErrors.Load(), &res.report)
		res.report = append(res.report, fmt.Sprintf("/metrics cluster_subqueries_total over the traced loop: %.0f", delta(before, after, "cluster_subqueries_total")))
	}
	res.report = append(res.report, counterLines("in-process front server", before, afterC)...)
	nested, outside, nestErrs := nestingCheck(ixAll)
	res.attempted++
	if outside > 0 {
		res.failed++
		res.errs = append(res.errs, nestErrs...)
	}
	res.report = append(res.report, fmt.Sprintf("nesting check: %d of %d spans have a parent; %d not inside it", nested, len(all), outside))
	if err := tr.writeFile(spansPath); err != nil {
		return nil, err
	}
	res.report = append(res.report, fmt.Sprintf("spans: %d kept in memory, written to %s", len(all), spansPath))
	return res, nil
}

// loopResult is one closed-loop phase's outcome.
type loopResult struct {
	samples  []sample
	putBytes int64
	acked    int
}

// runLoop drives 2 clients in a closed loop for d and folds their
// attempts and failures into res.
func runLoop(base string, seed int64, st *loadState, tr *tracer, d time.Duration, res *tracedResult) loopResult {
	clients := []*client{newClient(0, base, seed, st, tr), newClient(1, base, seed, st, tr)}
	closedLoop(clients, d, (*client).step)
	var out loopResult
	for _, c := range clients {
		c.close()
		out.samples = append(out.samples, c.samples...)
		out.putBytes += c.putBytes
		res.errs = append(res.errs, c.errs...)
		for _, s := range c.samples {
			res.attempted++
			if !s.ok {
				res.failed++
			}
			if s.write && s.ok {
				out.acked++
			}
		}
	}
	return out
}

// upload PUTs every set-up relation, then requires the first plan to be
// answered correctly: the end of set-up.
func upload(base string, seed int64, st *loadState) error {
	c := newClient(-1, base, seed, st, nil)
	defer c.close()
	for _, t := range st.w.setup {
		if s := c.put(t); !s.ok {
			return fmt.Errorf("set-up upload failed: %v", c.errs)
		}
	}
	if s := c.query(st.w.queries[0]); !s.ok {
		return fmt.Errorf("set-up: first query failed: %v", c.errs)
	}
	return nil
}

// warmUp uploads a read-only workload's load relation and runs every
// plan once, after set-up and outside any measured window, so the plan
// cache is filled and lazy set-up is done before timing starts.
func warmUp(base string, seed int64, st *loadState) error {
	c := newClient(-1, base, seed, st, nil)
	defer c.close()
	if st.w.load != nil {
		if s := c.put(st.w.load); !s.ok {
			return fmt.Errorf("load upload failed: %v", c.errs)
		}
	}
	for _, q := range st.w.queries {
		if s := c.query(q); !s.ok {
			return fmt.Errorf("warm-up: %v", c.errs)
		}
	}
	return nil
}

// directResult is what the direct phase measured.
type directResult struct {
	layers       map[string]float64
	clusterCalls int // queries executed through the coordinator
}

// directPhase calls each layer's public functions on the workload's
// plans and inputs from one goroutine, each call a span under one root
// per operation.
func directPhase(ctx context.Context, w *spec, h *host, st *loadState, tr *tracer, d time.Duration, res *tracedResult) directResult {
	kern := kernelCases(w)
	var (
		overhead, allocs, parse, optimize, execute, format, parseTable, resultBytes []float64
		pulses, wordOps, peak, simMS                                                []float64
		ops, calls                                                                  int
	)
	fail := func(f string, args ...any) {
		res.failed++
		if len(res.errs) < 10 {
			res.errs = append(res.errs, fmt.Sprintf(f, args...))
		}
	}
	local := query.Catalog(w.relations())
	deadline := time.Now().Add(d)
	var ms0, ms1 runtime.MemStats
	for time.Now().Before(deadline) {
		i := ops
		ops++
		q := w.queries[i%len(w.queries)]
		res.attempted++
		root := tr.start("direct.query", 0)
		// The server's own handler, in-process: no network.
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(q.body))
		rec := httptest.NewRecorder()
		runtime.ReadMemStats(&ms0)
		sp := tr.start("server.inproc_handler", root.id)
		h.front.Handler().ServeHTTP(rec, req)
		hSpan := finishNow(tr, sp)
		runtime.ReadMemStats(&ms1)
		var reply queryReply
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &reply) != nil {
			fail("in-process %s: code %d %.200s", q.text, rec.Code, rec.Body.String())
			tr.finish(root)
			continue
		}
		if !st.matches(q, answerOfTable(reply.Table), st.ackedOf(q)) {
			fail("in-process %s: wrong answer %v", q.text, answerOfTable(reply.Table))
		}
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))

		// The layers below the handler, called directly. The cluster
		// workload runs them on a single-node catalog of the same
		// relations; the others on the server's own catalog.
		cat := local
		if w.topo.shards == 0 {
			cat = h.front.Catalog().Snapshot()
		}
		var est query.ExecStats
		t0 := tr.start("query.parse", root.id)
		n, err := query.Parse(q.text)
		tParse := finishNow(tr, t0)
		if err != nil {
			fail("parse %s: %v", q.text, err)
			tr.finish(root)
			continue
		}
		t0 = tr.start("query.optimize", root.id)
		opt, err := query.Optimize(n, cat)
		tOpt := finishNow(tr, t0)
		if err != nil {
			fail("optimize %s: %v", q.text, err)
			tr.finish(root)
			continue
		}
		t0 = tr.start("query.execute", root.id)
		rel, err := query.ExecuteCtx(ctx, opt, cat, &query.Options{Backend: w.topo.backend, Stats: &est})
		tExec := finishNow(tr, t0)
		if err != nil {
			fail("execute %s: %v", q.text, err)
			tr.finish(root)
			continue
		}
		var sb strings.Builder
		t0 = tr.start("relation.format", root.id)
		err = relation.FormatTable(&sb, rel)
		tFmt := finishNow(tr, t0)
		if err != nil {
			fail("format %s: %v", q.text, err)
		}
		t0 = tr.start("relation.parse_table", root.id)
		_, err = relation.ParseTable(strings.NewReader(sb.String()), rel.Schema())
		tPT := finishNow(tr, t0)
		if err != nil {
			fail("parse table %s: %v", q.text, err)
		}
		if w.topo.shards == 0 && !st.matches(q, answerOfTable(sb.String()), st.ackedOf(q)) {
			fail("direct execute %s: wrong answer", q.text)
		}
		below := tExec + tFmt
		if !reply.CacheHit {
			below += tParse + tOpt
		}
		if w.topo.shards > 0 {
			t0 = tr.start("cluster.execute", root.id)
			crel, err := h.co.Execute(context.WithValue(ctx, spanKey{}, t0.id), n)
			tCo := finishNow(tr, t0)
			calls += 2 // the in-process handler above also ran through the coordinator
			if err != nil {
				fail("cluster execute %s: %v", q.text, err)
			} else {
				var cb strings.Builder
				_ = relation.FormatTable(&cb, crel)
				if !st.matches(q, answerOfTable(cb.String()), st.ackedOf(q)) {
					fail("cluster execute %s: wrong answer", q.text)
				}
			}
			below = tCo + tFmt
		}
		overhead = append(overhead, hSpan-below)
		parse, optimize, execute = append(parse, tParse), append(optimize, tOpt), append(execute, tExec)
		format, parseTable = append(format, tFmt), append(parseTable, tPT)
		resultBytes = append(resultBytes, float64(sb.Len()))
		pulses, wordOps, peak = append(pulses, float64(est.Pulses)), append(wordOps, float64(est.WordOps)), append(peak, float64(est.PeakTuples))
		simMS = append(simMS, float64(perf.Conservative1980.PulseTime(est.Pulses))/1e6)

		// One kernel call per operation, round robin over the cases.
		if len(kern) > 0 {
			kc := kern[i%len(kern)]
			k := tr.start(kc.span, root.id)
			p, err := kc.run()
			kd := finishNow(tr, k)
			if err != nil {
				fail("kernel %s: %v", kc.span, err)
			} else if p > 0 {
				kc.nsPerPulse = append(kc.nsPerPulse, kd*1e3/float64(p))
			}
			kc.us = append(kc.us, kd)
		}
		tr.finish(root)
	}
	L := map[string]float64{
		"server.overhead_us":       medianOf(overhead),
		"server.allocs_per_query":  medianOf(allocs),
		"query.parse_us":           medianOf(parse),
		"query.optimize_us":        medianOf(optimize),
		"query.execute_us":         medianOf(execute),
		"query.peak_tuples":        medianOf(peak),
		"query.pulses_per_query":   mean(pulses),
		"query.word_ops_per_query": mean(wordOps),
		"query.sim_ms_per_query":   mean(simMS),
		"relation.format_us":       medianOf(format),
		"relation.parse_table_us":  medianOf(parseTable),
		"relation.result_bytes":    medianOf(resultBytes),
	}
	var perPulse []float64
	for _, kc := range kern {
		L[kc.metric] = medianOf(kc.us)
		perPulse = append(perPulse, kc.nsPerPulse...)
	}
	if len(perPulse) > 0 {
		L["systolic.host_ns_per_pulse"] = medianOf(perPulse)
	}
	return directResult{layers: L, clusterCalls: calls}
}

// finishNow ends a span and returns its duration in microseconds.
func finishNow(tr *tracer, a active) float64 {
	end := int64(time.Since(tr.epoch))
	tr.finish(a)
	return float64(end-a.start) / 1e3
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// kernelCase is one kernel call on the workload's own relations; run
// returns the pulses it simulated (0 on the bitset backend).
type kernelCase struct {
	span, metric string
	run          func() (int, error)
	us           []float64
	nsPerPulse   []float64
}

// kernelCases picks the kernels of the workload's backend: the bitset
// word kernels, or the pulse-simulated arrays.
func kernelCases(w *spec) []*kernelCase {
	r := w.relations()
	k := w.kernels
	eq := join.Spec{ACols: []int{0}, BCols: []int{0}}
	if w.topo.backend == machine.BackendBitset {
		return []*kernelCase{
			{span: "bitset.join", metric: "bitset.join_us", run: func() (int, error) {
				_, err := bitset.Join(r[k.joinL], r[k.joinR], eq)
				return 0, err
			}},
			{span: "bitset.intersect", metric: "bitset.intersect_us", run: func() (int, error) {
				_, err := bitset.Intersection(r[k.interL], r[k.interR])
				return 0, err
			}},
			{span: "bitset.dedup", metric: "bitset.dedup_us", run: func() (int, error) {
				_, err := bitset.RemoveDuplicates(r[k.dedup])
				return 0, err
			}},
			{span: "bitset.divide", metric: "bitset.divide_us", run: func() (int, error) {
				_, err := bitset.Divide(r[k.divL], r[k.divR], []int{0}, []int{1}, []int{0})
				return 0, err
			}},
		}
	}
	return []*kernelCase{
		{span: "join.pulse", metric: "join.pulse_us", run: func() (int, error) {
			res, err := join.Join(r[k.joinL], r[k.joinR], eq)
			if err != nil {
				return 0, err
			}
			return res.Stats.Pulses, nil
		}},
		{span: "intersect.pulse", metric: "intersect.pulse_us", run: func() (int, error) {
			res, err := intersect.Intersection(r[k.interL], r[k.interR])
			if err != nil {
				return 0, err
			}
			return res.Stats.Pulses, nil
		}},
		{span: "dedup.pulse", metric: "dedup.pulse_us", run: func() (int, error) {
			res, err := dedup.RemoveDuplicates(r[k.dedup])
			if err != nil {
				return 0, err
			}
			return res.Stats.Pulses, nil
		}},
		{span: "division.pulse", metric: "division.pulse_us", run: func() (int, error) {
			res, err := division.Divide(r[k.divL], r[k.divR], []int{0}, []int{1}, []int{0})
			if err != nil {
				return 0, err
			}
			return res.Stats.Pulses + res.Dedup.Pulses, nil
		}},
	}
}

// walLayers derives the WAL's per-layer numbers from the storage spans
// of the traced loop and the server's /metrics over the same window.
func walLayers(L map[string]float64, ix *spanIndex, before, after metrics, putBytes int64, acked int, report *[]string) {
	appends, fsyncs := ix.named("wal.append"), ix.named("wal.fsync")
	L["wal.append_us"] = medianUS(appends)
	L["wal.fsync_us"] = medianUS(fsyncs)
	L["wal.fsync_p99_us"] = percentileUS(fsyncs, 0.99)
	var written int64
	for _, s := range append(appends, ix.named("wal.other_write")...) {
		written += s.Bytes
	}
	syncs := len(fsyncs) + len(ix.named("wal.other_sync"))
	if acked > 0 {
		L["wal.fsyncs_per_write"] = float64(syncs) / float64(acked)
	}
	if putBytes > 0 {
		L["wal.bytes_per_user_byte"] = float64(written) / float64(putBytes)
	}
	L["wal.snapshots"] = delta(before, after, "wal_snapshots_total")
	if n := delta(before, after, "wal_snapshot_seconds_count"); n > 0 {
		L["wal.snapshot_ms"] = 1e3 * delta(before, after, "wal_snapshot_seconds_sum") / n
	}
	var segBytes int64
	for _, s := range appends {
		segBytes += s.Bytes
	}
	*report = append(*report,
		fmt.Sprintf("cross-check wal appends: spans %d, /metrics wal_appends_total %+.0f (acked writes %d)",
			len(appends), delta(before, after, "wal_appends_total"), acked),
		fmt.Sprintf("cross-check wal bytes: segment-write spans %d B, /metrics wal_append_bytes_total %+.0f B",
			segBytes, delta(before, after, "wal_append_bytes_total")))
}

// clusterLayers derives the coordinator's per-layer numbers from the
// direct phase's cluster.execute spans and their shard-call children.
func clusterLayers(L map[string]float64, ix *spanIndex, before, after metrics, calls int, transportErrors int64, report *[]string) {
	execs := ix.named("cluster.execute")
	var rpcs, gather []float64
	var subq, shipped int64
	for _, e := range execs {
		gather = append(gather, float64(ix.self(e))/1e3)
		for _, k := range ix.children[e.ID] {
			shipped += k.Bytes
			if k.Name == "cluster.rpc.query" {
				subq++
				rpcs = append(rpcs, float64(k.dur())/1e3)
			}
		}
	}
	L["cluster.execute_us"] = medianUS(execs)
	L["cluster.gather_us"] = medianOf(gather)
	L["cluster.shard_rpc_us"] = medianOf(rpcs)
	if n := float64(len(execs)); n > 0 {
		L["cluster.subqueries_per_query"] = float64(subq) / n
		L["cluster.shipped_bytes_per_query"] = float64(shipped) / n
	}
	if calls > 0 {
		L["cluster.shuffle_rows_per_query"] = delta(before, after, "cluster_shuffle_rows_total") / float64(calls)
		L["cluster.broadcast_rows_per_query"] = delta(before, after, "cluster_broadcast_rows_total") / float64(calls)
	}
	L["cluster.retries"] = after.sum("cluster_shard_failures_total") + float64(transportErrors)
	*report = append(*report, fmt.Sprintf("cross-check cluster sub-queries: spans %d over %d direct executes, /metrics %+.0f over %d coordinator executes",
		subq, len(execs), delta(before, after, "cluster_subqueries_total"), calls))
}

// recoverAndCheck stops the in-process host as a crash would (no final
// snapshot), times reopening its WAL, and checks that every relation
// recovered at its last acknowledged version.
func recoverAndCheck(w *spec, h *host, st *loadState) (float64, error) {
	h.close()
	cat := server.NewCatalog()
	start := time.Now()
	log, err := openWAL(h.dataDir, cat, diskchaos.OS, nil)
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		return ms, fmt.Errorf("reopening WAL: %w", err)
	}
	defer log.Close()
	got := map[string]string{}
	for name, rel := range log.Recovered().Relations {
		var sb strings.Builder
		if err := relation.FormatTable(&sb, rel); err != nil {
			return ms, err
		}
		got[name] = sb.String()
	}
	return ms, st.checkDurable(got)
}

// checkDurable compares recovered relation texts with the last
// acknowledged version of every relation.
func (st *loadState) checkDurable(got map[string]string) error {
	var errs []error
	want := map[string]*table{}
	for _, t := range st.w.setup {
		want[t.name] = t
	}
	for _, o := range st.w.owned {
		rs := st.rels[o.name]
		if rs.started.Load() != rs.acked.Load() {
			// A write was in flight when the daemon died; either version
			// is acceptable, so check membership instead.
			a, b := answerOf(o.versions[rs.acked.Load()%int64(len(o.versions))].rows), answerOf(o.versions[rs.started.Load()%int64(len(o.versions))].rows)
			if g := answerOfTable(got[o.name]); g != a && g != b {
				errs = append(errs, fmt.Errorf("%s recovered as %v, want last acked %v or in-flight %v", o.name, g, a, b))
			}
			delete(want, o.name)
			continue
		}
		want[o.name] = o.versions[rs.acked.Load()%int64(len(o.versions))]
	}
	for name, t := range want {
		text, ok := got[name]
		if !ok {
			errs = append(errs, fmt.Errorf("%s missing after recovery", name))
			continue
		}
		if g, wa := answerOfTable(text), answerOf(t.rows); g != wa {
			errs = append(errs, fmt.Errorf("%s recovered as %v, want last acked %v", name, g, wa))
		}
	}
	return errors.Join(errs...)
}

// nestingCheck counts the spans that have a parent and those whose
// interval is not inside their parent's, with a message for the first
// few: no layer may take longer than the call it nests in, down to the
// client-measured request.
func nestingCheck(ix *spanIndex) (checked, bad int, errs []string) {
	byID := map[uint64]span{}
	for _, s := range ix.all {
		byID[s.ID] = s
	}
	for _, s := range ix.all {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		checked++
		if s.Start < p.Start || s.End > p.End {
			bad++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("nesting: %s span [%d, %d] ns is not inside its parent %s [%d, %d] ns",
					s.Name, s.Start, s.End, p.Name, p.Start, p.End))
			}
		}
	}
	return checked, bad, errs
}

func counterLines(who string, before, after metrics) []string {
	var out []string
	for _, name := range reportedCounters {
		if v := after.sum(name); v != 0 {
			out = append(out, fmt.Sprintf("/metrics %s: %s %.0f (%+.0f over the measured phases)", who, name, v, delta(before, after, name)))
		}
	}
	return out
}
