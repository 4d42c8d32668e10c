package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// relState tracks one client-owned relation's writes. Write numbers
// count from 0 (the set-up upload); version w%len(versions) is the
// content of write w. Only the owner advances started and acked.
type relState struct {
	started atomic.Int64 // highest write number sent
	acked   atomic.Int64 // highest write number acknowledged
}

// loadState is what the clients of one run share.
type loadState struct {
	w    *spec
	rels map[string]*relState
}

func newLoadState(w *spec) *loadState {
	st := &loadState{w: w, rels: map[string]*relState{}}
	for _, o := range w.owned {
		st.rels[o.name] = &relState{}
	}
	return st
}

// sample is one completed operation.
type sample struct {
	write bool
	ok    bool
	plan  int // index into the workload's queries; -1 for a write
	lat   time.Duration
}

// queryReply is the part of the POST /query reply the benchmark reads.
type queryReply struct {
	Rows     int    `json:"rows"`
	Table    string `json:"table"`
	CacheHit bool   `json:"cache_hit"`
}

// client is one closed-loop connection: it sends its next operation only
// after the previous reply arrived.
type client struct {
	id    int
	base  string
	hc    *http.Client
	rng   *rand.Rand
	st    *loadState
	tr    *tracer // nil: untraced
	owned []*owned
	// deck deals plan (or relation) indexes in seeded random order, each
	// index once per round, so every run sends each plan equally often.
	deck    []int
	dealt   int
	ops     int
	samples []sample
	errs    []string
	// putBytes sums acknowledged PUT body bytes (the WAL's user bytes).
	putBytes int64
}

func newClient(id int, base string, seed int64, st *loadState, tr *tracer) *client {
	c := &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		st:  st,
		tr:  tr,
	}
	for _, o := range st.w.owned {
		if o.owner == id {
			c.owned = append(c.owned, o)
		}
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(format string, args ...any) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// exchange sends one request and reads the whole reply; lat covers
// sending through the last body byte. With a tracer it is recorded as a
// root span whose ID rides in the X-Bench-Span header.
func (c *client) exchange(method, path, spanName string, body []byte) (code int, reply []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	sp := c.tr.start(spanName, 0)
	if sp.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	}
	lat = time.Since(start)
	c.tr.finish(sp)
	return code, reply, lat, err
}

// query runs one plan of the mix and checks the answer against every
// version the plan's mutable relation may hold while the query runs.
func (c *client) query(q *queryCase) sample {
	lo := c.st.ackedOf(q)
	code, reply, lat, err := c.exchange(http.MethodPost, "/query", "client.query", q.body)
	s := sample{lat: lat}
	if err != nil || code != http.StatusOK {
		c.fail("query %s: code %d err %v: %.200s", q.text, code, err, reply)
		return s
	}
	var r queryReply
	if err := json.Unmarshal(reply, &r); err != nil {
		c.fail("query %s: bad reply: %v", q.text, err)
		return s
	}
	got := answerOfTable(r.Table)
	if got.rows != r.Rows {
		c.fail("query %s: reply says %d rows, table has %d", q.text, r.Rows, got.rows)
		return s
	}
	if !c.st.matches(q, got, lo) {
		c.fail("query %s: got %v, want %v", q.text, got, c.st.wants(q, lo))
		return s
	}
	s.ok = true
	return s
}

// put replaces relation t; the reply must report its row count.
func (c *client) put(t *table) sample {
	code, reply, lat, err := c.exchange(http.MethodPut, "/relations/"+t.name, "client.write", t.body)
	s := sample{write: true, plan: -1, lat: lat}
	if err != nil || code != http.StatusOK {
		c.fail("PUT %s: code %d err %v: %.200s", t.name, code, err, reply)
		return s
	}
	var r struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(reply, &r); err != nil || r.Rows != len(t.rows.tups) {
		c.fail("PUT %s: reply %.200s, want %d rows", t.name, reply, len(t.rows.tups))
		return s
	}
	c.putBytes += int64(len(t.body))
	s.ok = true
	return s
}

// writeOwned advances one owned relation to its next version.
func (c *client) writeOwned() sample {
	o := c.owned[c.rng.Intn(len(c.owned))]
	rs := c.st.rels[o.name]
	w := rs.started.Load() + 1
	rs.started.Store(w)
	s := c.put(o.versions[w%int64(len(o.versions))])
	if s.ok {
		rs.acked.Store(w)
	}
	return s
}

// deal returns the next index of a round over n items.
func (c *client) deal(n int) int {
	if c.dealt%n == 0 || len(c.deck) != n {
		c.deck = c.rng.Perm(n)
		c.dealt = 0
	}
	i := c.deck[c.dealt%n]
	c.dealt++
	return i
}

// step runs the client's next operation of the mix: writes are spread
// evenly at the workload's write share, queries are dealt round by round.
func (c *client) step() sample {
	c.ops++
	f := c.st.w.writeFrac
	if len(c.owned) > 0 && int(float64(c.ops)*f) > int(float64(c.ops-1)*f) {
		return c.writeOwned()
	}
	i := c.deal(len(c.st.w.queries))
	s := c.query(c.st.w.queries[i])
	s.plan = i
	return s
}

// reload replaces the workload's load relation with unchanged content:
// the write phase of a read-only workload.
func (c *client) reload() sample {
	return c.put(c.st.w.load)
}

// closedLoop runs every client's op in a loop until d has passed and
// returns the wall time from start to the last reply.
func closedLoop(clients []*client, d time.Duration, op func(*client) sample) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	ends := make([]time.Duration, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.samples = append(c.samples, op(c))
			}
			ends[i] = time.Since(start)
		}(i, c)
	}
	wg.Wait()
	return slices.Max(ends)
}

// latStats summarises one operation kind's latencies.
type latStats struct {
	n, failed     int
	p50, p95, p99 float64 // ms; +Inf when the percentile falls on a failure
}

// summarize computes nearest-rank percentiles over every sample of one
// kind; a failed operation sorts above every success.
func summarize(samples []sample, write bool) latStats {
	var ls []float64
	st := latStats{}
	for _, s := range samples {
		if s.write != write {
			continue
		}
		l := float64(s.lat) / float64(time.Millisecond)
		if !s.ok {
			st.failed++
			l = math.Inf(1)
		}
		ls = append(ls, l)
	}
	st.n = len(ls)
	if st.n == 0 {
		return st
	}
	sort.Float64s(ls)
	st.p50, st.p95, st.p99 = ls[rank(0.50, st.n)], ls[rank(0.95, st.n)], ls[rank(0.99, st.n)]
	return st
}

func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// perPlan prints each plan's share of the queries and its latency, so a
// reader can see which plans set the percentiles.
func perPlan(w *spec, samples []sample) []string {
	by := make([][]sample, len(w.queries))
	for _, s := range samples {
		if !s.write {
			by[s.plan] = append(by[s.plan], s)
		}
	}
	var out []string
	for i, ss := range by {
		if len(ss) > 0 {
			out = append(out, fmt.Sprintf("  plan %-60.60s %v", w.queries[i].text, summarize(ss, false)))
		}
	}
	return out
}

// beyondP99 is the number of samples above the p99 rank.
func (s latStats) beyondP99() int {
	return s.n - 1 - rank(0.99, s.n)
}

func (s latStats) String() string {
	return fmt.Sprintf("n=%d failed=%d p50=%.4fms p95=%.4fms p99=%.4fms (%d samples beyond p99)",
		s.n, s.failed, s.p50, s.p95, s.p99, s.beyondP99())
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ackedOf is the last acknowledged write of the relation q may see
// rewritten (0 for a plan over static relations).
func (st *loadState) ackedOf(q *queryCase) int64 {
	if q.mutable == "" {
		return 0
	}
	return st.rels[q.mutable].acked.Load()
}

// wants lists the answers q may return when its mutable relation's last
// acknowledged write was lo as the request went out: every version from
// lo to the last write started by now.
func (st *loadState) wants(q *queryCase, lo int64) []answer {
	if q.mutable == "" {
		return q.want
	}
	hi := st.rels[q.mutable].started.Load()
	n := int64(len(q.want))
	var out []answer
	for w := lo; w <= hi && w < lo+n; w++ {
		out = append(out, q.want[w%n])
	}
	return out
}

func (st *loadState) matches(q *queryCase, got answer, lo int64) bool {
	for _, w := range st.wants(q, lo) {
		if got == w {
			return true
		}
	}
	return false
}
