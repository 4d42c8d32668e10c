package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"systolicdb/internal/diskchaos"
)

// spanHeader carries the caller's span ID across HTTP, so a handler's
// span records which client or coordinator span caused it.
const spanHeader = "X-Bench-Span"

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped.
const maxSpans = 1 << 20

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on. Every method is a no-op on a
// nil tracer or while off, so the untraced path pays one atomic load.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
	// handlers maps the goroutine serving a request to its handler span,
	// so storage calls made under the handler nest in it.
	handlers sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is a started span; the zero value means "not recording".
type active struct {
	id, parent uint64
	name       string
	start      int64
}

func (t *tracer) start(name string, parent uint64) active {
	if t == nil || !t.on.Load() {
		return active{}
	}
	return active{id: t.next.Add(1), parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

func (t *tracer) finish(a active) { t.finishBytes(a, 0) }

func (t *tracer) finishBytes(a active, bytes int64) {
	if a.id == 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: a.id, Parent: a.parent, Name: a.name, Start: a.start, End: end, Bytes: bytes})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"epoch_unix_ns": t.epoch.UnixNano(),
		"dropped":       t.dropped,
		"spans":         t.spans,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func parentFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// tracedHandler records a span around a server's Handler(), parented
// by the caller's X-Bench-Span header, and passes its own ID down in the
// request context (the coordinator's shard calls read it from there).
type tracedHandler struct {
	next http.Handler
	tr   *tracer
	name string
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	sp := h.tr.start(h.name, parent)
	g := goroutineID()
	h.tr.handlers.Store(g, sp.id)
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp.id)))
	h.tr.handlers.Delete(g)
	h.tr.finish(sp)
}

// handlerSpan is the handler span the calling goroutine serves, or 0
// (a background goroutine, such as the server's snapshot writer).
func (t *tracer) handlerSpan() uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id, _ := t.handlers.Load(goroutineID())
	p, _ := id.(uint64)
	return p
}

// goroutineID parses the calling goroutine's ID from its stack header,
// "goroutine N [...". The WAL's file calls carry no request context, and
// net/http runs a handler and the storage calls under it on one
// goroutine, so this is how they find their handler span.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// tracedTransport wraps one shard client's transport. Each call is a
// span from sending until its reply body is closed, carrying the request
// plus reply bytes; failed calls count into errors.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	errors *atomic.Int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := "cluster.rpc.other"
	switch {
	case req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/query"):
		kind = "cluster.rpc.query"
	case req.Method == http.MethodPut:
		kind = "cluster.rpc.put"
	case req.Method == http.MethodDelete:
		kind = "cluster.rpc.delete"
	}
	sp := t.tr.start(kind, parentFrom(req.Context()))
	if sp.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.errors.Add(1)
		t.tr.finish(sp)
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		t.errors.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func(n int64) {
		t.tr.finishBytes(sp, max(req.ContentLength, 0)+n)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n       int64
	once    sync.Once
	onClose func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.onClose(b.n) })
	return err
}

// timingFS is the WAL's filesystem seam with every write and sync timed:
// writes to log segments are "wal.append" spans, syncs of segments are
// "wal.fsync", everything else (snapshots, directories) "wal.other_write"
// and "wal.other_sync". Bytes count every write. A call made while
// serving a request nests in that request's handler span.
type timingFS struct {
	diskchaos.FS
	tr *tracer
}

func (f timingFS) OpenFile(name string, flag int, perm fs.FileMode) (diskchaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := name[strings.LastIndexByte(name, '/')+1:]
	seg := strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")
	return timingFile{File: file, tr: f.tr, seg: seg}, nil
}

func (f timingFS) SyncDir(dir string) error {
	sp := f.tr.start("wal.other_sync", f.tr.handlerSpan())
	err := f.FS.SyncDir(dir)
	f.tr.finish(sp)
	return err
}

type timingFile struct {
	diskchaos.File
	tr  *tracer
	seg bool
}

func (f timingFile) Write(p []byte) (int, error) {
	name := "wal.other_write"
	if f.seg {
		name = "wal.append"
	}
	sp := f.tr.start(name, f.tr.handlerSpan())
	n, err := f.File.Write(p)
	f.tr.finishBytes(sp, int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	name := "wal.other_sync"
	if f.seg {
		name = "wal.fsync"
	}
	sp := f.tr.start(name, f.tr.handlerSpan())
	err := f.File.Sync()
	f.tr.finish(sp)
	return err
}

// spanIndex answers questions about a set of recorded spans.
type spanIndex struct {
	all      []span
	children map[uint64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{all: spans, children: map[uint64][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.all {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// self is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func (ix *spanIndex) self(s span) int64 {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	covered += curHi - curLo
	return s.dur() - covered
}

// medianUS is the median duration of the spans, in microseconds.
func medianUS(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.dur()) / 1e3
	}
	return medianOf(xs)
}

// percentileUS is the nearest-rank q-quantile of the spans' durations,
// in microseconds.
func percentileUS(spans []span, q float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.dur()) / 1e3
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))]
}
