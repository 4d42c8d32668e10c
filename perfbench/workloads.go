package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"systolicdb/internal/machine"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

// table is one generated relation in the three forms the benchmark
// needs: the program's relation (in-process layer calls), the upload
// text (the only thing the daemons receive) and the oracle's rows.
type table struct {
	name string
	rel  *relation.Relation
	text string
	body []byte // text, as the PUT body
	rows rows
}

func newTable(name string, rel *relation.Relation) *table {
	var sb strings.Builder
	sb.WriteString(strings.Join(rel.Schema().Names(), "\t"))
	sb.WriteByte('\n')
	r := rows{width: rel.Width()}
	for i := 0; i < rel.Cardinality(); i++ {
		t := make([]int64, rel.Width())
		for k, e := range rel.Tuple(i) {
			t[k] = int64(e)
		}
		r.tups = append(r.tups, t)
		sb.WriteString(key(t))
		sb.WriteByte('\n')
	}
	return &table{name: name, rel: rel, text: sb.String(), body: []byte(sb.String()), rows: r}
}

// queryCase is one fixed plan text of a workload's mix. A plan that
// reads a relation the clients rewrite (mutable != "") has one expected
// answer per version that relation can hold; otherwise want has one
// entry.
type queryCase struct {
	plan    plan
	text    string
	body    []byte // the POST /query body
	mutable string
	want    []answer
}

// owned is a relation one client rewrites: versions[w%len] is the
// content of its w-th write (write 0 is the set-up upload).
type owned struct {
	name     string
	owner    int
	versions []*table
}

// topology says which daemons a workload runs and how.
type topology struct {
	backend    machine.Backend
	durable    bool // one daemon with -data-dir (else in-memory)
	shards     int  // >0: a coordinator over this many shard daemons
	bcastLimit int
}

// spec is one workload: its generated inputs, its query mix and how it
// writes.
type spec struct {
	name  string
	topo  topology
	setup []*table // uploaded in this order at set-up
	owned []*owned
	// load is the relation a read-only workload's write phase replaces;
	// no plan reads it, so it is uploaded after set-up (see warmUp).
	load    *table
	queries []*queryCase
	// writeFrac is the share of a client's operations that are PUTs of a
	// relation it owns, interleaved with its queries. Read-only workloads
	// set 0 and get a separate write phase after the query phase.
	writeFrac float64
	// kernels names the relations the traced run's kernel calls take as
	// inputs.
	kernels kernelInputs
}

// kernelInputs picks the workload's own relations for the per-layer
// kernel calls.
type kernelInputs struct {
	joinL, joinR   string
	interL, interR string
	dedup          string
	divL, divR     string
}

// loadRows is the size of a read-only workload's load relation: large
// enough that a PUT of it takes milliseconds, so its tail latency is the
// daemon's and not the scheduler noise of a shared machine.
const loadRows = 2048

var workloadNames = []string{"small-rw", "olap-bitset", "pulse-arrays", "cluster-scatter"}

func buildWorkload(name string, seed int64) (*spec, error) {
	g := &gen{seed: seed}
	var w *spec
	switch name {
	case "small-rw":
		w = g.smallRW()
	case "olap-bitset":
		w = g.analytic("olap-bitset", machine.BackendBitset, analyticSizes{
			join: 2048, zipf: 1024, zipfKeys: 4096, overlap: 2048, union: 1024, dups: 2048, divX: 256, divY: 8,
		})
	case "pulse-arrays":
		w = g.analytic("pulse-arrays", machine.BackendPulse, analyticSizes{
			join: 48, zipf: 48, zipfKeys: 64, overlap: 32, union: 16, dups: 40, divX: 14, divY: 3,
		})
	case "cluster-scatter":
		w = g.cluster()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if w.writeFrac == 0 {
		rel, err := workload.Uniform(g.sub(), loadRows, 2, 1<<20)
		w.load = g.keep("LOAD", rel, err)
	}
	if g.err != nil {
		return nil, g.err
	}
	w.computeAnswers()
	return w, nil
}

// gen derives every relation from the workload seed: relation k uses
// seed*1000+k, so the same seed always gives the same inputs.
type gen struct {
	seed int64
	n    int64
	err  error
}

func (g *gen) sub() int64 { g.n++; return g.seed*1000 + g.n }

func (g *gen) keep(name string, rel *relation.Relation, err error) *table {
	if err != nil && g.err == nil {
		g.err = fmt.Errorf("generating %s: %w", name, err)
	}
	if err != nil {
		return nil
	}
	return newTable(name, rel)
}

// pair keeps a generator's two relations: g.pair("A", "B")(gen(...)).
func (g *gen) pair(nameA, nameB string) func(a, b *relation.Relation, err error) (*table, *table) {
	return func(a, b *relation.Relation, err error) (*table, *table) {
		return g.keep(nameA, a, err), g.keep(nameB, b, err)
	}
}

// smallRW: 16 static and 16 client-owned relations of 64 rows. Values
// come from a small domain so joins fan out about 5x and intersections
// keep about a third of their input.
func (g *gen) smallRW() *spec {
	const nRel, rowsPer, domain, versions = 16, 64, 12, 4
	w := &spec{
		name:      "small-rw",
		topo:      topology{backend: machine.BackendBitset, durable: true},
		writeFrac: 0.2,
	}
	for i := 0; i < nRel; i++ {
		rel, err := workload.Uniform(g.sub(), rowsPer, 2, domain)
		w.setup = append(w.setup, g.keep(fmt.Sprintf("S%02d", i), rel, err))
	}
	for i := 0; i < nRel; i++ {
		o := &owned{name: fmt.Sprintf("W%02d", i), owner: i % 2}
		for v := 0; v < versions; v++ {
			rel, err := workload.Uniform(g.sub(), rowsPer, 2, domain)
			if err != nil {
				g.err = err
				return w
			}
			o.versions = append(o.versions, newTable(o.name, rel))
		}
		w.owned = append(w.owned, o)
		w.setup = append(w.setup, o.versions[0])
	}
	for i := 0; i < nRel; i++ {
		wi, si, sj := scan(fmt.Sprintf("W%02d", i)), scan(fmt.Sprintf("S%02d", i)), scan(fmt.Sprintf("S%02d", (i+1)%nRel))
		mut := fmt.Sprintf("W%02d", i)
		w.queries = append(w.queries,
			&queryCase{plan: selectP{child: wi, col: 0, op: "<", val: domain / 2}, mutable: mut},
			&queryCase{plan: joinP{l: wi, r: si, pairs: [][2]int{{0, 0}}}, mutable: mut},
			&queryCase{plan: setP{kind: "intersect", l: wi, r: si}, mutable: mut},
			&queryCase{plan: joinP{l: si, r: sj, pairs: [][2]int{{0, 0}}}},
		)
	}
	w.kernels = kernelInputs{joinL: "W00", joinR: "S00", interL: "W00", interR: "S00", dedup: "S01", divL: "S02", divR: "S03"}
	return w
}

type analyticSizes struct {
	join, zipf, zipfKeys, overlap, union, dups, divX, divY int
}

// analytic is the read-only mix shared by olap-bitset and pulse-arrays:
// the same plan shapes over relations of the given sizes.
func (g *gen) analytic(name string, backend machine.Backend, n analyticSizes) *spec {
	w := &spec{name: name, topo: topology{backend: backend}}
	ja, jb := g.pair("JA", "JB")(workload.JoinPair(g.sub(), n.join, n.join, 2, 1.0))
	za, zb := g.pair("ZA", "ZB")(workload.ZipfJoinPair(g.sub(), n.zipf, n.zipf, 2, 1.1, n.zipfKeys))
	oa, ob := g.pair("OA", "OB")(workload.OverlapPair(g.sub(), n.overlap, 2, 0.5))
	// Union runs the remove-duplicates array over both inputs at once,
	// so its pair is half the size to keep its cost near the others'.
	ua, ub := g.pair("UA", "UB")(workload.OverlapPair(g.sub(), n.union, 2, 0.5))
	wdRel, err := workload.WithDuplicates(g.sub(), n.dups, 2, 0.3)
	wd := g.keep("WD", wdRel, err)
	da, db := g.pair("DA", "DB")(workload.DivisionCase(g.sub(), n.divX, n.divY, 0.5))
	w.setup = []*table{ja, jb, za, zb, oa, ob, ua, ub, wd, da, db}
	if g.err != nil {
		return w
	}
	S := func(t *table) plan { return scan(t.name) }
	w.queries = []*queryCase{
		{plan: joinP{l: S(ja), r: S(jb), pairs: [][2]int{{0, 0}}}},
		{plan: setP{kind: "intersect", l: S(oa), r: S(ob)}},
		{plan: setP{kind: "difference", l: S(oa), r: S(ob)}},
		{plan: setP{kind: "union", l: S(ua), r: S(ub)}},
		{plan: dedupP{child: projectP{child: S(wd), cols: []int{0}}}},
		{plan: divideP{l: S(da), r: S(db), quot: []int{0}, div: []int{1}, byCs: []int{0}}},
		// Select under join: the hottest Zipf keys are filtered out
		// before the join, so its output stays near the input size.
		{plan: joinP{l: selectP{child: S(za), col: 0, op: ">=", val: 2}, r: S(zb), pairs: [][2]int{{0, 0}}}},
	}
	w.kernels = kernelInputs{joinL: "JA", joinR: "JB", interL: "OA", interR: "OB", dedup: "WD", divL: "DA", divR: "DB"}
	return w
}

// cluster: about 1k-row relations across 3 shards, with one plan per
// distributed strategy.
func (g *gen) cluster() *spec {
	const n = 1024
	w := &spec{name: "cluster-scatter", topo: topology{backend: machine.BackendBitset, shards: 3, bcastLimit: 256}}
	ca, cb := g.pair("CA", "CB")(workload.OverlapPair(g.sub(), n, 2, 0.5))
	fa, dim := g.pair("FA", "DIM")(workload.JoinPair(g.sub(), n, 128, 2, 1.0))
	sa, sb := g.pair("SA", "SB")(workload.JoinPair(g.sub(), n, n, 2, 1.0))
	qa, qb := g.pair("QA", "QB")(workload.DivisionCase(g.sub(), 128, 8, 0.5))
	w.setup = []*table{ca, cb, fa, dim, sa, sb, qa, qb}
	if g.err != nil {
		return w
	}
	S := func(t *table) plan { return scan(t.name) }
	w.queries = []*queryCase{
		// Joined on every column of both width-2 scans: the PUT-time
		// hash already co-partitions them, nothing moves.
		{plan: joinP{l: S(ca), r: S(cb), pairs: [][2]int{{0, 0}, {1, 1}}}},
		// 128-row build side, under the broadcast limit.
		{plan: joinP{l: S(fa), r: S(dim), pairs: [][2]int{{0, 0}}}},
		// 1024-row build side, over the limit: both sides shuffle.
		{plan: joinP{l: S(sa), r: S(sb), pairs: [][2]int{{0, 0}}}},
		{plan: selectP{child: S(sa), col: 0, op: "<", val: n / 4}},
		{plan: divideP{l: S(qa), r: S(qb), quot: []int{0}, div: []int{1}, byCs: []int{0}}},
	}
	w.kernels = kernelInputs{joinL: "SA", joinR: "SB", interL: "CA", interR: "CB", dedup: "FA", divL: "QA", divR: "QB"}
	return w
}

// computeAnswers evaluates every plan with the oracle, once per version
// of the owned relation it reads. This runs at set-up, outside any timed
// window.
func (w *spec) computeAnswers() {
	db := map[string]rows{}
	for _, t := range w.setup {
		db[t.name] = t.rows
	}
	for _, q := range w.queries {
		q.text = q.plan.text()
		q.body, _ = json.Marshal(map[string]string{"plan": q.text})
		if q.mutable == "" {
			q.want = []answer{answerOf(q.plan.eval(db))}
			continue
		}
		o := w.ownedByName(q.mutable)
		for _, v := range o.versions {
			db[o.name] = v.rows
			q.want = append(q.want, answerOf(q.plan.eval(db)))
		}
		db[o.name] = o.versions[0].rows
	}
}

func (w *spec) ownedByName(name string) *owned {
	for _, o := range w.owned {
		if o.name == name {
			return o
		}
	}
	return nil
}

// relations returns every relation a plan may read, at set-up content,
// as the program's relation values.
func (w *spec) relations() map[string]*relation.Relation {
	out := map[string]*relation.Relation{}
	for _, t := range w.setup {
		out[t.name] = t.rel
	}
	return out
}
