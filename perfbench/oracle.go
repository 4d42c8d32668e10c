package main

import (
	"fmt"
	"strconv"
	"strings"
)

// rows is a relation as the oracle sees it: plain integer tuples. The
// oracle shares no code with the program's executors; it evaluates the
// benchmark's own plan trees by nested loops and hash sets.
type rows struct {
	width int
	tups  [][]int64
}

// plan is one relational-algebra expression of the benchmark. It renders
// itself in the daemon's plan text and evaluates itself naively.
type plan interface {
	text() string
	eval(db map[string]rows) rows
}

type scanP struct{ name string }

type selectP struct {
	child plan
	col   int
	op    string // "<" or ">="
	val   int64
}

type joinP struct {
	l, r  plan
	pairs [][2]int // equi-join column pairs (left, right)
}

type setP struct {
	kind string // intersect | difference | union
	l, r plan
}

type dedupP struct{ child plan }

type projectP struct {
	child plan
	cols  []int
}

type divideP struct {
	l, r            plan
	quot, div, byCs []int
}

func scan(name string) plan { return scanP{name} }

func (p scanP) text() string { return "scan(" + p.name + ")" }
func (p scanP) eval(db map[string]rows) rows {
	r, ok := db[p.name]
	if !ok {
		panic("oracle: unknown relation " + p.name)
	}
	return r
}

func (p selectP) text() string {
	return fmt.Sprintf("select(%s, %d%s%d)", p.child.text(), p.col, p.op, p.val)
}
func (p selectP) eval(db map[string]rows) rows {
	in := p.child.eval(db)
	out := rows{width: in.width}
	for _, t := range in.tups {
		v := t[p.col]
		if (p.op == "<" && v < p.val) || (p.op == ">=" && v >= p.val) {
			out.tups = append(out.tups, t)
		}
	}
	return out
}

func (p joinP) text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "join(%s, %s", p.l.text(), p.r.text())
	for _, pr := range p.pairs {
		fmt.Fprintf(&sb, ", %d=%d", pr[0], pr[1])
	}
	sb.WriteString(")")
	return sb.String()
}

// eval concatenates every matching pair, dropping the right side's join
// columns (the equi-join convention of the paper's §6.1).
func (p joinP) eval(db map[string]rows) rows {
	l, r := p.l.eval(db), p.r.eval(db)
	drop := map[int]bool{}
	for _, pr := range p.pairs {
		drop[pr[1]] = true
	}
	out := rows{width: l.width + r.width - len(drop)}
	for _, a := range l.tups {
		for _, b := range r.tups {
			match := true
			for _, pr := range p.pairs {
				if a[pr[0]] != b[pr[1]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			t := append([]int64(nil), a...)
			for k, v := range b {
				if !drop[k] {
					t = append(t, v)
				}
			}
			out.tups = append(out.tups, t)
		}
	}
	return out
}

func (p setP) text() string { return fmt.Sprintf("%s(%s, %s)", p.kind, p.l.text(), p.r.text()) }
func (p setP) eval(db map[string]rows) rows {
	l, r := p.l.eval(db), p.r.eval(db)
	if p.kind == "union" {
		return distinct(rows{width: l.width, tups: append(append([][]int64(nil), l.tups...), r.tups...)})
	}
	in := map[string]bool{}
	for _, t := range r.tups {
		in[key(t)] = true
	}
	out := rows{width: l.width}
	for _, t := range l.tups {
		if in[key(t)] == (p.kind == "intersect") {
			out.tups = append(out.tups, t)
		}
	}
	return out
}

func (p dedupP) text() string                 { return "dedup(" + p.child.text() + ")" }
func (p dedupP) eval(db map[string]rows) rows { return distinct(p.child.eval(db)) }

func (p projectP) text() string {
	return fmt.Sprintf("project(%s, %s)", p.child.text(), joinInts(p.cols, ", "))
}
func (p projectP) eval(db map[string]rows) rows {
	in := p.child.eval(db)
	out := rows{width: len(p.cols)}
	for _, t := range in.tups {
		out.tups = append(out.tups, pick(t, p.cols))
	}
	return distinct(out)
}

func (p divideP) text() string {
	return fmt.Sprintf("divide(%s, %s, quot=%s, div=%s, by=%s)", p.l.text(), p.r.text(),
		joinInts(p.quot, "+"), joinInts(p.div, "+"), joinInts(p.byCs, "+"))
}

// eval keeps each distinct quotient value whose set of divided values
// covers every divisor tuple.
func (p divideP) eval(db map[string]rows) rows {
	a, b := p.l.eval(db), p.r.eval(db)
	seen := map[string]map[string]bool{}
	var order [][]int64
	for _, t := range a.tups {
		x := pick(t, p.quot)
		k := key(x)
		if seen[k] == nil {
			seen[k] = map[string]bool{}
			order = append(order, x)
		}
		seen[k][key(pick(t, p.div))] = true
	}
	out := rows{width: len(p.quot)}
	for _, x := range order {
		ys := seen[key(x)]
		all := true
		for _, t := range b.tups {
			if !ys[key(pick(t, p.byCs))] {
				all = false
				break
			}
		}
		if all {
			out.tups = append(out.tups, x)
		}
	}
	return out
}

func distinct(in rows) rows {
	seen := map[string]bool{}
	out := rows{width: in.width}
	for _, t := range in.tups {
		if k := key(t); !seen[k] {
			seen[k] = true
			out.tups = append(out.tups, t)
		}
	}
	return out
}

func pick(t []int64, cols []int) []int64 {
	out := make([]int64, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// key renders a tuple the way the daemon's text tables do: decimal
// fields separated by TABs.
func key(t []int64) string {
	var sb strings.Builder
	for i, v := range t {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString(strconv.FormatInt(v, 10))
	}
	return sb.String()
}

func joinInts(xs []int, sep string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, sep)
}

// answer is what a correct reply must carry: its row count and a digest
// of its rows that does not depend on their order.
type answer struct {
	rows   int
	digest uint64
}

func (a answer) String() string { return fmt.Sprintf("%d rows, digest %016x", a.rows, a.digest) }

// add counts one row line into the digest: the sum of the rows' mixed
// FNV-1a hashes, so the same multiset of rows in any order digests the
// same.
func (a *answer) add(line string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(line); i++ {
		h ^= uint64(line[i])
		h *= 1099511628211
	}
	// splitmix64 finaliser, so sums of related lines do not cancel.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	a.rows++
	a.digest += h
}

func answerOf(r rows) answer {
	var a answer
	for _, t := range r.tups {
		a.add(key(t))
	}
	return a
}

// answerOfTable digests a text table as the daemon returns it: comment
// lines and the header are skipped, every other line is one row.
func answerOfTable(table string) answer {
	var a answer
	header := false
	for table != "" {
		line, rest, _ := strings.Cut(table, "\n")
		table = rest
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if !header {
			header = true
			continue
		}
		a.add(line)
	}
	return a
}
