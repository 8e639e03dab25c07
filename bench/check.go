package main

import (
	"fmt"
	"math/rand"
	"sort"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// The oracle is the benchmark's own statement of what the pipeline must
// return. It shares no code with internal/sql, internal/plan or
// internal/engine beyond reading column slices: the join is a direct
// o_orderkey lookup, the filter is predicate.Eval on the ORIGINAL WHERE
// predicate one tuple at a time, and results are compared as order-free
// fingerprints, so no plan shape, operator order or parallel schedule can
// hide a dropped, duplicated or altered row. It runs outside timed regions.

// rowsum fingerprints a multiset of rows: the row count plus a wrapping sum
// of per-row hashes, each built from (column name, value, null flag)
// triples so neither row order nor column order matters.
type rowsum struct {
	Rows int
	Sum  uint64
}

func (a rowsum) String() string { return fmt.Sprintf("%d rows, checksum %016x", a.Rows, a.Sum) }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nameSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return mix64(h)
}

// cellHash hashes one integer cell under its column's seed.
func cellHash(seed uint64, v int64, null bool) uint64 {
	if null {
		return mix64(seed ^ 0x9e3779b97f4a7c15)
	}
	return mix64(seed + uint64(v)*0x9e3779b97f4a7c15)
}

// tableSum fingerprints an engine table. Every column the workloads
// produce is integral (keys, dates, counts, prices in cents).
func tableSum(t *engine.Table) (rowsum, error) {
	cols := t.Schema().Columns()
	n := t.NumRows()
	rows := make([]uint64, n)
	for _, c := range cols {
		if !c.Type.Integral() {
			return rowsum{}, fmt.Errorf("bench: oracle cannot fingerprint non-integral column %s", c.Name)
		}
		seed := nameSeed(c.Name)
		vals, nulls := t.Ints(c.Name), t.Nulls(c.Name)
		for r := 0; r < n; r++ {
			rows[r] += cellHash(seed, vals[r], nulls != nil && nulls[r])
		}
	}
	out := rowsum{Rows: n}
	for _, h := range rows {
		out.Sum += mix64(h)
	}
	return out, nil
}

// column is one named integer column of an oracle table.
type column struct {
	seed uint64
	name string
	vals []int64
}

// oracleData is the oracle's view of one orders/lineitem pair: plain
// column slices plus an order-key index.
type oracleData struct {
	orders, lineitem []column
	nLineitem        int
	orderRow         map[int64]int // o_orderkey → orders row
	lOrderKey        []int64
	lLineNumber      []int64
}

func columnsOf(t *engine.Table) []column {
	var out []column
	for _, c := range t.Schema().Columns() {
		out = append(out, column{seed: nameSeed(c.Name), name: c.Name, vals: t.Ints(c.Name)})
	}
	return out
}

func newOracleData(orders, lineitem *engine.Table) *oracleData {
	d := &oracleData{
		orders:      columnsOf(orders),
		lineitem:    columnsOf(lineitem),
		nLineitem:   lineitem.NumRows(),
		orderRow:    make(map[int64]int, orders.NumRows()),
		lOrderKey:   lineitem.Ints("l_orderkey"),
		lLineNumber: lineitem.Ints("l_linenumber"),
	}
	for r, k := range orders.Ints("o_orderkey") {
		d.orderRow[k] = r
	}
	return d
}

// reference is what the two statement forms must return for one predicate.
type reference struct {
	star rowsum // SELECT * FROM lineitem, orders WHERE key = key AND p
	agg  rowsum // SELECT COUNT(*) … GROUP BY l_linenumber
}

// evaluate computes both statement forms' answers for predicate p in one
// pass over the joined tuples.
func (d *oracleData) evaluate(p predicate.Predicate) reference {
	want := map[string]bool{}
	for _, c := range predicate.Columns(p) {
		want[c] = true
	}
	var lUsed, oUsed []column
	for _, c := range d.lineitem {
		if want[c.name] {
			lUsed = append(lUsed, c)
		}
	}
	for _, c := range d.orders {
		if want[c.name] {
			oUsed = append(oUsed, c)
		}
	}
	tup := predicate.Tuple{}
	groups := map[int64]int64{}
	var ref reference
	for r := 0; r < d.nLineitem; r++ {
		or, ok := d.orderRow[d.lOrderKey[r]]
		if !ok {
			continue // inner join: no matching order
		}
		for _, c := range lUsed {
			tup[c.name] = predicate.IntVal(c.vals[r])
		}
		for _, c := range oUsed {
			tup[c.name] = predicate.IntVal(c.vals[or])
		}
		if !predicate.Satisfies(p, tup) {
			continue
		}
		var h uint64
		for _, c := range d.lineitem {
			h += cellHash(c.seed, c.vals[r], false)
		}
		for _, c := range d.orders {
			h += cellHash(c.seed, c.vals[or], false)
		}
		ref.star.Rows++
		ref.star.Sum += mix64(h)
		groups[d.lLineNumber[r]]++
	}
	gSeed, cSeed := nameSeed("l_linenumber"), nameSeed("count")
	for g, n := range groups {
		ref.agg.Rows++
		ref.agg.Sum += mix64(cellHash(gSeed, g, false) + cellHash(cSeed, n, false))
	}
	return ref
}

// implicationSamples are joined tuples on which a learned predicate p₁ is
// tested against its source p: half are real lineitem⋈orders rows (the
// TPC-H date correlations), half draw every date independently around the
// order date so regions the data never visits are probed too.
type implicationSamples []predicate.Tuple

var dateCols = []string{"l_shipdate", "l_commitdate", "l_receiptdate"}

func newImplicationSamples(d *oracleData, n int, rng *rand.Rand) implicationSamples {
	col := func(cols []column, name string) []int64 {
		for _, c := range cols {
			if c.name == name {
				return c.vals
			}
		}
		return nil
	}
	oDate := col(d.orders, "o_orderdate")
	out := make(implicationSamples, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(d.nLineitem)
		or := d.orderRow[d.lOrderKey[r]]
		t := predicate.Tuple{"o_orderdate": predicate.IntVal(oDate[or])}
		for _, c := range dateCols {
			v := col(d.lineitem, c)[r]
			if i%2 == 1 {
				v = oDate[or] - 200 + rng.Int63n(501)
			}
			t[c] = predicate.IntVal(v)
		}
		out = append(out, t)
	}
	return out
}

// violation returns a sampled tuple that satisfies p but not learned, or
// nil: p ⟹ learned must hold on every tuple or the rewrite loses rows.
func (s implicationSamples) violation(p, learned predicate.Predicate) predicate.Tuple {
	for _, t := range s {
		if predicate.Satisfies(p, t) && !predicate.Satisfies(learned, t) {
			return t
		}
	}
	return nil
}

// findings collects the oracle's comparisons; each one that does not hold
// counts as one failed operation.
type findings struct {
	checks int
	msgs   []string
}

// check records one comparison and, if it did not hold, why.
func (f *findings) check(ok bool, format string, args ...any) {
	f.checks++
	if !ok {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *findings) expect(what string, got, want rowsum) {
	f.check(got == want, "%s: got %s, want %s", what, got, want)
}

func (f *findings) failed() int { return len(f.msgs) }

func formatTuple(t predicate.Tuple) string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, t[n].Int)
	}
	return s
}
