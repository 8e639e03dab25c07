package engine

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

// poisonMaxClass is the largest capacity class, as a power of two, that
// poisonPools fills: enough for every array sized by the rows of a test
// table. Only the hot-key joins' pair lists are larger.
const poisonMaxClass = 16

// poisonPools empties the engine's pools, then fills every capacity class
// up to 1<<maxClass of each with arrays holding a value no operator
// leaves in a slot it reads: -1 in int64 columns and row lists,
// 0x7fffffff in the join table's slots, NaN in DOUBLE columns, and
// bitmaps all true in half of them and all false in the other half. An
// operator that reads a recycled slot before writing it then returns rows
// the data does not have, or indexes out of range. The caller keeps the
// collector off so the pools hold what they are given.
func poisonPools(maxClass int) {
	// A collection moves the pools' contents to their victim caches and
	// the next drops them, so only the poisoned arrays are left to draw.
	runtime.GC()
	runtime.GC()
	for k := 0; k <= maxClass; k++ {
		for i := 0; i < 4; i++ { // a few of each, for the workers drawing at once
			n := 1 << k
			intPool.Put(filled(n, int64(-1)))
			rowPool.Put(filled(n, -1))
			slotPool.Put(filled(n, int32(math.MaxInt32)))
			realPool.Put(filled(n, math.NaN()))
			nullPool.Put(filled(n, i%2 == 0))
		}
	}
}

func filled[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestFilterParAgainstEval checks FilterPar over the join tests' tables
// against predicate.Eval row by row, at every parLevels width: first with
// each case drawing its bitmap, OR scratch and row list from poisoned
// pools, then from the pools as the filters leave them.
func TestFilterParAgainstEval(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	l := joinTestTable(rnd, "l", 2*morselRows+77, 900, 0)
	r := joinTestTable(rnd, "r", morselRows+33, 600, 0)
	cases := []struct {
		t    *Table
		pred string
	}{
		{l, "la - lb < 40"},
		{l, "la < -90"},
		{l, "la > 1000"},
		{l, "ln > 0 OR (la < 0 AND (lb > 10 OR lk = 7))"},
		{r, "ra > -60 OR rn > 0"},
		{r, "NOT (rn < ra)"},
	}
	// check runs one case, calling prepare before its first filter.
	check := func(t *testing.T, tab *Table, text string, prepare func()) {
		p := predtest.MustParse(text, tab.Schema())
		var keep []int
		for row := 0; row < tab.nRows; row++ {
			if predicate.Eval(p, tab.Tuple(row)) == predicate.True {
				keep = append(keep, row)
			}
		}
		want, err := ReorderRows(tab, keep, 1)
		if err != nil {
			t.Fatal(err)
		}
		prepare()
		for _, par := range parLevels() {
			if err := equalTables(want, FilterPar(tab, p, par)); err != nil {
				t.Fatalf("par=%d: FilterPar(%s) differs from Eval: %v", par, text, err)
			}
		}
	}
	gc := debug.SetGCPercent(-1)
	for _, c := range cases {
		check(t, c.t, c.pred, func() { poisonPools(poisonMaxClass) })
	}
	debug.SetGCPercent(gc)
	for _, c := range cases {
		check(t, c.t, c.pred, func() {})
	}
}
