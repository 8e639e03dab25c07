package engine

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

// joinTestTable builds a table for the join tests: a nullable key column
// name+"k" over keySpace values, with duplicates, where hotFrac of the rows
// hold the single key 7; two NOT NULL columns name+"a", name+"b"; and a
// nullable column name+"n".
func joinTestTable(r *rand.Rand, name string, rows, keySpace int, hotFrac float64) *Table {
	s := predicate.NewSchema(
		predicate.Column{Name: name + "k", Type: predicate.TypeInteger},
		predicate.Column{Name: name + "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: name + "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: name + "n", Type: predicate.TypeInteger},
	)
	t := NewTable(name, s)
	for i := 0; i < rows; i++ {
		key := predicate.IntVal(int64(r.Intn(keySpace)))
		switch {
		case r.Float64() < hotFrac:
			key = predicate.IntVal(7)
		case r.Intn(10) == 0:
			key = predicate.NullValue()
		}
		nv := predicate.IntVal(int64(r.Intn(50) - 25))
		if r.Intn(4) == 0 {
			nv = predicate.NullValue()
		}
		t.AppendRow(key, predicate.IntVal(int64(r.Intn(200)-100)), predicate.IntVal(int64(r.Intn(200)-100)), nv)
	}
	return t
}

// writeCell appends one column=value cell of a rendered row.
func writeCell(sb *strings.Builder, name string, v predicate.Value) {
	if v.Null {
		fmt.Fprintf(sb, "%s=NULL ", name)
	} else {
		fmt.Fprintf(sb, "%s=%d ", name, v.Int)
	}
}

// rowStrings renders a table as a sorted multiset of rows, each a list of
// column=value in column-name order, so tables that differ only in row or
// column order compare equal.
func rowStrings(t *Table) []string {
	names := append([]string(nil), t.order...)
	sort.Strings(names)
	out := make([]string, t.nRows)
	var sb strings.Builder
	for row := range out {
		sb.Reset()
		for _, name := range names {
			writeCell(&sb, name, t.Value(row, name))
		}
		out[row] = sb.String()
	}
	sort.Strings(out)
	return out
}

// nestedLoopJoin is the reference: every pair of accepted rows with equal
// keys (the right side's rows grouped by key in a Go map, not the
// engine's join table), predicate.Eval for the side predicates and the
// residual, no early exit. It returns the projected rows in rowStrings
// form.
func nestedLoopJoin(l, r *Table, spec JoinSpec) ([]string, JoinStats) {
	accepted := func(t *Table, key string, pred predicate.Predicate) []int {
		var rows []int
		for row := 0; row < t.nRows; row++ {
			if t.Value(row, key).Null {
				continue
			}
			if pred != nil && predicate.Eval(pred, t.Tuple(row)) != predicate.True {
				continue
			}
			rows = append(rows, row)
		}
		return rows
	}
	lrows, rrows := accepted(l, spec.LeftKey, spec.LeftPred), accepted(r, spec.RightKey, spec.RightPred)
	stats := JoinStats{LeftIn: len(lrows), RightIn: len(rrows)}
	names := append(append([]string(nil), l.order...), r.order...)
	if spec.Cols != nil {
		names = append([]string(nil), spec.Cols...)
	}
	sort.Strings(names)
	lk, rk := l.Ints(spec.LeftKey), r.Ints(spec.RightKey)
	byKey := map[int64][]int{}
	for _, rrow := range rrows {
		byKey[rk[rrow]] = append(byKey[rk[rrow]], rrow)
	}
	out := []string{}
	var sb strings.Builder
	for _, lrow := range lrows {
		for _, rrow := range byKey[lk[lrow]] {
			tu := l.Tuple(lrow)
			for name, v := range r.Tuple(rrow) {
				tu[name] = v
			}
			if spec.Residual != nil && predicate.Eval(spec.Residual, tu) != predicate.True {
				continue
			}
			sb.Reset()
			for i, name := range names {
				if i > 0 && names[i-1] == name {
					continue
				}
				writeCell(&sb, name, tu[name])
			}
			out = append(out, sb.String())
		}
	}
	sort.Strings(out)
	return out, stats
}

func sameStrings(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("row %d of the sorted rows: %q vs %q", i, a[i], b[i])
		}
	}
	return nil
}

// TestHashJoinAgainstNestedLoop is the differential and metamorphic test
// of the join: every case agrees with the nested-loop reference in rows
// and in JoinStats, is byte-identical at every parLevels width, and yields
// the same row multiset with l and r swapped. Every case runs twice: first
// drawing its scratch from poisoned pools, so a recycled array read before
// it is written shows, then from the pools as the joins leave them. The
// poisoned round goes first: a stale chain can loop, a poisoned one
// indexes out of range.
func TestHashJoinAgainstNestedLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	l := joinTestTable(rnd, "l", 2*morselRows+77, 900, 0)
	r := joinTestTable(rnd, "r", morselRows+33, 600, 0)
	hotL := joinTestTable(rnd, "l", morselRows+500, 400, 0.5)
	hotR := joinTestTable(rnd, "r", 300, 400, 0.5)
	empty := NewTable("r", r.Schema())
	both := predicate.Merge(l.Schema(), r.Schema())
	parse := func(src string, s *predicate.Schema) predicate.Predicate {
		if src == "" {
			return nil
		}
		return predtest.MustParse(src, s)
	}
	cases := []struct {
		name                  string
		l, r                  *Table
		lpred, rpred, residue string
		cols                  []string
	}{
		{name: "plain", l: l, r: r},
		{name: "side predicates", l: l, r: r, lpred: "la - lb < 40", rpred: "ra > -60 OR rn > 0"},
		{name: "selective left builds", l: l, r: r, lpred: "la < -90"},
		{name: "hot key", l: hotL, r: hotR},
		{name: "hot key cut by a residual", l: hotL, r: hotR, residue: "la - rb < -150", cols: []string{"lb", "rn"}},
		{name: "empty right", l: l, r: empty, lpred: "la < 50"},
		{name: "empty left", l: NewTable("l", l.Schema()), r: r, residue: "la < ra"},
		{name: "all-rejecting side predicate", l: l, r: r, lpred: "la > 1000", rpred: "ra > 0"},
		{name: "residual kernels", l: l, r: r, lpred: "la < 20", residue: "la - ra < 10 AND lb + rb > -20"},
		{name: "residual TRUE", l: l, r: r, residue: "TRUE"},
		{name: "residual FALSE", l: l, r: r, residue: "FALSE"},
		{name: "residual Unknown on NULLs", l: l, r: r, residue: "ln = rn"},
		{name: "residual OR over NULLs", l: l, r: r, residue: "ln > 0 OR rn < 0 OR la - ra > 150"},
		{name: "residual NOT over NULLs", l: l, r: r, residue: "NOT (ln < rn)"},
		{name: "opaque residual leaf", l: l, r: r, residue: "la * rb > 0 AND lb < ra"},
		{name: "residual on one side only", l: l, r: r, residue: "ra < 0"},
		{name: "no columns", l: l, r: r, rpred: "ra < 0", cols: []string{}},
		{name: "keys not requested", l: l, r: r, residue: "la < ra", cols: []string{"rb", "ln", "la"}},
		{name: "only the keys", l: l, r: r, cols: []string{"lk", "rk"}},
		{name: "one side's columns", l: l, r: r, residue: "ln <> rn", cols: []string{"rn", "ra", "ra"}},
	}
	// Each case's nested loop runs once; its rows are never nil.
	wants, wantStats := make([][]string, len(cases)), make([]JoinStats, len(cases))
	// check runs case i, calling prepare before its first join.
	check := func(t *testing.T, i int, prepare func()) {
		c := cases[i]
		spec := JoinSpec{
			LeftKey: "lk", RightKey: "rk",
			LeftPred: parse(c.lpred, c.l.Schema()), RightPred: parse(c.rpred, c.r.Schema()),
			Residual: parse(c.residue, both), Cols: c.cols,
		}
		if wants[i] == nil {
			wants[i], wantStats[i] = nestedLoopJoin(c.l, c.r, spec)
		}
		want := wants[i]
		prepare()
		ref, refStats, err := HashJoinWherePar(c.l, c.r, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if refStats != wantStats[i] {
			t.Errorf("stats %+v, nested loop %+v", refStats, wantStats[i])
		}
		if err := sameStrings(rowStrings(ref), want); err != nil {
			t.Fatalf("join vs nested loop: %v", err)
		}
		wantWidth := len(c.l.order) + len(c.r.order)
		if c.cols != nil {
			set := map[string]bool{}
			for _, name := range c.cols {
				set[name] = true
			}
			wantWidth = len(set)
		}
		if got := len(ref.Schema().Columns()); got != wantWidth {
			t.Errorf("output has %d columns, want %d", got, wantWidth)
		}
		for _, par := range parLevels() {
			out, stats, err := HashJoinWherePar(c.l, c.r, spec, par)
			if err != nil {
				t.Fatal(err)
			}
			if stats != refStats {
				t.Errorf("par=%d: stats %+v vs %+v", par, stats, refStats)
			}
			if err := equalTables(ref, out); err != nil {
				t.Fatalf("par=%d: join differs: %v", par, err)
			}
		}
		swapped, swStats, err := HashJoinWherePar(c.r, c.l, JoinSpec{
			LeftKey: "rk", RightKey: "lk",
			LeftPred: spec.RightPred, RightPred: spec.LeftPred,
			Residual: spec.Residual, Cols: spec.Cols,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if swStats.LeftIn != refStats.RightIn || swStats.RightIn != refStats.LeftIn {
			t.Errorf("swapped stats %+v vs %+v", swStats, refStats)
		}
		if err := sameStrings(rowStrings(swapped), want); err != nil {
			t.Fatalf("swapped join vs nested loop: %v", err)
		}
	}
	t.Run("poisoned pools", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for i, c := range cases {
			t.Run(c.name, func(t *testing.T) { check(t, i, func() { poisonPools(poisonMaxClass) }) })
		}
	})
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) { check(t, i, func() {}) })
	}
}

// TestHashJoinBuildsOnTheSmallerAcceptedSide pins the build-side rule to
// the post-filter counts: the output lists pairs probe row by probe row, so
// its order tells which side probed.
func TestHashJoinBuildsOnTheSmallerAcceptedSide(t *testing.T) {
	big := buildSmall(t, [][2]int64{{1, 1}, {2, 2}, {2, 3}, {3, 4}, {3, 5}})
	rs := predicate.NewSchema(predicate.Column{Name: "rid", Type: predicate.TypeInteger, NotNull: true})
	small := NewTable("r", rs)
	for _, k := range []int64{3, 2, 2} {
		small.AppendRow(predicate.IntVal(k))
	}
	order := func(spec JoinSpec) string {
		out, _, err := HashJoinWherePar(big, small, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for row := 0; row < out.NumRows(); row++ {
			fmt.Fprintf(&sb, "%d ", out.Value(row, "v").Int)
		}
		return sb.String()
	}
	// Unfiltered, the 3-row table builds and the 5-row table probes in row order.
	if got := order(JoinSpec{LeftKey: "id", RightKey: "rid"}); got != "2 2 3 3 4 5 " {
		t.Errorf("unfiltered order %q", got)
	}
	// With id = 3 only two rows of the bigger table are accepted: it builds.
	pred := predtest.MustParse("id = 3", big.Schema())
	if got := order(JoinSpec{LeftKey: "id", RightKey: "rid", LeftPred: pred}); got != "4 5 " {
		t.Errorf("filtered order %q", got)
	}
	// A tie goes to the left argument: three accepted rows each.
	pred = predtest.MustParse("v >= 3", big.Schema())
	if got := order(JoinSpec{LeftKey: "id", RightKey: "rid", LeftPred: pred}); got != "4 5 3 3 " {
		t.Errorf("tied order %q", got)
	}
}

func TestHashJoinRejectsUnknownColumns(t *testing.T) {
	l := buildSmall(t, [][2]int64{{1, 1}})
	rs := predicate.NewSchema(predicate.Column{Name: "rid", Type: predicate.TypeInteger, NotNull: true})
	r := NewTable("r", rs)
	r.AppendRow(predicate.IntVal(1))
	nope := predicate.Cmp(predicate.CmpLT, predicate.Col("nope", predicate.TypeInteger), predicate.IntConst(0))
	for _, spec := range []JoinSpec{
		{LeftKey: "id", RightKey: "nope"},
		{LeftKey: "id", RightKey: "rid", Cols: []string{"nope"}},
		{LeftKey: "id", RightKey: "rid", Residual: nope},
	} {
		if _, _, err := HashJoinWherePar(l, r, spec, 1); err == nil {
			t.Errorf("%+v: want an error", spec)
		}
	}
}
