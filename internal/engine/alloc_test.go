package engine

import (
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

// The tests in this file pin the engine's per-row kernels at zero
// allocations on fixed inputs. Together they cover every statement of the
// kernels (go test -run Allocs -cover), so a heap allocation added to any
// kernel loop fails one of them.

// allocRows is the row count of the fixed inputs: enough rows that a
// per-row allocation cannot hide in a rounding of AllocsPerRun's average.
const allocRows = 64

// wantAllocs fails t unless f allocates exactly want times per call.
func wantAllocs(t *testing.T, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, f); got != want {
		t.Errorf("%v allocs/op, want %v", got, want)
	}
}

// allocTable has three NOT NULL integer columns for the kernels, a
// nullable integer column that forces the Eval leaf, and a nullable
// DOUBLE column for the float and NULL gather loops.
func allocTable() *Table {
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "n", Type: predicate.TypeInteger},
		predicate.Column{Name: "x", Type: predicate.TypeDouble},
	)
	tab := NewTable("t", s)
	for i := 0; i < allocRows; i++ {
		n, x := predicate.IntVal(int64(i%7)), predicate.RealVal(float64(i)/4)
		if i%5 == 0 {
			n, x = predicate.NullValue(), predicate.NullValue()
		}
		tab.AppendRow(predicate.IntVal(int64(i%11-5)), predicate.IntVal(int64(i%13-6)), predicate.IntVal(int64(i%3)), n, x)
	}
	return tab
}

// TestBoundNodeRunAllocs runs (*boundNode).run over every node shape:
// vectorLT with 0, 1, 2 and 3 columns and each ±1 coefficient special
// case, vectorEQ with and without negate, AND, OR nested two deep with its
// scratch supplied, and the row-wise Eval leaf, whose per-row
// predicate.Tuple map stays on the stack once Table.Tuple is inlined into
// run. Each case checks it bound to the shape it names, and a quarter of
// the rows start rejected so the kernels' skip branches run too.
func TestBoundNodeRunAllocs(t *testing.T) {
	tab := allocTable()
	cases := []struct {
		pred  string
		op    nodeOp
		coefs []int64 // the leaf's coefficients after binding; nil skips the check
	}{
		{"a - a < 1", nodeLT, []int64{}},
		{"a - a > 1", nodeLT, []int64{}},
		{"a < 3", nodeLT, []int64{1}},
		{"a > 3", nodeLT, []int64{-1}},
		{"2*a < 3", nodeLT, []int64{2}},
		{"a - b < 2", nodeLT, []int64{1, -1}},
		{"a - b > 2", nodeLT, []int64{-1, 1}},
		{"2*a - 3*b < 2", nodeLT, []int64{2, -3}},
		{"2*a - 3*b + c < 10", nodeLT, []int64{2, -3, 1}},
		{"a + c = b", nodeEQ, nil},
		{"a + c <> b", nodeEQ, nil},
		{"a < 3 AND b > -2", nodeAnd, nil},
		{"a < -2 OR (b > 0 AND (c > 1 OR a = b))", nodeOr, nil},
		{"n < 4", nodeEval, nil},
	}
	sel := make([]bool, allocRows)
	for _, tc := range cases {
		t.Run(tc.pred, func(t *testing.T) {
			n := bind(tab, predicate.Compile(predtest.MustParse(tc.pred, tab.schema)))
			if n.op != tc.op {
				t.Fatalf("bound to op %d, want %d", n.op, tc.op)
			}
			if tc.coefs != nil && (len(n.coefs) != len(tc.coefs) || len(n.cols) != len(tc.coefs)) {
				t.Fatalf("bound %d columns with coefficients %v, want %v", len(n.cols), n.coefs, tc.coefs)
			}
			for i, c := range tc.coefs {
				if n.coefs[i] != c {
					t.Fatalf("bound coefficients %v, want %v", n.coefs, tc.coefs)
				}
			}
			scratch := make([]bool, 2*n.orDepth*len(sel))
			wantAllocs(t, 0, func() {
				for i := range sel {
					sel[i] = i%4 != 0
				}
				n.run(tab, sel, 0, scratch)
			})
		})
	}
}

// TestGatherAllocs gathers an integer column, and a DOUBLE column with its
// NULL bitmap, by a row list.
func TestGatherAllocs(t *testing.T) {
	tab := allocTable()
	rows := make([]int, allocRows)
	for i := range rows {
		rows[i] = (i * 7) % allocRows
	}
	for _, name := range []string{"a", "x"} {
		src := tab.cols[name]
		dst := &colData{typ: src.typ}
		dst.allocLike(src, len(rows))
		wantAllocs(t, 0, func() { dst.gather(src, rows, 0, len(rows)) })
	}
}

// joinFixture is a small build side whose 40 distinct keys, each on one or
// two rows, hash into 64 slots, so chains hold both equal and colliding
// keys; and a probe key column with hits (keys below 40) and misses.
type joinFixture struct {
	build  *joinSide
	jt     *joinTable
	runs   []int32 // the build rows in partition order, as scatter leaves them
	starts []int   // each partition's first offset in runs
	pk     []int64
}

func newJoinFixture(t *testing.T) *joinFixture {
	t.Helper()
	s := predicate.NewSchema(predicate.Column{Name: "k", Type: predicate.TypeInteger, NotNull: true})
	bt, pt := NewTable("b", s), NewTable("p", s)
	for i := 0; i < allocRows; i++ {
		bt.AppendRow(predicate.IntVal(int64(i % 40)))
		pt.AppendRow(predicate.IntVal(int64(i % 50)))
	}
	build, err := newJoinSide(bt, "k", "build")
	if err != nil {
		t.Fatal(err)
	}
	build.in = bt.nRows
	f := &joinFixture{build: build, jt: buildJoinTable(build, 1), pk: pt.cols["k"].ints}
	nPart := f.jt.partition(^uint64(0)) + 1
	counts := make([]int, nPart)
	f.jt.histogram(counts, nil, 0, build.in)
	f.starts = make([]int, nPart)
	for p := 1; p < nPart; p++ {
		f.starts[p] = f.starts[p-1] + counts[p-1]
	}
	f.runs = make([]int32, build.in)
	offsets := append([]int(nil), f.starts...)
	f.jt.scatter(f.runs, offsets, nil, 0, build.in)
	return f
}

// allRows lists 0..n-1, the explicit form of a side whose every row takes
// part, for the rows != nil paths.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestJoinHistogramAllocs(t *testing.T) {
	f := newJoinFixture(t)
	counts := make([]int, len(f.starts))
	for _, rows := range [][]int{nil, allRows(f.build.in)} {
		wantAllocs(t, 0, func() {
			clear(counts)
			f.jt.histogram(counts, rows, 0, f.build.in)
		})
	}
}

func TestJoinScatterAllocs(t *testing.T) {
	f := newJoinFixture(t)
	offsets := make([]int, len(f.starts))
	for _, rows := range [][]int{nil, allRows(f.build.in)} {
		wantAllocs(t, 0, func() {
			copy(offsets, f.starts)
			f.jt.scatter(f.runs, offsets, rows, 0, f.build.in)
		})
	}
}

func TestJoinInsertAllocs(t *testing.T) {
	f := newJoinFixture(t)
	wantAllocs(t, 0, func() {
		clear(f.jt.head)
		f.jt.insert(f.runs)
	})
}

func TestJoinCountAllocs(t *testing.T) {
	f := newJoinFixture(t)
	first, matches := make([]int32, allocRows), make([]int32, allocRows)
	for _, rows := range [][]int{nil, allRows(allocRows)} {
		wantAllocs(t, 0, func() { f.jt.count(f.pk, rows, 0, allocRows, first, matches) })
	}
}

func TestJoinFillAllocs(t *testing.T) {
	f := newJoinFixture(t)
	first, matches := make([]int32, allocRows), make([]int32, allocRows)
	c := f.jt.count(f.pk, nil, 0, allocRows, first, matches)
	if c == 0 || c == allocRows {
		t.Fatalf("the probe matched %d pairs; the fixture needs hits and misses", c)
	}
	brows, prows := make([]int, c), make([]int, c)
	for _, rows := range [][]int{nil, allRows(allocRows)} {
		wantAllocs(t, 0, func() { f.jt.fill(f.pk, rows, 0, allocRows, first, matches, brows, prows) })
	}
}

func TestCompactPairsAllocs(t *testing.T) {
	sel := make([]bool, allocRows)
	brows, prows := allRows(allocRows), allRows(allocRows)
	for i := range sel {
		sel[i] = i%3 != 0
	}
	wantAllocs(t, 0, func() { compactPairs(sel, brows, prows) })
}

// TestSlicePoolRoundTripAllocs pins a warm Get and Put at zero
// allocations: the pointer a class keeps a slice in is recycled with it.
func TestSlicePoolRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	var p SlicePool[int64]
	for _, n := range []int{0, 1, 1000, morselRows} {
		wantAllocs(t, 0, func() { p.Put(p.Get(n)) })
	}
}
