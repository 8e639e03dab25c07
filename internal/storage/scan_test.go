package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"sia/internal/engine"
	"sia/internal/obs"
	"sia/internal/predicate"
	"sia/internal/predtest"
)

// segmentTable appends full to a new SegmentTable in segments of segRows
// rows.
func segmentTable(t *testing.T, full *engine.Table, segRows int) *SegmentTable {
	t.Helper()
	st, err := Open(t.TempDir(), full.Name, full.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < full.NumRows(); lo += segRows {
		if err := st.AppendRange(full, lo, min(lo+segRows, full.NumRows())); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// filterProject is what Scan(ScanSpec{p, cols}) must return: FilterPar over
// the materialized table (all of it when p is nil), projected to cols.
func filterProject(t *testing.T, full *engine.Table, p predicate.Predicate, cols []string) *engine.Table {
	t.Helper()
	want := full
	if p != nil {
		want = engine.FilterPar(full, p, 1)
	}
	if cols == nil {
		return want
	}
	want, err := engine.ProjectPar(want, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// countersSchema is k, v, w (NOT NULL integers) and a nullable DOUBLE x.
func countersSchema() *predicate.Schema {
	return predicate.NewSchema(
		predicate.Column{Name: "k", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "v", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "w", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "x", Type: predicate.TypeDouble},
	)
}

// TestScanCounters pins the counters one Scan moves over four segments of
// 100 rows that k >= 100 AND v < w meets in each of the four ways: segment
// 0 (k < 100) is pruned, segment 1 (v < w on the zone maps) matches whole,
// segment 2 keeps every other row, and segment 3 (v = w) selects none.
// Asked for k and x, the scan reads no page of segment 0, the k and x pages
// of segment 1, all four of segment 2 and the predicate's three of segment
// 3; the engine evaluates the predicate on segments 2 and 3 only, and
// counts segment 1 as kept whole.
func TestScanCounters(t *testing.T) {
	full := engine.NewTable("t", countersSchema())
	for i := 0; i < 400; i++ {
		v, w := int64(i%10), int64(i%10)
		switch i / 100 {
		case 1:
			w += 20
		case 2:
			w += int64(i % 2)
		}
		x := predicate.RealVal(float64(i) / 4)
		if i%3 == 0 {
			x = predicate.NullValue()
		}
		full.AppendRow(predicate.IntVal(int64(i)), predicate.IntVal(v), predicate.IntVal(w), x)
	}
	st := segmentTable(t, full, 100)
	p := predtest.MustParse("k >= 100 AND v < w", full.Schema())
	cols := []string{"k", "x"}

	page := func(i int) uint64 { return uint64(st.segs[0].layout.pages[i].dataLen() + 4) }
	kPage, vPage, wPage, xPage := page(0), page(1), page(2), page(3)
	rowsScanned := obs.Default().Counter("sia_engine_rows_scanned_total", "")
	rowsKept := obs.Default().Counter("sia_engine_rows_kept_total", "")
	filters := obs.Default().Histogram("sia_engine_operator_seconds", "", obs.DurationBuckets(), obs.Label{Key: "op", Value: "filter"})
	decodes := obs.Default().Histogram("sia_storage_segment_decode_seconds", "", obs.DurationBuckets())

	wantTbl := filterProject(t, full, p, cols)
	for _, par := range []int{1, 4} {
		before := SnapshotCounters()
		scanned0, kept0 := rowsScanned.Value(), rowsKept.Value()
		filters0, decodes0 := filters.Snapshot().Count, decodes.Snapshot().Count
		got, err := st.Scan(engine.ScanSpec{Pred: p, Cols: cols}, par)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.TablesEqual(wantTbl, got) {
			t.Fatalf("par %d: scan returned %d rows, FilterPar %d", par, got.NumRows(), wantTbl.NumRows())
		}
		delta := SnapshotCounters().Sub(before)
		want := CounterSnapshot{
			SegmentsPruned:  1,
			SegmentsScanned: 3,
			BytesRead:       (kPage + xPage) + (kPage + vPage + wPage + xPage) + (kPage + vPage + wPage),
		}
		if delta != want {
			t.Errorf("par %d: storage counters moved %+v, want %+v", par, delta, want)
		}
		if d := rowsScanned.Value() - scanned0; d != 300 {
			t.Errorf("par %d: engine scanned %d rows, want 300 (segments 1 to 3)", par, d)
		}
		if d := rowsKept.Value() - kept0; d != 150 {
			t.Errorf("par %d: engine kept %d rows, want 150", par, d)
		}
		if d := filters.Snapshot().Count - filters0; d != 2 {
			t.Errorf("par %d: %d filter invocations, want 2", par, d)
		}
		if d := decodes.Snapshot().Count - decodes0; d != 3 {
			t.Errorf("par %d: %d segment decodes, want 3", par, d)
		}
	}
}

// TestScanMatchesFilterPar is the differential contract: Scan equals
// FilterPar over the materialized table projected to Cols, at par 1 and 4,
// for every column list and for predicates that prune every segment, match
// whole segments, cut some, or are nil — over a nullable DOUBLE column too.
func TestScanMatchesFilterPar(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	full := buildTable(t, 3000, 11) // id = row number: its zone maps prune and pass whole
	st := segmentTable(t, full, 700)
	empty := segmentTable(t, engine.NewTable("t", testSchema()), 1)

	preds := []predicate.Predicate{nil}
	for _, text := range []string{
		"id < 0",                   // every segment pruned
		"id >= 0",                  // every segment matches whole
		"id >= 1000 AND id < 2500", // pruned, whole and partial segments
		"x > 10",                   // nullable DOUBLE: evaluated row by row
		"ts - d > 400000000 OR x < -50",
	} {
		preds = append(preds, predtest.MustParse(text, full.Schema()))
	}
	for range 20 {
		preds = append(preds, randPredicate(r, 3))
	}
	colLists := [][]string{nil, {"ts", "x"}, {"id"}, {}}
	for _, p := range preds {
		for _, cols := range colLists {
			want := filterProject(t, full, p, cols)
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%v cols=%v par=%d", p, cols, par)
				got, err := st.Scan(engine.ScanSpec{Pred: p, Cols: cols}, par)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !engine.TablesEqual(want, got) {
					t.Fatalf("%s: scan returned %d rows, FilterPar %d", name, got.NumRows(), want.NumRows())
				}
				got, err = empty.Scan(engine.ScanSpec{Pred: p, Cols: cols}, par)
				if err != nil {
					t.Fatalf("empty table, %s: %v", name, err)
				}
				if wantEmpty := filterProject(t, engine.NewTable("t", testSchema()), p, cols); !engine.TablesEqual(wantEmpty, got) {
					t.Fatalf("empty table, %s: scan returned %d rows", name, got.NumRows())
				}
			}
		}
	}
	if _, err := st.Scan(engine.ScanSpec{Cols: []string{"nope"}}, 1); err == nil {
		t.Fatal("a scan of an unknown column succeeded")
	}
}

// TestScanCorruptPages flips one byte of a surviving segment's predicate
// page, and separately of a page only the gather reads: either scan must
// fail with ErrCorrupt, at par 1 and 4, without a table.
func TestScanCorruptPages(t *testing.T) {
	full := buildTable(t, 4000, 21)
	p := predtest.MustParse("d < 0", full.Schema())
	spec := engine.ScanSpec{Pred: p, Cols: []string{"id", "x"}}
	for _, col := range []int{1, 3} { // d: the predicate's page; x: gathered only
		st := segmentTable(t, full, 1000)
		seg := st.segs[2]
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		raw[seg.layout.pages[col].off+13] ^= 0x20
		if err := os.WriteFile(seg.path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got, err := st.Scan(spec, par)
			if !errors.Is(err, ErrCorrupt) || got != nil {
				t.Fatalf("page %d par %d: scan returned %v, %v; want ErrCorrupt and no table", col, par, got, err)
			}
		}
		// A scan that never reads the damaged page does not see it.
		if _, err := st.Scan(engine.ScanSpec{Cols: []string{"ts"}}, 1); err != nil {
			t.Fatalf("page %d: a scan of another column failed: %v", col, err)
		}
	}
}
