package plan

import (
	"context"
	"testing"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/storage"
)

// TestExecuteOverSegmentSource pins the storage integration end to end: a
// plan over a disk-backed SegmentTable source must produce exactly what
// the same plan produces over the equivalent in-memory table, with the
// pushed-down predicate reaching the source (pruning counters move), and a
// streaming append must invalidate exactly the cached synthesis results
// conditioned on the table's columns, forcing a fresh CEGIS run.
func TestExecuteOverSegmentSource(t *testing.T) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "k", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "v", Type: predicate.TypeInteger, NotNull: true},
	)
	mem := engine.NewTable("t", schema)
	for i := 0; i < 3000; i++ {
		mem.AppendRow(predicate.IntVal(int64(i)), predicate.IntVal(int64(i%97)))
	}

	st, err := storage.Open(t.TempDir(), "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < mem.NumRows(); lo += 1000 {
		if err := st.AppendRange(mem, lo, lo+1000); err != nil {
			t.Fatal(err)
		}
	}

	memCat, diskCat := NewCatalog(), NewCatalog()
	memCat.Add(mem)
	diskCat.AddSource(st)

	p := predicate.Cmp(predicate.CmpLT, predicate.Col("k", predicate.TypeInteger), predicate.IntConst(500))
	build := func(c *Catalog) Node {
		scan, err := NewScan(c, "t")
		if err != nil {
			t.Fatal(err)
		}
		return &Filter{Pred: p, Input: scan}
	}

	before := storage.SnapshotCounters()
	wantTbl, _, err := Execute(build(memCat), memCat)
	if err != nil {
		t.Fatal(err)
	}
	gotTbl, _, err := Execute(build(diskCat), diskCat)
	if err != nil {
		t.Fatal(err)
	}
	delta := storage.SnapshotCounters().Sub(before)
	if !engine.TablesEqual(wantTbl, gotTbl) {
		t.Fatalf("disk plan returned %d rows, in-memory %d", gotTbl.NumRows(), wantTbl.NumRows())
	}
	if delta.SegmentsPruned != 2 || delta.SegmentsScanned != 1 {
		t.Fatalf("pruned %d / scanned %d, want 2 / 1", delta.SegmentsPruned, delta.SegmentsScanned)
	}

	// Estimation sees the source's cardinality.
	scan, err := NewScan(diskCat, "t")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := EstimateRows(scan, diskCat); err != nil || rows != 3000 {
		t.Fatalf("EstimateRows = %v, %v; want 3000", rows, err)
	}

	// Streaming append invalidates cached synthesis results conditioned on
	// the table's columns — and only those. The full loop: fill, hit,
	// append, invalidate, miss.
	synth := cache.NewSynthesizer(8)
	invalidated := 0
	st.OnAppend(func(cols []string) { invalidated += synth.InvalidateColumns(cols) })
	elsewhere := predicate.NewSchema(
		predicate.Column{Name: "x", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "y", Type: predicate.TypeInteger, NotNull: true},
	)
	cached := func(text, col string, schema *predicate.Schema) bool {
		t.Helper()
		p, err := predicate.Parse(text, schema)
		if err != nil {
			t.Fatal(err)
		}
		_, hit, err := synth.Synthesize(context.Background(), p, []string{col}, schema, core.PresetSIA())
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	onTable := func() bool { return cached("k - v < 20 AND v < 0", "k", schema) }
	other := func() bool { return cached("x - y < 20 AND y < 0", "x", elsewhere) }
	if onTable() || other() {
		t.Fatal("cold synthesis reported a cache hit")
	}
	if !onTable() || !other() {
		t.Fatal("repeated synthesis missed the cache before the append")
	}

	if err := st.AppendRange(mem, 0, 10); err != nil {
		t.Fatal(err)
	}
	if invalidated != 1 {
		t.Fatalf("append invalidated %d cached syntheses, want 1", invalidated)
	}
	if onTable() {
		t.Fatal("result conditioned on an appended column was served from the cache after the append")
	}
	if !other() {
		t.Fatal("result over unrelated columns was invalidated by the append")
	}
	if st.NumRows() != 3010 {
		t.Fatalf("table has %d rows after append", st.NumRows())
	}
}

// The compile-time assertion that SegmentTable satisfies the source
// contract the executor routes through.
var _ TableSource = (*storage.SegmentTable)(nil)
