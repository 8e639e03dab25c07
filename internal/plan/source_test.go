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
// synthesis result cached before a streaming append must stay both cached
// and correct after it.
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

	// run executes Filter(pred, Scan t) over c and returns the rows with
	// the storage counters the execution moved.
	run := func(c *Catalog, pred predicate.Predicate) (*engine.Table, storage.CounterSnapshot) {
		t.Helper()
		scan, err := NewScan(c, "t")
		if err != nil {
			t.Fatal(err)
		}
		before := storage.SnapshotCounters()
		out, _, err := ExecuteOpts(&Filter{Pred: pred, Input: scan}, c, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out, storage.SnapshotCounters().Sub(before)
	}

	var p predicate.Predicate = predicate.Cmp(predicate.CmpLT, predicate.Col("k", predicate.TypeInteger), predicate.IntConst(500))
	wantTbl, _ := run(memCat, p)
	gotTbl, delta := run(diskCat, p)
	if !engine.TablesEqual(wantTbl, gotTbl) {
		t.Fatalf("disk plan returned %d rows, in-memory %d", gotTbl.NumRows(), wantTbl.NumRows())
	}
	if delta.SegmentsPruned != 2 || delta.SegmentsScanned != 1 {
		t.Fatalf("pruned %d / scanned %d, want 2 / 1", delta.SegmentsPruned, delta.SegmentsScanned)
	}

	// A valid reduction p₁ satisfies p ⟹ p₁ on every tuple (Def. 2), and
	// the cache key holds no table data, so an append can neither change
	// the key nor make the cached p₁ drop a row. The probe: synthesize p₁,
	// append a segment outside every existing zone-map range holding rows
	// that satisfy p (one on p₁'s boundary), synthesize again — a hit —
	// and filter with and without p₁.
	p, err = predicate.Parse("k - v > 4800 AND v > 240", schema)
	if err != nil {
		t.Fatal(err)
	}
	synth := cache.NewSynthesizer(8)
	synthesize := func() (*core.Result, bool) {
		t.Helper()
		res, hit, err := synth.Synthesize(context.Background(), p, []string{"k"}, schema, core.PresetSIA())
		if err != nil {
			t.Fatal(err)
		}
		return res, hit
	}
	res, hit := synthesize()
	if hit || !res.Valid || res.Predicate == nil {
		t.Fatalf("cold synthesis: hit=%v valid=%v predicate=%v", hit, res.Valid, res.Predicate)
	}
	p1 := res.Predicate

	fresh := engine.NewTable("t", schema)
	for k := int64(5030); k < 5060; k++ {
		for _, v := range []int64{239, 240, 241, 242, 260} {
			fresh.AppendRow(predicate.IntVal(k), predicate.IntVal(v))
		}
	}
	if err := st.AppendRange(fresh, 0, fresh.NumRows()); err != nil {
		t.Fatal(err)
	}
	if _, hit := synthesize(); !hit {
		t.Fatal("synthesis after the append missed the cache")
	}

	wantTbl, _ = run(diskCat, p)
	gotTbl, delta = run(diskCat, predicate.NewAnd(p, p1))
	if wantTbl.NumRows() == 0 {
		t.Fatal("no appended row satisfies p: the probe tests nothing")
	}
	if !engine.TablesEqual(wantTbl, gotTbl) {
		t.Fatalf("p AND %s returned %d rows, p alone %d", p1, gotTbl.NumRows(), wantTbl.NumRows())
	}
	if delta.SegmentsScanned != 1 || delta.SegmentsPruned != 3 {
		t.Fatalf("p AND %s scanned %d / pruned %d segments, want the appended one scanned and 3 pruned",
			p1, delta.SegmentsScanned, delta.SegmentsPruned)
	}
}

// The compile-time assertion that SegmentTable satisfies the source
// contract the executor routes through.
var _ TableSource = (*storage.SegmentTable)(nil)
