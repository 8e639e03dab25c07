package plan

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/storage"
)

// poolCatalogs returns a fact table f and a dimension table g as an
// in-memory catalog and as a catalog of segment sources. f's segments take
// f_a, a nullable integer, through every slot width in turn, and f_x is a
// nullable DOUBLE; g_b is a nullable integer.
func poolCatalogs(t *testing.T) (mem, disk *Catalog) {
	t.Helper()
	f := engine.NewTable("f", predicate.NewSchema(
		predicate.Column{Name: "f_key", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "f_a", Type: predicate.TypeInteger},
		predicate.Column{Name: "f_x", Type: predicate.TypeDouble},
	))
	spans := []int64{200, 60_000, 4_000_000_000, 1 << 61} // one per slot width
	const segRows = 1500
	for i := 0; i < 8*segRows; i++ {
		span := spans[i/segRows%len(spans)]
		a, x := predicate.IntVal(int64(i)*7919%span-span/2), predicate.RealVal(float64(i%97)-40.5)
		if i%5 == 0 {
			a = predicate.NullValue()
		}
		if i%7 == 0 {
			x = predicate.NullValue()
		}
		f.AppendRow(predicate.IntVal(int64(i%500)), a, x)
	}
	g := engine.NewTable("g", predicate.NewSchema(
		predicate.Column{Name: "g_key", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "g_b", Type: predicate.TypeInteger},
	))
	for k := 0; k < 500; k++ {
		b := predicate.IntVal(int64(k % 6))
		if k%4 == 0 {
			b = predicate.NullValue()
		}
		g.AppendRow(predicate.IntVal(int64(k)), b)
	}
	mem, disk = NewCatalog(), NewCatalog()
	for _, tab := range []*engine.Table{f, g} {
		mem.Add(tab)
		st, err := storage.Open(t.TempDir(), tab.Name, tab.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < tab.NumRows(); lo += segRows {
			if err := st.AppendRange(tab, lo, min(lo+segRows, tab.NumRows())); err != nil {
				t.Fatal(err)
			}
		}
		disk.AddSource(st)
	}
	return mem, disk
}

// poolPlans are plans over poolCatalogs whose source scans are consumed by
// each operator kind, and one whose scan is the result.
func poolPlans(t *testing.T, c *Catalog) map[string]Node {
	t.Helper()
	scan := func(name string) Node {
		s, err := NewScan(c, name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pred := func(text string, n Node) Node {
		return &Filter{Pred: predtest.MustParse(text, n.Schema()), Input: n}
	}
	join := func(l, r Node) Node { return &Join{Left: l, Right: r, LeftKey: "f_key", RightKey: "g_key"} }
	return map[string]Node{
		"scan":    pred("f_a < 100 OR f_x > 30", scan("f")),
		"project": &Project{Cols: []string{"f_key", "f_x"}, Input: pred("f_x > 0", scan("f"))},
		"filter":  pred("f_x < 10", pred("f_a > -1000", scan("f"))),
		"group": &Aggregate{
			GroupBy: []string{"f_key"},
			Aggs:    []engine.AggSpec{{Func: engine.AggSum, Col: "f_a", As: "sum_a"}},
			Input:   scan("f"),
		},
		"aggregate": &Aggregate{
			GroupBy: []string{"g_b"},
			Aggs: []engine.AggSpec{
				{Func: engine.AggCount, As: "n"},
				{Func: engine.AggSum, Col: "f_a", As: "sum_a"},
				{Func: engine.AggMax, Col: "f_key", As: "max_key"},
			},
			Input: join(pred("f_a > 0 OR f_x < 0", scan("f")), scan("g")),
		},
		"residual": &Project{
			Cols:  []string{"f_key", "f_a", "f_x", "g_b"},
			Input: pred("f_a - g_b > 0", join(scan("f"), pred("g_b < 3", scan("g")))),
		},
	}
}

// poisonPool fills the engine's column pool with released arrays of every
// capacity class up to 1<<maxClass: integers and doubles holding a
// sentinel, NULL flags holding true in half of them and false in the
// other half. A slot a recycled array leaves unwritten then shows as a
// value or a NULL the data does not have.
func poisonPool(maxClass int) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "i", Type: predicate.TypeInteger},
		predicate.Column{Name: "x", Type: predicate.TypeDouble},
	)
	for k := 0; k <= maxClass; k++ {
		for i := 0; i < 4; i++ {
			n := 1 << k
			cols := []engine.ColumnValues{
				engine.NewColumnValues(schema.Columns()[0], n),
				engine.NewColumnValues(schema.Columns()[1], n),
			}
			for r := 0; r < n; r++ {
				cols[0].Ints[r], cols[1].Reals[r] = math.MinInt64+12345, -1e300
				cols[0].Nulls[r], cols[1].Nulls[r] = i%2 == 0, i%2 == 0
			}
			t, err := engine.NewTableFromColumns("poison", schema, n, cols)
			if err != nil {
				panic(err)
			}
			engine.Release(t)
		}
	}
}

// TestRecycledColumnsAreOverwritten fills the column pool with poisoned
// arrays, then checks that segment scans and plans over segment sources,
// which draw their columns from it and release their scans' outputs into
// it, still equal the in-memory results, at par 1 and 4. The collector is
// off so the pool keeps what it is given.
func TestRecycledColumnsAreOverwritten(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mem, disk := poolCatalogs(t)
	memPlans, diskPlans := poolPlans(t, mem), poolPlans(t, disk)
	src, err := disk.Source("f")
	if err != nil {
		t.Fatal(err)
	}
	fmem, err := mem.Table("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		poisonPool(15)
		for _, text := range []string{"", "f_a < 0", "f_x > 0 AND f_a > -50"} {
			for _, cols := range [][]string{nil, {"f_a"}, {"f_key", "f_x"}} {
				spec := engine.ScanSpec{Cols: cols}
				want := fmem
				if text != "" {
					spec.Pred = predtest.MustParse(text, fmem.Schema())
					want = engine.FilterPar(fmem, spec.Pred, 1)
				}
				if cols != nil {
					if want, err = engine.ProjectPar(want, cols, 1); err != nil {
						t.Fatal(err)
					}
				}
				got, err := src.Scan(spec, par)
				if err != nil {
					t.Fatal(err)
				}
				if !engine.TablesEqual(want, got) {
					t.Fatalf("par %d: Scan(%q, %v) differs from the in-memory filter", par, text, cols)
				}
				engine.Release(got)
			}
		}
		for name, n := range diskPlans {
			want, _, err := ExecuteOpts(memPlans[name], mem, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ { // the second run draws what the first released
				got, _, err := ExecuteOpts(n, disk, ExecOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if !engine.TablesEqual(want, got) {
					t.Fatalf("par %d run %d: plan %s over segments returned %d rows, in memory %d",
						par, run, name, got.NumRows(), want.NumRows())
				}
			}
		}
	}
}

// maxSecondStatementBytes bounds what the "group" plan of poolPlans
// allocates at par 1 when it runs a second time over segment sources, so
// that the first run's released scan output supplies its columns. Measured
// at 156 KB on go1.24 linux/amd64; with every scan output freshly
// allocated it is 360 KB.
const maxSecondStatementBytes = 200 << 10

// TestSecondStatementReusesColumns pins the column pool's effect on
// allocation: with the collector off, a second identical statement over
// segment sources allocates at most maxSecondStatementBytes.
func TestSecondStatementReusesColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool keeps a private item per P, which a second run
	// scheduled on another P cannot reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, disk := poolCatalogs(t)
	n := poolPlans(t, disk)["group"]
	first := statementBytes(t, n, disk)
	if second := statementBytes(t, n, disk); second > maxSecondStatementBytes {
		t.Errorf("second statement allocated %s, want at most %s (the first %s)",
			kb(second), kb(maxSecondStatementBytes), kb(first))
	}
}

// maxSecondMemStatementBytes bounds what each plan of poolPlans named here
// allocates at par 1 when it runs a second time over the in-memory
// catalog, so that the engine's scratch — selection bitmaps and row
// lists, the join table, the probe's pair buffers — is drawn from what the
// first run handed back and only the operators' outputs are new. Measured
// on go1.24 linux/amd64 at 168 KB for "aggregate" and 68 KB for
// "residual"; with the scratch freshly allocated they are 541 KB and
// 183 KB.
var maxSecondMemStatementBytes = map[string]uint64{
	"aggregate": 220 << 10,
	"residual":  100 << 10,
}

// TestSecondMemStatementReusesScratch pins the engine pools' effect on
// in-memory plans: with the collector off, a second identical statement
// allocates at most maxSecondMemStatementBytes.
func TestSecondMemStatementReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool keeps a private item per P, which a second run
	// scheduled on another P cannot reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem, _ := poolCatalogs(t)
	plans := poolPlans(t, mem)
	for name, limit := range maxSecondMemStatementBytes {
		first := statementBytes(t, plans[name], mem)
		if second := statementBytes(t, plans[name], mem); second > limit {
			t.Errorf("plan %s: second statement allocated %s, want at most %s (the first %s)",
				name, kb(second), kb(limit), kb(first))
		}
	}
}

// statementBytes returns the bytes one run of n over c allocates at par 1.
func statementBytes(t *testing.T, n Node, c *Catalog) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := ExecuteOpts(n, c, ExecOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func kb(b uint64) string { return fmt.Sprintf("%.1f KB", float64(b)/1024) }
