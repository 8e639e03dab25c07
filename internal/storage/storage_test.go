package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/predtest"
)

// testSchema covers all four column types plus a nullable column.
func testSchema() *predicate.Schema {
	return predicate.NewSchema(
		predicate.Column{Name: "id", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "d", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "ts", Type: predicate.TypeTimestamp, NotNull: false},
		predicate.Column{Name: "x", Type: predicate.TypeDouble, NotNull: false},
	)
}

// buildTable fills a table with rows rows of deterministic pseudo-random
// data, including NULLs in the nullable columns.
func buildTable(t *testing.T, rows int, seed int64) *engine.Table {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tbl := engine.NewTable("t", testSchema())
	for i := 0; i < rows; i++ {
		ts := predicate.IntVal(r.Int63n(1e9))
		if r.Intn(5) == 0 {
			ts = predicate.NullValue()
		}
		x := predicate.RealVal(r.NormFloat64() * 100)
		if r.Intn(7) == 0 {
			x = predicate.NullValue()
		}
		tbl.AppendRow(
			predicate.IntVal(int64(i)),
			predicate.IntVal(r.Int63n(5000)-2500),
			ts,
			x,
		)
	}
	return tbl
}

func writeTestSegment(t *testing.T, tbl *engine.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000"+segFileExt)
	if _, err := WriteSegment(path, tbl, 0, tbl.NumRows()); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanSegment reads the single segment file at path back through a
// SegmentTable scan.
func scanSegment(path string, spec engine.ScanSpec, par int) (*engine.Table, error) {
	st, err := Open(filepath.Dir(path), "t", testSchema())
	if err != nil {
		return nil, err
	}
	return st.Scan(spec, par)
}

// widthEdges are the id spans at each slot width's edge: the widest span
// a width holds, then one more, and the whole int64 range, with the width
// each must be written at.
var widthEdges = []struct {
	span  uint64
	width int
}{
	{255, 1}, {256, 2}, {65535, 2}, {65536, 4}, {1<<32 - 1, 4}, {1 << 32, 8}, {math.MaxUint64, 8},
}

// spanTable is a testSchema table whose id column spans exactly span from
// lo (wrapping, so lo = MinInt64 with span MaxUint64 holds both int64
// extremes) and whose ts column is entirely NULL when allNull is set.
func spanTable(r *rand.Rand, rows int, lo int64, span uint64, allNull bool) *engine.Table {
	tbl := engine.NewTable("t", testSchema())
	for i := 0; i < rows; i++ {
		off := r.Uint64() % (span/2 + 1) * 2 // even offsets up to span
		switch i {
		case 0:
			off = 0
		case 1:
			off = span
		}
		ts := predicate.IntVal(r.Int63n(1e9))
		if allNull || i%4 == 0 {
			ts = predicate.NullValue()
		}
		x := predicate.RealVal(r.NormFloat64())
		if i%3 == 0 {
			x = predicate.NullValue()
		}
		tbl.AppendRow(predicate.IntVal(int64(uint64(lo)+off)), predicate.IntVal(int64(i)), ts, x)
	}
	return tbl
}

func TestSegmentRoundTrip(t *testing.T) {
	type input struct {
		name  string
		tbl   *engine.Table
		width []int // the slot width of each column, when pinned
	}
	var inputs []input
	for _, rows := range []int{0, 1, 7, 8, 9, 1000} {
		inputs = append(inputs, input{name: fmt.Sprintf("rows=%d", rows), tbl: buildTable(t, rows, int64(rows)+1)})
	}
	r := rand.New(rand.NewSource(3))
	for _, e := range widthEdges {
		lo := -r.Int63n(1 << 40)
		if e.span == math.MaxUint64 {
			lo = math.MinInt64
		}
		// id at the edge, d at width 1, ts all NULL (width 1, reference
		// 0), x a DOUBLE (width 8).
		inputs = append(inputs, input{
			name:  fmt.Sprintf("span=%d", e.span),
			tbl:   spanTable(r, 100, lo, e.span, true),
			width: []int{e.width, 1, 1, 8},
		})
	}
	for _, in := range inputs {
		rows := in.tbl.NumRows()
		path := writeTestSegment(t, in.tbl)
		seg, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("%s: open: %v", in.name, err)
		}
		if seg.NumRows() != rows {
			t.Fatalf("%s: segment reports %d rows", in.name, seg.NumRows())
		}
		for i, w := range in.width {
			if got := seg.layout.pages[i].width; got != w {
				t.Errorf("%s: column %s written at width %d, want %d", in.name, seg.Columns()[i].Name, got, w)
			}
		}
		got, err := scanSegment(path, engine.ScanSpec{}, 1)
		if err != nil {
			t.Fatalf("%s: scan: %v", in.name, err)
		}
		if !engine.TablesEqual(in.tbl, got) {
			t.Fatalf("%s: decoded table differs from original", in.name)
		}
	}
}

func TestSegmentZoneMapsMatchData(t *testing.T) {
	tbl := buildTable(t, 500, 3)
	path := writeTestSegment(t, tbl)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	cols := seg.Columns()
	zones := seg.zones
	for i, c := range cols {
		if !c.Type.Integral() {
			continue
		}
		vals := tbl.Ints(c.Name)
		nulls := tbl.Nulls(c.Name)
		var min, max int64
		var nNull uint64
		first := true
		for r := 0; r < tbl.NumRows(); r++ {
			if nulls != nil && nulls[r] {
				nNull++
				continue
			}
			if first || vals[r] < min {
				min = vals[r]
			}
			if first || vals[r] > max {
				max = vals[r]
			}
			first = false
		}
		zm := zones[i]
		if zm.NullCount != nNull {
			t.Errorf("%s: null count %d, want %d", c.Name, zm.NullCount, nNull)
		}
		if !zm.HasValues {
			t.Errorf("%s: zone map claims no values", c.Name)
		}
		if zm.Min != min || zm.Max != max {
			t.Errorf("%s: zone [%d,%d], want [%d,%d]", c.Name, zm.Min, zm.Max, min, max)
		}
	}
}

// corruptions is the table of byte-level mutilations that must every one
// surface as ErrCorrupt — from either OpenSegment or a full scan — and
// never as a panic.
func TestCorruptSegmentsReturnErrCorrupt(t *testing.T) {
	tbl := buildTable(t, 200, 5)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		openErr bool // corruption must already fail OpenSegment
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, true},
		{"truncated mid file", func(b []byte) []byte { return b[:len(b)/2] }, true},
		{"truncated by one byte", func(b []byte) []byte { return b[:len(b)-1] }, true},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, true},
		{"bad end magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, true},
		{"header crc flip", func(b []byte) []byte { b[9] ^= 0x01; return b }, true},
		{"footer crc flip", func(b []byte) []byte { b[len(b)-20] ^= 0x01; return b }, true},
		// The header edits below re-fix the header CRC, so the checksum
		// passes and only the check named can catch them.
		{"header size lie", func(b []byte) []byte {
			rows := binary.LittleEndian.Uint64(b[8:])
			binary.LittleEndian.PutUint64(b[8:], rows+1)
			return fixHeaderCRC(b)
		}, true},
		{"slot width 3", func(b []byte) []byte {
			b[widthByte(b, 0)] = 3
			return fixHeaderCRC(b)
		}, true},
		{"DOUBLE at width 4", func(b []byte) []byte {
			b[widthByte(b, 3)] = 4
			return fixHeaderCRC(b)
		}, true},
		{"format version 1", func(b []byte) []byte {
			copy(b, "SIASEG01")
			return fixHeaderCRC(b)
		}, true},
		{"page bit flip", func(b []byte) []byte {
			// Flip a value byte in the first column page, far from any
			// header/footer structure.
			b[256] ^= 0x40
			return b
		}, false},
	}
	// What the header edits must be rejected for.
	wantMsg := map[string]string{
		"slot width 3":      `column "id" has slot width 3`,
		"DOUBLE at width 4": `DOUBLE column "x" has slot width 4`,
		"format version 1":  "format version 1",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTestSegment(t, tbl)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			seg, err := OpenSegment(path)
			if tc.openErr {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("OpenSegment error = %v, want ErrCorrupt", err)
				}
				if msg := wantMsg[tc.name]; !strings.Contains(err.Error(), msg) {
					t.Fatalf("OpenSegment error = %v, want it to say %q", err, msg)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenSegment should pass for %s, got %v", tc.name, err)
			}
			if seg.NumRows() != tbl.NumRows() {
				t.Fatalf("segment reports %d rows, want %d", seg.NumRows(), tbl.NumRows())
			}
			if _, err := scanSegment(path, engine.ScanSpec{}, 1); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Scan error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// fixHeaderCRC recomputes the header checksum of segment image b.
func fixHeaderCRC(b []byte) []byte {
	crcEnd := headerFixedLen + int(binary.LittleEndian.Uint32(b[20:]))
	binary.LittleEndian.PutUint32(b[crcEnd:], crc32.ChecksumIEEE(b[:crcEnd]))
	return b
}

// widthByte returns the offset of catalog column col's slot-width byte in
// segment image b.
func widthByte(b []byte, col int) int {
	off := headerFixedLen
	for i := 0; ; i++ {
		nameLen := int(binary.LittleEndian.Uint16(b[off:]))
		if i == col {
			return off + 2 + nameLen + 2
		}
		off += 2 + nameLen + 3
	}
}

// TestFooterRowCountDisagreement builds a file whose header and footer
// disagree with CRCs *re-fixed*, so only the explicit echo check fires.
func TestFooterRowCountDisagreement(t *testing.T) {
	tbl := buildTable(t, 16, 9)
	path := writeTestSegment(t, tbl)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The footer starts footerLen+trailerLen from the end. Patch its row
	// count echo and recompute the footer CRC stored in the trailer.
	footerLen := int(binary.LittleEndian.Uint32(raw[len(raw)-12:]))
	footerOff := len(raw) - trailerLen - footerLen
	binary.LittleEndian.PutUint64(raw[footerOff:], 17)
	crc := crc32.ChecksumIEEE(raw[footerOff : footerOff+footerLen])
	binary.LittleEndian.PutUint32(raw[len(raw)-trailerLen:], crc)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenSegment error = %v, want ErrCorrupt (row-count disagreement)", err)
	}
}

func TestOpenSegmentMissingFile(t *testing.T) {
	_, err := OpenSegment(filepath.Join(t.TempDir(), "nope"+segFileExt))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file should be an I/O error, got %v", err)
	}
}

// TestZoneMapSoundness is the read path's soundness property, checked on
// the one artifact every layer reads: a random predicate is compiled once
// into a predicate.Program, and against row-by-row predicate.Eval of the
// original predicate
//
//	(i)   the engine keeps exactly the TRUE rows, at par 1 and 4;
//	(ii)  every row's outcome is inside storage's abstract truth set, so a
//	      pruned segment (no TRUE in the set) holds no TRUE row and an
//	      all-match one (the set is {TRUE}) no other;
//	(iii) the Program's negation normal form, evaluated three-valued,
//	      agrees on every row, NULL rows included — which pins the
//	      NOT-pushing step on its own.
//
// The first input is fixed at the int64 edge. On its first row a + a
// overflows int64 while the linear form a - b is exactly 5, so Eval must
// carry the sum exactly (5 <= 0 is FALSE), as the kernels and the zone-map
// intervals do; float64 arithmetic would round it to 0 <= 0. The second
// row (a - b = 0, TRUE) keeps the segment from being pruned, so the
// engine check is the one that sees the difference.
func TestZoneMapSoundness(t *testing.T) {
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
	)
	edge := engine.NewTable("edge", s)
	edge.AppendRow(predicate.IntVal(1<<62+1), predicate.IntVal(1<<62-4))
	edge.AppendRow(predicate.IntVal(1<<62-4), predicate.IntVal(1<<62-4))
	checkSoundness(t, "int64 edge", edge, predtest.MustParse("a + a - a - b <= 0", s))

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		// Most segments are small, so zone maps are tight and pruning
		// fires; every tenth table spans several morsels so par 4 really
		// splits the work.
		rows := 50
		if trial%10 == 0 {
			rows = 2*4096 + 50
		}
		var span uint64 // every third trial puts id at a slot width's edge
		if trial%3 == 1 {
			span = widthEdges[trial/3%len(widthEdges)].span
		}
		tbl := propTable(r, rows, trial%3 == 0, span, trial%7 == 0)
		checkSoundness(t, fmt.Sprintf("trial %d", trial), tbl, randPredicate(r, 3))
	}
}

// checkSoundness runs TestZoneMapSoundness's three checks for p on tbl.
func checkSoundness(t *testing.T, name string, tbl *engine.Table, p predicate.Predicate) {
	t.Helper()
	seg, err := OpenSegment(writeTestSegment(t, tbl))
	if err != nil {
		t.Fatal(err)
	}
	prog := predicate.Compile(p)
	set := seg.truth(prog)

	var trueRows []int
	for row := 0; row < tbl.NumRows(); row++ {
		tu := tbl.Tuple(row)
		got := predicate.Eval(p, tu)
		if got == predicate.True { // collecting the WHERE-accepted rows
			trueRows = append(trueRows, row)
		}
		if set&triBit(got) == 0 {
			t.Fatalf("%s: %s evaluates to %v on row %d but the abstract set is %03b", name, p, got, row, set)
		}
		if nnf := evalProgram(prog, tu); nnf != got {
			t.Fatalf("%s: %s evaluates to %v on row %d (%v) but its negation normal form to %v", name, p, got, row, tu, nnf)
		}
	}
	if set&canTrue == 0 && len(trueRows) > 0 {
		t.Fatalf("%s: %s pruned a segment with %d TRUE rows", name, p, len(trueRows))
	}
	for _, par := range []int{1, 4} {
		if got := engine.SelectRows(tbl, prog, par); !slices.Equal(got, trueRows) {
			t.Fatalf("%s par %d: %s: engine kept %d rows, Eval is TRUE on %d", name, par, p, len(got), len(trueRows))
		}
	}
}

// evalProgram evaluates a compiled program three-valued on one tuple.
func evalProgram(p *predicate.Program, tu predicate.Tuple) predicate.TriBool {
	switch p.Kind {
	case predicate.ProgAnd:
		res := predicate.True
		for _, kid := range p.Kids {
			res = res.And(evalProgram(kid, tu))
		}
		return res
	case predicate.ProgOr:
		res := predicate.False
		for _, kid := range p.Kids {
			res = res.Or(evalProgram(kid, tu))
		}
		return res
	default:
		return predicate.Eval(p.Leaf, tu)
	}
}

// propTable fills a testSchema table for the soundness property. id holds
// small values; or, when edge is set, int64-edge values whose linear forms
// trip the overflow bound; or, when span is not 0, values spanning exactly
// span from -1000 (MinInt64 when span is the whole range). ts is nullable,
// and entirely NULL when allNull is set; x is a nullable DOUBLE.
func propTable(r *rand.Rand, rows int, edge bool, span uint64, allNull bool) *engine.Table {
	edges := []int64{math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62), (1 << 62) + 5, 0, 1}
	lo := int64(-1000)
	if span == math.MaxUint64 {
		lo = math.MinInt64
	}
	tbl := engine.NewTable("t", testSchema())
	for i := 0; i < rows; i++ {
		id := predicate.IntVal(r.Int63n(200) - 100)
		switch {
		case edge:
			id = predicate.IntVal(edges[r.Intn(len(edges))])
		case span != 0:
			off := r.Uint64() % (span/2 + 1) * 2
			if i < 2 {
				off = uint64(i) * span
			}
			id = predicate.IntVal(int64(uint64(lo) + off))
		}
		ts := predicate.IntVal(r.Int63n(1e9))
		if allNull || r.Intn(5) == 0 {
			ts = predicate.NullValue()
		}
		x := predicate.RealVal(r.NormFloat64() * 100)
		if r.Intn(7) == 0 {
			x = predicate.NullValue()
		}
		tbl.AppendRow(id, predicate.IntVal(r.Int63n(5000)-2500), ts, x)
	}
	return tbl
}

// randPredicate builds a random predicate over the test schema: AND/OR/NOT
// to the given depth over comparisons with all six operators.
func randPredicate(r *rand.Rand, depth int) predicate.Predicate {
	if depth <= 0 || r.Intn(3) == 0 {
		return randCompare(r)
	}
	switch r.Intn(3) {
	case 0:
		return predicate.NewAnd(randPredicate(r, depth-1), randPredicate(r, depth-1))
	case 1:
		return predicate.NewOr(randPredicate(r, depth-1), randPredicate(r, depth-1))
	default:
		return &predicate.Not{P: randPredicate(r, depth-1)}
	}
}

// randCompare builds one comparison. Most are linear over the NOT NULL d
// and the nullable ts; some add a term in id (the column that may hold
// int64-edge values) to one side, or the same term to both so that it
// cancels out of the linear form while Eval still computes it; others add
// a DOUBLE column, a halved side, or the non-linear id*d.
func randCompare(r *rand.Rand) predicate.Predicate {
	ops := []predicate.CmpOp{
		predicate.CmpLT, predicate.CmpGT, predicate.CmpLE,
		predicate.CmpGE, predicate.CmpEQ, predicate.CmpNE,
	}
	id := predicate.Col("id", predicate.TypeInteger)
	left, right := randExpr(r, 2), randExpr(r, 2)
	switch r.Intn(8) {
	case 0:
		left = predicate.Add(predicate.Mul(predicate.IntConst(int64(1+r.Intn(4))), id), left)
	case 1:
		k := predicate.IntConst(int64(1 + r.Intn(4)))
		left = predicate.Add(predicate.Mul(k, id), left)
		right = predicate.Add(predicate.Mul(k, id), right)
	case 2:
		left = predicate.Add(left, predicate.Col("x", predicate.TypeDouble))
	case 3:
		left = predicate.Div(left, predicate.IntConst(2))
	case 4:
		left = predicate.Mul(id, predicate.Col("d", predicate.TypeDate))
	}
	return predicate.Cmp(ops[r.Intn(len(ops))], left, right)
}

func randExpr(r *rand.Rand, depth int) predicate.Expr {
	if depth <= 0 || r.Intn(2) == 0 {
		switch r.Intn(3) {
		case 0:
			return predicate.Col("d", predicate.TypeDate)
		case 1:
			return predicate.Col("ts", predicate.TypeTimestamp)
		default:
			return predicate.IntConst(r.Int63n(5000) - 2500)
		}
	}
	switch r.Intn(3) {
	case 0:
		return predicate.Add(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return predicate.Sub(randExpr(r, depth-1), randExpr(r, depth-1))
	default:
		return predicate.Mul(predicate.IntConst(r.Int63n(5)-2), randExpr(r, depth-1))
	}
}

// TestScanFilterMatchesInMemory is the end-to-end contract: a SegmentTable
// scan with pruning must return exactly what the in-memory engine returns
// for the same predicate over the concatenated data, and pruning must
// actually fire for a range predicate over clustered data.
func TestScanFilterMatchesInMemory(t *testing.T) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "k", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "v", Type: predicate.TypeInteger, NotNull: false},
	)
	full := engine.NewTable("t", schema)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		v := predicate.IntVal(r.Int63n(100))
		if r.Intn(9) == 0 {
			v = predicate.NullValue()
		}
		full.AppendRow(predicate.IntVal(int64(i)), v) // k clustered by construction
	}

	dir := t.TempDir()
	st, err := Open(dir, "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < full.NumRows(); lo += 500 {
		if err := st.AppendRange(full, lo, lo+500); err != nil {
			t.Fatal(err)
		}
	}
	if st.NumSegments() != 8 || st.NumRows() != 4000 {
		t.Fatalf("table has %d segments / %d rows", st.NumSegments(), st.NumRows())
	}

	// k in [1000, 1200): zone maps must confine the scan to segments 2-3.
	p := predicate.NewAnd(
		predicate.Cmp(predicate.CmpGE, predicate.Col("k", predicate.TypeInteger), predicate.IntConst(1000)),
		predicate.Cmp(predicate.CmpLT, predicate.Col("k", predicate.TypeInteger), predicate.IntConst(1200)),
	)
	before := SnapshotCounters()
	got, err := st.ScanFilter(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta := SnapshotCounters().Sub(before)
	want := engine.FilterPar(full, p, 1)
	if !engine.TablesEqual(want, got) {
		t.Fatalf("scan result differs from in-memory filter (%d vs %d rows)", got.NumRows(), want.NumRows())
	}
	if delta.SegmentsPruned != 7 || delta.SegmentsScanned != 1 {
		t.Fatalf("pruned %d / scanned %d segments, want 7 / 1", delta.SegmentsPruned, delta.SegmentsScanned)
	}

	// Reopening the directory must see the same data; a nil predicate
	// returns everything.
	st2, err := Open(dir, "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	all, err := st2.ScanFilter(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.TablesEqual(full, all) {
		t.Fatal("full scan after reopen differs from original data")
	}
}

// TestAppendRangeRejectsSchemaMismatch pins that an append whose schema
// differs from the table's fails cleanly and leaves the table unchanged.
func TestAppendRangeRejectsSchemaMismatch(t *testing.T) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
	)
	st, err := Open(t.TempDir(), "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl := engine.NewTable("t", schema)
	tbl.AppendRow(predicate.IntVal(1))
	if err := st.AppendRange(tbl, 0, 1); err != nil {
		t.Fatal(err)
	}
	other := engine.NewTable("u", predicate.NewSchema(
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
	))
	other.AppendRow(predicate.IntVal(2))
	if err := st.AppendRange(other, 0, 1); err == nil {
		t.Fatal("append with wrong schema should fail")
	}
	if st.NumSegments() != 1 || st.NumRows() != 1 {
		t.Fatalf("failed append changed the table: %d segments / %d rows", st.NumSegments(), st.NumRows())
	}
}

// TestScanDuringAppend runs scans while segments are appended. Each scan
// sees the table with some prefix of the appends, so it must equal the
// in-memory filter of that prefix of the appended ranges; under make race
// this is also where an append and a scan meet on the table's state.
func TestScanDuringAppend(t *testing.T) {
	const segRows = 200
	full := buildTable(t, 12*segRows, 31)
	p := predtest.MustParse("d < 0 OR x > 50", full.Schema())
	rows := make([]int, full.NumRows())
	for r := range rows {
		rows[r] = r
	}
	var wants []*engine.Table // wants[m]: the filter over m ranges
	for m := 0; m*segRows <= full.NumRows(); m++ {
		prefix, err := engine.ReorderRows(full, rows[:m*segRows], 1)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, engine.FilterPar(prefix, p, 1))
	}
	st, err := Open(t.TempDir(), "t", full.Schema())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := st.Scan(engine.ScanSpec{Pred: p}, 2)
				if err != nil {
					errs <- err
					return
				}
				if !slices.ContainsFunc(wants, func(w *engine.Table) bool { return engine.TablesEqual(w, got) }) {
					errs <- fmt.Errorf("a scan returned %d rows, the filter of no prefix of the appends", got.NumRows())
					return
				}
			}
		}()
	}
	for lo := 0; lo < full.NumRows() && len(errs) == 0; lo += segRows {
		if err := st.AppendRange(full, lo, lo+segRows); err != nil {
			errs <- err
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := st.Scan(engine.ScanSpec{Pred: p}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.TablesEqual(wants[len(wants)-1], got) {
		t.Fatalf("after the appends a scan returned %d rows, want %d", got.NumRows(), wants[len(wants)-1].NumRows())
	}
}
