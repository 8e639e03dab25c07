package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// fuzzSchema is the fuzz seeds' schema: a NOT NULL integer, a nullable
// DOUBLE and a nullable integer.
func fuzzSchema() *predicate.Schema {
	return predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeDouble},
		predicate.Column{Name: "c", Type: predicate.TypeInteger},
	)
}

// fuzzWidthSteps space a's 64 values so its page takes each slot width in
// turn: spans of 63, 63 000, 63·10⁶ and 63·10¹⁷.
var fuzzWidthSteps = []int64{1, 1000, 1e6, 1e17}

// fuzzSeed encodes a fuzzSchema segment of rows rows with a = step·i − 20.
// b and c hold some NULLs, and c holds nothing else when cNull is set.
func fuzzSeed(f *testing.F, rows int, step int64, cNull bool) []byte {
	t := engine.NewTable("t", fuzzSchema())
	for i := 0; i < rows; i++ {
		b, c := predicate.RealVal(float64(i)*1.5), predicate.IntVal(int64(i%4))
		if i%3 == 0 {
			b = predicate.NullValue()
		}
		if cNull || i%5 == 0 {
			c = predicate.NullValue()
		}
		t.AppendRow(predicate.IntVal(step*int64(i)-20), b, c)
	}
	buf, _, err := encodeSegment(t, 0, rows)
	if err != nil {
		f.Fatal(err)
	}
	return buf
}

// FuzzReadSegment drives the byte-level segment decoder with hostile
// input. The contract under fuzz is the library's no-panic guarantee: any
// byte string either decodes to a table or returns an error — structural
// damage matching ErrCorrupt — and a *valid* image that decodes must
// re-encode to an equal table (the decoder cannot invent or drop rows).
func FuzzReadSegment(f *testing.F) {
	// Seed with well-formed segments of a few shapes so the fuzzer mutates
	// real structure instead of flailing at the magic check: a at each slot
	// width, and c, a nullable integer, with NULLs or none but NULLs.
	f.Add(fuzzSeed(f, 0, 1, false))
	f.Add(fuzzSeed(f, 5, 1, false))
	for _, step := range fuzzWidthSteps {
		f.Add(fuzzSeed(f, 64, step, false))
	}
	f.Add(fuzzSeed(f, 64, 7, true))
	f.Add([]byte(segMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := DecodeSegment("fuzz", data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeSegment returned a non-corruption error: %v", err)
			}
			return
		}
		// Valid image: re-encoding its table must produce a decodable
		// segment holding equal data.
		buf, _, err := encodeSegment(tbl, 0, tbl.NumRows())
		if err != nil {
			t.Fatalf("re-encoding a decoded table failed: %v", err)
		}
		back, err := DecodeSegment("fuzz", buf)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !engine.TablesEqual(tbl, back) {
			t.Fatal("decode → encode → decode changed the data")
		}
	})
}

// FuzzScanSegment drives the file-level read path with hostile input: the
// image is written as a one-segment table and scanned with a fixed
// predicate and a column subset, so only some of its pages are read. The
// scan must succeed or fail with ErrCorrupt, never panic; when the whole
// image also decodes, the scan must equal the in-memory filter over it.
func FuzzScanSegment(f *testing.F) {
	schema := fuzzSchema()
	f.Add(fuzzSeed(f, 0, 1, false))
	f.Add(fuzzSeed(f, 5, 1, false))
	for _, step := range fuzzWidthSteps {
		f.Add(fuzzSeed(f, 64, step, false))
	}
	f.Add(fuzzSeed(f, 64, 7, true))
	f.Add([]byte(segMagic))
	p := predicate.Cmp(predicate.CmpGT, predicate.Col("a", predicate.TypeInteger), predicate.IntConst(3))
	spec := engine.ScanSpec{Pred: p, Cols: []string{"b"}}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-000000"+segFileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegment(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenSegment returned a non-corruption error: %v", err)
			}
			return
		}
		if matchSchema(schema, seg.Columns()) != nil {
			return // a valid segment of some other table
		}
		st, err := Open(dir, "t", schema)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Scan(spec, 2)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Scan returned a non-corruption error: %v", err)
			}
			return
		}
		whole, err := DecodeSegment("t", data)
		if err != nil {
			return // a page the scan never read is damaged: by design unseen
		}
		want, err := engine.ProjectPar(engine.FilterPar(whole, p, 1), spec.Cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.TablesEqual(want, got) {
			t.Fatalf("scan returned %d rows, the decoded image filters to %d", got.NumRows(), want.NumRows())
		}
	})
}
