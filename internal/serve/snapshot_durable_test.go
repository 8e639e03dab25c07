package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sia/internal/core"
	"sia/internal/predicate"
)

// TestSnapshotWriteIsAtomicAndClean is the regression test for the
// torn-snapshot bug: the writer used a bare tmp+rename with no fsync, so a
// crash after the rename could surface an empty or torn snapshot. The
// writer now goes through fsatomic (write → fsync file → rename → fsync
// dir). This test pins the observable half of that contract: every write
// leaves a fully parseable snapshot under the final name, never a partial
// file, and no temporary files linger in the directory.
func TestSnapshotWriteIsAtomicAndClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	cfg := testConfig()
	cfg.SnapshotPath = path
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	for i := 0; i < 3; i++ {
		if _, err := srv.WriteSnapshot(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("write %d produced unparseable snapshot: %v", i, err)
		}
		if snap.Version != snapshotVersion {
			t.Fatalf("write %d: version %d, want %d", i, snap.Version, snapshotVersion)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".fsatomic-") || strings.HasPrefix(e.Name(), ".sia-snapshot-") {
			t.Fatalf("leftover temporary file %s after snapshot writes", e.Name())
		}
	}
}

// TestSnapshotRoundTripsColumnTypes: a stored predicate over a DATE and a
// nullable DOUBLE column prints identically after a write and a restore,
// and reads its columns as the same types, recovered from the predicate
// itself. A file in the same version that also records nullability still
// loads.
func TestSnapshotRoundTripsColumnTypes(t *testing.T) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "d", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "x", Type: predicate.TypeDouble},
	)
	p, err := predicate.Parse("d < DATE '1995-03-15' AND 2 * x > 1.5 OR x > d + 0.25", schema)
	if err != nil {
		t.Fatal(err)
	}
	// Only a DOUBLE reading of x satisfies p on this tuple.
	probe := predicate.Tuple{"d": predicate.IntVal(1000), "x": predicate.RealVal(0.8)}
	if predicate.Eval(p, probe) != predicate.True {
		t.Fatalf("%s is not true on %v", p, probe)
	}
	same := func(q predicate.Predicate) bool {
		return q != nil && q.String() == p.String() && predicate.Eval(q, probe) == predicate.True
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	cfg := testConfig()
	cfg.SnapshotPath = path
	srvA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvA.Synth().Put("typed", &core.Result{Predicate: p, Valid: true})
	srvA.Synth().Put("trivial", &core.Result{Valid: true})
	// x occurs only under NOT, d only inside arithmetic: each must still
	// reach the entry's schema, or the entry cannot be parsed back.
	partial := map[string]predicate.Predicate{}
	for key, text := range map[string]string{
		"negated": "NOT (x > 0.5)",
		"arith":   "d + 7 < DATE '1995-03-15'",
	} {
		q, err := predicate.Parse(text, schema)
		if err != nil {
			t.Fatal(err)
		}
		partial[key] = q
		srvA.Synth().Put(key, &core.Result{Predicate: q, Valid: true})
	}
	if n, err := srvA.WriteSnapshot(); err != nil || n != 4 {
		t.Fatalf("snapshot write: n=%d err=%v", n, err)
	}
	srvA.Close()

	restore := func(t *testing.T) *Server {
		t.Helper()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	srvB := restore(t)
	if got, ok := srvB.Synth().Peek("typed"); !ok || !same(got.Predicate) {
		t.Fatalf("stored %q, restored %v", p, got)
	}
	for key, q := range partial {
		if got, ok := srvB.Synth().Peek(key); !ok || got.Predicate == nil || got.Predicate.String() != q.String() {
			t.Errorf("stored %q, restored %v", q, got)
		}
	}

	quoted, err := json.Marshal(p.String())
	if err != nil {
		t.Fatal(err)
	}
	raw := `{"version": 1, "saved_at_unix": 1, "entries": [{"key": "typed",
		"predicate": ` + string(quoted) + `,
		"schema": [{"name": "d", "type": "date"}, {"name": "x", "type": "double", "nullable": true}],
		"valid": true}]}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := restore(t).Synth().Peek("typed"); !ok || !same(got.Predicate) {
		t.Fatalf("file with nullability did not restore %q: %v", p, got)
	}
}
