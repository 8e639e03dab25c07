package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sia/internal/core"
	"sia/internal/fsatomic"
	"sia/internal/predicate"
	"sia/internal/serve/api"
)

// snapshotVersion is bumped whenever the on-disk schema changes; a loader
// refuses versions it does not understand (cold start, never a guess).
const snapshotVersion = 1

// snapshotFile is the on-disk form of a cache snapshot: a version, the
// save time, and one entry per cached synthesis result, most recently
// used first so a capacity-truncated restore keeps the hottest keys.
type snapshotFile struct {
	Version     int             `json:"version"`
	SavedAtUnix int64           `json:"saved_at_unix"`
	Entries     []snapshotEntry `json:"entries"`
}

// snapshotEntry serializes one result. The synthesized predicate travels
// as SQL text plus the types of its columns, which is exactly enough to
// re-parse it at boot; counters and flags travel verbatim.
type snapshotEntry struct {
	Key          string             `json:"key"`
	Predicate    string             `json:"predicate,omitempty"`
	Schema       []api.SchemaColumn `json:"schema,omitempty"`
	Valid        bool               `json:"valid"`
	Optimal      bool               `json:"optimal"`
	Iterations   int                `json:"iterations"`
	TrueSamples  int                `json:"true_samples"`
	FalseSamples int                `json:"false_samples"`
	GaveUp       string             `json:"gave_up,omitempty"`
}

// writeSnapshot persists the cache to path atomically and durably via
// fsatomic: the file is written next to its destination, fsynced, renamed
// into place, and the directory is fsynced — so a crash at any point
// leaves either the previous snapshot or the new one, never an empty or
// torn file under the final name. (A rename without the fsyncs can be
// journaled before the data blocks reach disk; a crash in that window
// used to surface an empty snapshot despite the "atomic" rename.)
func (s *Server) writeSnapshot(path string) (int, error) {
	snap := snapshotFile{Version: snapshotVersion, SavedAtUnix: time.Now().Unix()}
	for _, e := range s.synth.Export() {
		se := snapshotEntry{
			Key:          e.Key,
			Valid:        e.Res.Valid,
			Optimal:      e.Res.Optimal,
			Iterations:   e.Res.Iterations,
			TrueSamples:  e.Res.TrueSamples,
			FalseSamples: e.Res.FalseSamples,
			GaveUp:       string(e.Res.GaveUp),
		}
		if e.Res.Predicate != nil {
			se.Predicate = e.Res.Predicate.String()
			se.Schema = predicateSchema(e.Res.Predicate)
		}
		snap.Entries = append(snap.Entries, se)
	}

	raw, err := json.Marshal(&snap)
	if err != nil {
		return 0, fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	if err := fsatomic.WriteFileBytes(path, raw); err != nil {
		return 0, fmt.Errorf("serve: writing snapshot: %w", err)
	}
	return len(snap.Entries), nil
}

// loadSnapshot warms the cache from path. Any file-level problem — absent
// file, truncation, garbage, an unknown version — results in a clean cold
// start: (0, nil) for an absent file, (0, err) otherwise, never a panic.
// Entries that individually fail to re-parse are skipped; the rest load.
func (s *Server) loadSnapshot(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return 0, fmt.Errorf("serve: snapshot is corrupt (cold start): %w", err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("serve: snapshot version %d (want %d); cold start", snap.Version, snapshotVersion)
	}
	n := 0
	// Entries are saved MRU-first; load them coldest-first so Put leaves
	// the hottest keys at the LRU front (and, past capacity, retained).
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		e := snap.Entries[i]
		if e.Key == "" {
			continue
		}
		res := &core.Result{
			Valid:        e.Valid,
			Optimal:      e.Optimal,
			Iterations:   e.Iterations,
			TrueSamples:  e.TrueSamples,
			FalseSamples: e.FalseSamples,
			GaveUp:       core.GiveUpReason(e.GaveUp),
		}
		if e.Predicate != "" {
			sch, err := api.BuildSchema(e.Schema)
			if err != nil {
				continue
			}
			p, err := predicate.Parse(e.Predicate, sch)
			if err != nil {
				continue
			}
			res.Predicate = p
		}
		s.synth.Put(e.Key, res)
		n++
	}
	return n, nil
}

// predicateSchema is the wire schema of the columns p references, each
// typed by its own ColumnRef: the type is all predicate.Parse reads back.
func predicateSchema(p predicate.Predicate) []api.SchemaColumn {
	var cols []api.SchemaColumn
	seen := map[string]bool{}
	var expr func(predicate.Expr)
	expr = func(e predicate.Expr) {
		switch x := e.(type) {
		case *predicate.ColumnRef:
			if !seen[x.Name] {
				seen[x.Name] = true
				cols = append(cols, api.SchemaColumn{Name: x.Name, Type: api.FormatType(x.Type)})
			}
		case *predicate.BinaryExpr:
			expr(x.Left)
			expr(x.Right)
		case *predicate.Const:
		default:
			panic(fmt.Sprintf("serve: unknown expression %T", e))
		}
	}
	var walk func(predicate.Predicate)
	walk = func(p predicate.Predicate) {
		switch x := p.(type) {
		case *predicate.Compare:
			expr(x.Left)
			expr(x.Right)
		case *predicate.And:
			for _, q := range x.Preds {
				walk(q)
			}
		case *predicate.Or:
			for _, q := range x.Preds {
				walk(q)
			}
		case *predicate.Not:
			walk(x.P)
		case *predicate.Literal:
		default:
			panic(fmt.Sprintf("serve: unknown predicate %T", p))
		}
	}
	walk(p)
	return cols
}
