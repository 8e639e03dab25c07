package experiments

import (
	"strings"
	"testing"
	"time"
)

// smallCfg keeps the experiment tests fast while still exercising every
// aggregation path.
func smallCfg() Config {
	return Config{Queries: 6, ScaleFactors: []float64{0.05}, MaxIterations: 15}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Variant != VariantSIA || rows[0].MaxIterations != 41 || rows[0].InitialTrue != 10 {
		t.Fatalf("SIA row wrong: %+v", rows[0])
	}
	if rows[1].InitialTrue != 110 || rows[2].InitialTrue != 220 {
		t.Fatalf("baseline sample counts wrong: %+v %+v", rows[1], rows[2])
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "SIA_v2") || !strings.Contains(out, "N/A") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

func TestSweepAndAggregations(t *testing.T) {
	records, err := SynthesisSweep(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	// Every record triple (one per variant) shares Possible and TCValid.
	byKey := map[string][]RunRecord{}
	for _, r := range records {
		key := strings.Join(r.Cols, ",") + "#" + string(rune(r.QueryID))
		byKey[key] = append(byKey[key], r)
	}
	for key, rs := range byKey {
		for _, r := range rs[1:] {
			if r.Possible != rs[0].Possible || r.TCValid != rs[0].TCValid {
				t.Fatalf("inconsistent shared fields for %q", key)
			}
		}
	}

	t2 := Table2(records)
	if len(t2) == 0 {
		t.Fatal("empty table 2")
	}
	for _, row := range t2 {
		for _, v := range Variants() {
			if row.Valid[v] > row.Possible {
				t.Fatalf("%s valid %d > possible %d in %d-col row", v, row.Valid[v], row.Possible, row.NumCols)
			}
			if row.Optimal[v] > row.Valid[v] {
				t.Fatalf("%s optimal > valid in %d-col row", v, row.NumCols)
			}
		}
		if row.TCValid > row.Possible {
			// TC derives syntactically; everything it derives is valid,
			// and validity requires symbolic relevance to be non-trivial.
			// TC may however derive trivial-but-valid bounds for
			// non-relevant subsets, so only sanity-check the ceiling.
			t.Logf("note: TC valid %d > possible %d in %d-col row", row.TCValid, row.Possible, row.NumCols)
		}
	}
	if out := RenderTable2(t2); !strings.Contains(out, "one") {
		t.Fatalf("render table 2:\n%s", out)
	}

	t3 := Table3(records)
	if len(t3) == 0 {
		t.Fatal("empty table 3")
	}
	if out := RenderTable3(t3); !strings.Contains(out, "SIA_v1") {
		t.Fatalf("render table 3:\n%s", out)
	}

	f7 := Fig7(records)
	if out := RenderFig7(f7); !strings.Contains(out, "not optimal") {
		t.Fatalf("render fig 7:\n%s", out)
	}
	f8 := Fig8(records)
	total7, total8 := 0, 0
	for n := range f8.TrueCounts {
		for _, c := range f8.TrueCounts[n] {
			total8 += c
		}
	}
	for n := range f7.Counts {
		for _, c := range f7.Counts[n] {
			total7 += c
		}
		total7 += f7.NotConverged[n]
	}
	if total7 != total8 {
		t.Fatalf("fig 7 and fig 8 disagree on synthesized count: %d vs %d", total7, total8)
	}
	if out := RenderFig8(f8); !strings.Contains(out, "FALSE samples") {
		t.Fatalf("render fig 8:\n%s", out)
	}
}

func TestFig9AndSummaries(t *testing.T) {
	diskCfg := smallCfg()
	diskCfg.SegmentRows = 128 // many segments even at the test scale
	for _, tc := range []struct {
		name       string
		experiment func(Config) ([]RuntimeRecord, error)
		cfg        Config
		disk       bool
	}{
		{"memory", Fig9, smallCfg(), false},
		{"disk", Fig9Disk, diskCfg, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			records, err := tc.experiment(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) == 0 {
				t.Fatal("no runtime records")
			}
			rewritten := 0
			for _, r := range records {
				if r.Original <= 0 {
					t.Fatalf("missing original time: %+v", r)
				}
				if scanned := r.OrigStorage.SegmentsScanned; (scanned > 0) != tc.disk {
					t.Fatalf("original plan scanned %d segments (disk=%v): %+v", scanned, tc.disk, r)
				}
				if r.Rewritten {
					rewritten++
					if r.Synthesized == nil || r.RewrittenTime <= 0 {
						t.Fatalf("incomplete rewritten record: %+v", r)
					}
					if r.Selectivity < 0 || r.Selectivity > 1 {
						t.Fatalf("selectivity out of range: %+v", r)
					}
				}
			}
			if rewritten == 0 {
				t.Fatal("no queries were rewritten; the experiment is vacuous")
			}
			sums := Summarize(records)
			if len(sums) != 1 {
				t.Fatalf("summaries = %d", len(sums))
			}
			s := sums[0]
			if s.Rewritten != rewritten || s.Faster+s.Slower != s.Rewritten {
				t.Fatalf("rewritten=%d but summary says %+v", rewritten, s)
			}
			if s.Faster2x > s.Faster || s.Slower2x > s.Slower {
				t.Fatalf("2x counts exceed totals: %+v", s)
			}
			out := RenderFig9(records, sums)
			if !strings.Contains(out, "speedup") {
				t.Fatalf("render fig 9:\n%s", out)
			}
			if tc.disk {
				if s.SegmentsPruned == 0 {
					t.Fatal("rewritten plans pruned no segments; zone maps never fired")
				}
				if s.BytesReadRw >= s.BytesReadOrig {
					t.Fatalf("rewrite read more bytes than the original: %d vs %d", s.BytesReadRw, s.BytesReadOrig)
				}
			}
			if strings.Contains(out, "segments pruned") != tc.disk {
				t.Fatalf("storage line (disk=%v):\n%s", tc.disk, out)
			}

			// A repeated run reuses the synthesis cache: no new CEGIS loops.
			before := fig9Synth.Stats()
			if _, err := tc.experiment(tc.cfg); err != nil {
				t.Fatal(err)
			}
			after := fig9Synth.Stats()
			if after.Misses != before.Misses {
				t.Fatalf("repeated run re-ran synthesis: %d -> %d misses", before.Misses, after.Misses)
			}
			if after.Hits <= before.Hits {
				t.Fatalf("repeated run never hit the cache: %+v -> %+v", before, after)
			}
		})
	}
}

func TestMotivating(t *testing.T) {
	m, err := Motivating(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Q1Time <= 0 || m.Q2Time <= 0 {
		t.Fatalf("times missing: %+v", m)
	}
	// The three inferred predicates must reduce the join input.
	if m.Q2JoinIn >= m.Q1JoinIn {
		t.Fatalf("rewrite did not reduce join input: %d vs %d", m.Q2JoinIn, m.Q1JoinIn)
	}
	if out := RenderMotivating(m); !strings.Contains(out, "speedup") {
		t.Fatalf("render: %s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Queries != 200 || cfg.MaxIterations != 41 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
	if len(cfg.ScaleFactors) != 2 {
		t.Fatalf("default scale factors: %+v", cfg.ScaleFactors)
	}
	_ = time.Now() // keep time import if assertions change
}
