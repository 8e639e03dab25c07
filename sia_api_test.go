package sia_test

import (
	"context"
	"testing"

	"sia"
	"sia/internal/predicate"
)

func TestPublicAPIQuickstart(t *testing.T) {
	schema := sia.NewSchema(
		sia.Date("l_shipdate"), sia.Date("l_commitdate"), sia.Date("o_orderdate"),
	)
	pred, err := sia.ParsePredicate(`l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`, schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sia.SynthesizeContext(context.Background(), pred, []string{"l_commitdate", "l_shipdate"}, schema, sia.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicate == nil || !res.Valid {
		t.Fatalf("quickstart failed: %+v", res)
	}
	// The synthesized predicate must be a verified reduction.
	ok, err := sia.VerifyReductionContext(context.Background(), pred, res.Predicate, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("VerifyReductionContext rejects the synthesizer's own output: %s", res.Predicate)
	}
	// And it must accept the paper's Q2 tuples: ship 1993-06-19,
	// commit 1993-07-17 is feasible (order 1993-05-31).
	tu := sia.Tuple{
		"l_shipdate":   predicate.IntVal(predicate.DateToDays(1993, 6, 19)),
		"l_commitdate": predicate.IntVal(predicate.DateToDays(1993, 7, 17)),
	}
	if !predicate.Satisfies(res.Predicate, tu) {
		t.Fatalf("boundary tuple rejected by %s", res.Predicate)
	}
}

func TestPublicAPIVerifyHandWrittenRewrite(t *testing.T) {
	schema := sia.NewSchema(sia.Int("a"), sia.Int("b"))
	p, err := sia.ParsePredicate("a - b < 20 AND b < 0", schema)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sia.ParsePredicate("a < 19", schema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sia.VerifyReductionContext(context.Background(), p, good, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a < 19 is implied by a - b < 20 AND b < 0")
	}
	bad, _ := sia.ParsePredicate("a < 18", schema)
	ok, err = sia.VerifyReductionContext(context.Background(), p, bad, schema)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a < 18 is too strong (a = 18, b = -1 satisfies p)")
	}
}

func TestPublicAPIPresets(t *testing.T) {
	for _, opts := range []sia.Options{sia.PresetSIA(), sia.PresetSIAV1(), sia.PresetSIAV2()} {
		if opts.InitialTrue == 0 {
			t.Fatalf("preset not populated: %+v", opts)
		}
	}
	if sia.PresetSIA().MaxIterations != 41 {
		t.Fatal("SIA preset should use the paper's 41 iterations")
	}
}

func TestPublicAPINullable(t *testing.T) {
	c := sia.Nullable(sia.Int("x"))
	if c.NotNull {
		t.Fatal("Nullable should clear NotNull")
	}
}
