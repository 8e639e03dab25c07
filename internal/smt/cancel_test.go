package smt

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// work is the solver's work clock: interner lookups plus models emitted
// by the sweep's enumerations. Every Simplify of a substitution instance
// interns its atoms, so the Cooper and Loos–Weispfenning loops advance it;
// an enumeration advances it once per model.
func work() int64 { return int64(mInternHits.Value()+mInternMisses.Value()) + emitted }

// emitted counts the models the sweep's enumeration entry has received.
var emitted int64

// cancelAtWork is a context that is cancelled once the work clock reaches
// at. The solver sees that only at its next poll, so the work done between
// at and the call's return is the overshoot a missing poll lengthens. A
// context cancelled at the k-th poll instead could never show a deleted
// poll: the cancellation would just land on the next one that exists.
type cancelAtWork struct {
	context.Context
	at     int64
	failed bool // an Err call has failed
	late   int  // Err calls after the first failing one
}

func (c *cancelAtWork) Err() error {
	if work() < c.at {
		return nil
	}
	if c.failed {
		c.late++
	}
	c.failed = true
	return context.Canceled
}

// sweepEntry is one public solver entry on a formula that reaches the
// polls under test. run returns the call's answer rendered as a string.
type sweepEntry struct {
	name string
	run  func(ctx context.Context) (string, error)
}

func sweepEntries() []sweepEntry {
	x, y, z := IntVar("cx"), IntVar("cy"), IntVar("cz")
	// Cooper: eliminating x needs a divisibility period of 30, so its loop
	// runs 30 iterations over several bounds.
	cooper := &Exists{V: x, F: NewAnd(
		LT(VarTerm(y), VarTerm(x).Scale(ratInt(6))),
		LE(VarTerm(x).Scale(ratInt(10)), VarTerm(z).AddVar(y, ratInt(2))),
		LT(VarTerm(z).Scale(ratInt(3)), VarTerm(x).Scale(ratInt(15)).AddVar(y, ratInt(1))),
		NE(VarTerm(x).Scale(ratInt(5)).AddVar(z, ratInt(1)), ConstTerm(7)),
	)}
	// Loos–Weispfenning: eliminating r tries one point per bound.
	r, u, w := RealVar("cr"), RealVar("cu"), RealVar("cw")
	var realFs []Formula
	for i := int64(1); i <= 16; i++ {
		realFs = append(realFs,
			LT(VarTerm(u).AddVar(w, ratInt(i)), VarTerm(r).Scale(ratInt(i+1))),
			LE(VarTerm(r).Scale(ratInt(i)), VarTerm(w).AddVar(u, ratInt(-i)).AddInt64(3*i)),
		)
	}
	real := &Exists{V: r, F: NewAnd(realFs...)}
	// Enumeration: a bounded region with many integer points.
	region := NewAnd(
		GE(VarTerm(x), ConstTerm(0)), LE(VarTerm(x), ConstTerm(40)),
		GE(VarTerm(y), ConstTerm(-20)), LE(VarTerm(y), VarTerm(x)),
		NE(VarTerm(x).AddVar(y, ratInt(3)), ConstTerm(11)),
	)
	// Vacuous universals: each level negates and re-simplifies the body
	// without a Cooper loop, so only eliminate's own poll sits between two
	// levels.
	var vacuous Formula = NewAnd(region, LT(VarTerm(z), VarTerm(x).AddVar(y, ratInt(2))))
	for i := 0; i < 24; i++ {
		vacuous = &ForAll{V: IntVar(fmt.Sprintf("cv%d", i)), F: vacuous}
	}
	// Univariate enumeration: the last level scans its candidates with no
	// quantifier elimination between them.
	line := NewAnd(GE(VarTerm(x), ConstTerm(-300)), LE(VarTerm(x), ConstTerm(300)),
		NE(VarTerm(x).Scale(ratInt(3)), ConstTerm(21)), LT(VarTerm(x).Scale(ratInt(2)), VarTerm(x).AddInt64(250)))
	return []sweepEntry{
		{"qe/cooper", func(ctx context.Context) (string, error) {
			g, err := New().QECtx(ctx, cooper)
			if err != nil {
				return "", err
			}
			return g.String(), nil
		}},
		{"qe/real", func(ctx context.Context) (string, error) {
			g, err := New().QECtx(ctx, real)
			if err != nil {
				return "", err
			}
			return g.String(), nil
		}},
		{"qe/vacuous", func(ctx context.Context) (string, error) {
			g, err := New().QECtx(ctx, vacuous)
			if err != nil {
				return "", err
			}
			return g.String(), nil
		}},
		{"qe/quantifier-free", func(ctx context.Context) (string, error) {
			g, err := New().QECtx(ctx, region)
			if err != nil {
				return "", err
			}
			return g.String(), nil
		}},
		{"sat", func(ctx context.Context) (string, error) {
			ok, err := New().SatisfiableCtx(ctx, adversarial())
			return fmt.Sprint(ok), err
		}},
		{"model", func(ctx context.Context) (string, error) {
			m, err := New().ModelCtx(ctx, adversarial())
			if err != nil {
				return "", err
			}
			return fmt.Sprint(m), nil
		}},
		{"enumerate", func(ctx context.Context) (string, error) {
			n := 0
			err := New().EnumerateModelsCtx(ctx, line, []Var{x}, 400, func(Model) bool {
				n++
				emitted++
				return true
			})
			return fmt.Sprint(n), err
		}},
	}
}

// Sweep bounds. Every public entry has a poll within maxOvershoot units of
// work of any point of its run (the largest gap measured is 30 units, in
// qe/real), and once a poll has failed the call unwinds making at most
// maxLateErrs further Err calls (the memo-store poll and its caller's).
// Deleting any one of the solver's polls takes some entry's overshoot past
// 270 units.
const (
	maxOvershoot = 64
	maxLateErrs  = 2
)

// TestCancellationSweep cancels every public solver entry at every point
// of its work in turn, stepping so that each entry makes at most ~300
// runs. A cancelled call must return the clean run's answer or
// ErrInterrupted wrapping context.Canceled, and must return within
// maxOvershoot units of work of the cancellation. A context that is
// already cancelled fails every entry. After each cancelled call a rerun
// on a fresh context must answer as the clean run did, which is the
// poisoned-memo check: a result assembled while the context was dying
// must never be stored.
func TestCancellationSweep(t *testing.T) {
	for _, e := range sweepEntries() {
		t.Run(e.name, func(t *testing.T) { sweepCancellation(t, e.run) })
	}
}

// sweepCancellation is one entry's sweep: see TestCancellationSweep.
func sweepCancellation(t *testing.T, run func(ctx context.Context) (string, error)) {
	t.Helper()
	qeMemo.Purge()
	base := work()
	want, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := work() - base
	for k := int64(0); k <= total; k += total/300 + 1 {
		qeMemo.Purge()
		ctx := &cancelAtWork{Context: context.Background(), at: work() + k}
		got, err := run(ctx)
		switch {
		case err == nil && k == 0:
			t.Fatalf("a context cancelled before the call answered %s", got)
		case err == nil && got != want:
			t.Fatalf("k=%d: answered %s, clean run answered %s", k, got, want)
		case err != nil && !(errors.Is(err, ErrInterrupted) && errors.Is(err, context.Canceled)):
			t.Fatalf("k=%d: error %v, want ErrInterrupted wrapping context.Canceled", k, err)
		}
		if over := work() - ctx.at; over > maxOvershoot {
			t.Fatalf("k=%d: %d units of work after the cancellation, want at most %d", k, over, maxOvershoot)
		}
		if ctx.late > maxLateErrs {
			t.Fatalf("k=%d: %d Err calls after the first failing one, want at most %d", k, ctx.late, maxLateErrs)
		}
		if rerun, err := run(context.Background()); err != nil || rerun != want {
			t.Fatalf("k=%d: rerun after cancellation answered %s, %v; clean run answered %s", k, rerun, err, want)
		}
	}
}
