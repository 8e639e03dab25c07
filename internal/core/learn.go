package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"sia/internal/predicate"
	"sia/internal/smt"
	"sia/internal/svm"
)

// errNotSeparable is returned when Learn cannot make progress: some TRUE
// sample coincides with (or is surrounded by) FALSE samples so that no
// disjunction of hyperplanes classifies every TRUE sample correctly. This
// is the paper's §6.7 limitation; the synthesis loop gives up cleanly.
var errNotSeparable = errors.New("sia: training samples are not linearly separable")

// learner runs the paper's Alg. 2: train a linear SVM; if some TRUE samples
// are misclassified, train another SVM on just those TRUE samples plus all
// FALSE samples; repeat until every TRUE sample is classified correctly;
// return the disjunction of all models.
type learner struct {
	space  sampleSpace
	schema *predicate.Schema
	opts   Options
	// sampler gives access to the projected feasible region for
	// orientation-boundedness checks; may be nil in tests.
	sampler *sampler

	// invalidCount tracks Verify failures per plane orientation. When an
	// orientation keeps producing invalid candidates, the feasible region
	// may simply be unbounded in that direction — then no constant can
	// ever make it valid, and CEGIS would chase counter-examples forever
	// (one notch per iteration). After a few strikes the orientation's
	// boundedness is decided with the solver and unbounded ones are
	// blacklisted.
	invalidCount map[string]int
	blacklisted  map[string]bool
}

// orientationKey canonicalizes a plane's direction: coefficients divided by
// their GCD, sign preserved (a lower bound and an upper bound are different
// orientations).
func orientationKey(p svm.IntegerPlane) string {
	g := new(big.Int)
	for _, c := range p.Coeffs {
		a := new(big.Int).Abs(c)
		if a.Sign() == 0 {
			continue
		}
		if g.Sign() == 0 {
			g.Set(a)
		} else {
			g.GCD(nil, nil, g, a)
		}
	}
	if g.Sign() == 0 {
		g.SetInt64(1)
	}
	key := ""
	for _, c := range p.Coeffs {
		key += new(big.Int).Quo(c, g).String() + ","
	}
	return key
}

// noteInvalid records a Verify failure for every plane of the candidate,
// deciding boundedness (and blacklisting) after three strikes.
func (l *learner) noteInvalid(ctx context.Context, lr *learnResult) {
	if l.invalidCount == nil {
		l.invalidCount = map[string]int{}
		l.blacklisted = map[string]bool{}
	}
	for _, p := range lr.planes {
		key := orientationKey(p)
		l.invalidCount[key]++
		if l.invalidCount[key] == 3 && l.sampler != nil && !l.blacklisted[key] {
			if unbounded, err := l.orientationUnbounded(ctx, p); err == nil && unbounded {
				l.blacklisted[key] = true
			}
		}
	}
}

// orientationUnbounded checks whether w·x can be driven below any bound on
// the feasible (projected) region — if so, no plane w·x + c > 0 is ever a
// valid reduction.
func (l *learner) orientationUnbounded(ctx context.Context, p svm.IntegerPlane) (bool, error) {
	dir := smt.NewTerm(nil)
	for i, c := range p.Coeffs {
		if c.Sign() != 0 {
			dir.AddVar(l.space.Vars[i], new(big.Rat).SetInt(c))
		}
	}
	low := smt.LT(dir, smt.NewTerm(new(big.Rat).SetInt64(-1_000_000_000)))
	return l.sampler.solver.SatisfiableCtx(ctx, smt.NewAnd(l.sampler.satBase, low))
}

// learnResult is the candidate predicate as a disjunction of exact integer
// half-planes.
type learnResult struct {
	planes []svm.IntegerPlane
}

// Learn implements Alg. 2. It guarantees (or fails trying) that every TRUE
// sample satisfies the returned disjunction of half-planes.
//
// Two departures from a naive SVM call, both needed for the loop to work:
//
//   - C escalation: Sia requires every TRUE sample classified correctly,
//     but with a small C the SVM may prefer sacrificing a few TRUE samples
//     to paying for a tight margin, which would look like
//     non-separability. C is escalated toward a hard margin until a plane
//     makes progress.
//   - Bounded integerization: float weights are snapped to integer
//     coefficients with magnitude ≤ MaxDenominator by a single scale, and
//     the best-classifying candidate is chosen with exact arithmetic.
//     Verification and counter-example queries pay Cooper-elimination cost
//     proportional to coefficient LCMs, so small coefficients keep the
//     solver fast.
func (l *learner) Learn(ts, fs []Sample) (*learnResult, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("sia: no TRUE samples to learn from")
	}
	var falseEx []svm.Example
	for _, f := range fs {
		falseEx = append(falseEx, svm.Example{X: f.Features(), Y: -1})
	}
	// Bound on acceptable plane constants: a plane whose offset dwarfs
	// every sample's reach (|Σcᵢxᵢ| ≤ maxAbs·dim·maxCoeff) classifies all
	// samples identically — it is degenerate noise from a near-zero SVM
	// weight vector, and its huge constant would poison later solver
	// queries. Such candidates are discarded.
	maxAbs := new(big.Rat).SetInt64(1)
	for _, s := range append(append([]Sample(nil), ts...), fs...) {
		for _, v := range s.Vals {
			if a := new(big.Rat).Abs(v); a.Cmp(maxAbs) > 0 {
				maxAbs = a
			}
		}
	}
	cBound := new(big.Rat).Mul(maxAbs, new(big.Rat).SetInt64(l.opts.MaxDenominator*int64(len(l.space.Cols)+2)))
	cBound.Add(cBound, new(big.Rat).SetInt64(64))

	res := &learnResult{}
	pending := ts
	axis := axisPlanes(ts)
	// Each round must classify at least one TRUE sample correctly, so the
	// number of rounds is bounded by len(ts); the cap is a safety net.
	for round := 0; round < len(ts)+1; round++ {
		if len(pending) == 0 {
			return res, nil
		}
		batch := falseEx[:len(falseEx):len(falseEx)]
		for _, t := range pending {
			batch = append(batch, svm.Example{X: t.Features(), Y: 1})
		}
		var best *svm.IntegerPlane
		bestScore := -1 << 30
		var bestStill []Sample
		consider := func(plane svm.IntegerPlane) {
			if new(big.Rat).Abs(new(big.Rat).SetInt(plane.C)).Cmp(cBound) > 0 {
				return
			}
			if l.blacklisted[orientationKey(plane)] {
				return
			}
			score, still := l.scorePlane(plane, pending, fs)
			if len(still) == len(pending) {
				// A plane that rescues no pending TRUE sample cannot
				// advance Alg. 2, however well it treats the FALSE side;
				// considering it would stall the round.
				return
			}
			if score > bestScore {
				best, bestScore, bestStill = &plane, score, still
			}
		}
		// Axis-aligned bound planes (the tightest per-column bounds that
		// cover every TRUE sample) complement the SVM's single
		// orientation: an interval-shaped TRUE region needs cuts on both
		// sides, but a soft-margin SVM proposes only the orientation with
		// the larger FALSE mass. The SVM stays the primary learner; these
		// are extra candidates scored by the same exact rule.
		for _, p := range axis {
			consider(p)
		}
		for _, c := range []float64{10, 1e3, 1e6, 1e9} {
			model, err := svm.Train(batch, svm.Options{C: c})
			if err != nil {
				return nil, fmt.Errorf("sia: training SVM: %w", err)
			}
			for _, plane := range svm.IntegerizePlane(model.W, model.B, l.opts.MaxDenominator) {
				consider(plane)
			}
			if best != nil && len(bestStill) == 0 {
				break
			}
		}
		if best == nil || len(bestStill) == len(pending) {
			// No progress at any C or scale: the remaining TRUE samples
			// cannot be separated from the FALSE samples by an additional
			// hyperplane (§6.7's limitation).
			return nil, errNotSeparable
		}
		res.planes = append(res.planes, *best)
		pending = bestStill
	}
	return nil, errNotSeparable
}

// axisPlanes returns the tightest bound half-planes that accept every TRUE
// sample along each elementary direction: per column xᵢ (xᵢ > minᵢ - 1 and
// xᵢ < maxᵢ + 1) and per column pair the difference xᵢ - xⱼ. Differences
// matter because date predicates overwhelmingly constrain gaps between
// dates (every predicate in the paper's benchmark does); an SVM trained on
// clustered counter-examples often misses that orientation. Bounds are
// exact for integral columns and a unit-slack cover for reals; verification
// treats these candidates like any other.
func axisPlanes(ts []Sample) []svm.IntegerPlane {
	if len(ts) == 0 {
		return nil
	}
	dim := len(ts[0].Vals)
	var out []svm.IntegerPlane
	// value(i, j) computes the projection of a sample onto the direction:
	// column i alone (j < 0) or the difference xᵢ - xⱼ.
	value := func(s Sample, i, j int) *big.Rat {
		if j < 0 {
			return s.Vals[i]
		}
		return new(big.Rat).Sub(s.Vals[i], s.Vals[j])
	}
	direction := func(i, j int) func(sign int64, c *big.Int) svm.IntegerPlane {
		return func(sign int64, c *big.Int) svm.IntegerPlane {
			coeffs := make([]*big.Int, dim)
			for k := range coeffs {
				coeffs[k] = big.NewInt(0)
			}
			coeffs[i] = big.NewInt(sign)
			if j >= 0 {
				coeffs[j] = big.NewInt(-sign)
			}
			return svm.IntegerPlane{Coeffs: coeffs, C: c}
		}
	}
	addBounds := func(i, j int) {
		lo := new(big.Rat).Set(value(ts[0], i, j))
		hi := new(big.Rat).Set(lo)
		for _, t := range ts[1:] {
			v := value(t, i, j)
			if v.Cmp(lo) < 0 {
				lo.Set(v)
			}
			if v.Cmp(hi) > 0 {
				hi.Set(v)
			}
		}
		mk := direction(i, j)
		// dir > lo - 1: coefficient +1 on the direction, C = 1 - floor(lo).
		loC := new(big.Int).Neg(floorRat(lo))
		loC.Add(loC, big.NewInt(1))
		out = append(out, mk(1, loC))
		// dir < hi + 1: coefficient -1, C = ceil(hi) + 1.
		hiC := new(big.Int).Add(ceilRat(hi), big.NewInt(1))
		out = append(out, mk(-1, hiC))
	}
	for i := 0; i < dim; i++ {
		addBounds(i, -1)
		for j := i + 1; j < dim; j++ {
			addBounds(i, j)
		}
	}
	return out
}

func floorRat(r *big.Rat) *big.Int {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return q
}

func ceilRat(r *big.Rat) *big.Int {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 && !r.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return q
}

// scorePlane evaluates a candidate half-plane exactly. The score counts
// correctly classified samples, weighting TRUE coverage first (the loop's
// progress depends on it); still collects the TRUE samples the plane
// rejects.
func (l *learner) scorePlane(p svm.IntegerPlane, pending, fs []Sample) (score int, still []Sample) {
	for _, t := range pending {
		if p.Accepts(t.Vals) {
			score += 2
		} else {
			still = append(still, t)
		}
	}
	for _, f := range fs {
		if !p.Accepts(f.Vals) {
			score++
		}
	}
	return score, still
}

// predicate converts the learned disjunction into a predicate AST over the
// original columns.
func (r *learnResult) predicate(space sampleSpace, schema *predicate.Schema) predicate.Predicate {
	var disjuncts []predicate.Predicate
	for _, plane := range r.planes {
		lin := predicate.NewLinear()
		for i, c := range plane.Coeffs {
			if c.Sign() != 0 {
				lin.AddTerm(space.Cols[i], new(big.Rat).SetInt(c))
			}
		}
		lin.Const = new(big.Rat).SetInt(plane.C)
		expr, _ := predicate.LinearToExpr(lin, schema)
		disjuncts = append(disjuncts, predicate.Cmp(predicate.CmpGT, expr, predicate.IntConst(0)))
	}
	return predicate.NewOr(disjuncts...)
}
