package svm

import (
	"math"
	"math/big"
)

// IntegerPlane is an exact half-plane Σ Coeffs[i]·xᵢ + C > 0.
type IntegerPlane struct {
	Coeffs []*big.Int
	C      *big.Int
}

// Accepts evaluates the half-plane on an exact point.
func (p IntegerPlane) Accepts(x []*big.Rat) bool {
	sum := new(big.Rat).SetInt(p.C)
	tmp := new(big.Rat)
	for i, c := range p.Coeffs {
		sum.Add(sum, tmp.Mul(new(big.Rat).SetInt(c), x[i]))
	}
	return sum.Sign() > 0
}

// IntegerizePlane converts float SVM weights (W, B) into candidate integer
// half-planes with coefficient magnitudes bounded by maxCoeff. For each
// scale k = 1..maxCoeff it normalizes by max |W|, multiplies by k, and
// rounds to the nearest integers. The largest weight normalizes to exactly
// ±1 and so rounds to ±k: no scale rounds to all zeros, and no two scales
// yield the same coefficients. A zero or non-finite input yields nil.
//
// Bounding the coefficients by a single scale (instead of per-weight
// rationalization) matters downstream: Cooper's quantifier elimination pays
// for the LCM of coefficient magnitudes, so a plane like (16, -144, 720)
// — easily produced by clearing denominators of independently rationalized
// weights — would make verification and counter-example queries explode.
// The caller picks the candidate that best classifies its training samples.
func IntegerizePlane(w []float64, b float64, maxCoeff int64) []IntegerPlane {
	norm := 0.0
	for _, x := range w {
		if math.IsNaN(x) {
			return nil
		}
		if a := math.Abs(x); a > norm {
			norm = a
		}
	}
	if norm == 0 || math.IsInf(norm, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		return nil
	}
	var out []IntegerPlane
	for k := int64(1); k <= maxCoeff; k++ {
		coeffs := make([]*big.Int, len(w))
		for i, x := range w {
			coeffs[i] = big.NewInt(int64(math.Round(x / norm * float64(k))))
		}
		// The rounded constant decides which boundary points the plane
		// accepts, and an off-by-one there is the difference between a
		// valid and an invalid predicate; emit the neighbors too and let
		// the caller's exact scoring pick.
		c := int64(math.Round(b / norm * float64(k)))
		for _, cc := range []int64{c, c - 1, c + 1} {
			out = append(out, IntegerPlane{Coeffs: coeffs, C: big.NewInt(cc)})
		}
	}
	return out
}
