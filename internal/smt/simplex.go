package smt

import (
	"math/big"
)

// This file implements an exact-arithmetic Phase-I simplex over the
// rationals, used as a sound fast path in SatisfiableCtx: a conjunction of
// linear atoms that is infeasible over ℚ is certainly infeasible over ℤ,
// so the (far more expensive) quantifier-elimination pipeline can be
// skipped. Rational feasibility proves nothing for integer variables
// (2x = 7 is ℚ-feasible), so a feasible answer falls through to the exact
// procedure. This mirrors how DPLL(T) solvers front-load an LRA simplex
// before integer reasoning.

// simplexVerdict is the outcome of the rational relaxation check.
type simplexVerdict int

const (
	// simplexInfeasible: no rational point satisfies the relaxed system —
	// a proof of UNSAT for the original conjunction.
	simplexInfeasible simplexVerdict = iota
	// simplexFeasible: the relaxed system has a rational solution; the
	// exact procedure must still decide.
	simplexFeasible
	// simplexInapplicable: the formula is not a conjunction of linear
	// atoms this check can relax (disjunction, negated divisibility, …).
	simplexInapplicable
)

// relaxConjunction extracts the atoms of a conjunction, relaxing strict
// inequalities t < 0 to t ≤ 0 and dropping ≠ atoms and divisibility
// constraints — all sound weakenings for an infeasibility pre-check.
// Returns nil rows and simplexInapplicable when f is not a conjunction of
// atoms.
func relaxConjunction(f Formula) ([]*Term, []bool, simplexVerdict) {
	var les []*Term // each entry asserts term ≤ 0
	var eqs []bool  // parallel: true when the row is an equality term = 0
	applicable := true
	var walk func(g Formula) bool
	walk = func(g Formula) bool {
		switch x := g.(type) {
		case Bool:
			return bool(x) // FALSE makes the conjunction trivially infeasible
		case *And:
			for _, c := range x.Fs {
				if !walk(c) {
					return false
				}
			}
			return true
		case *Atom:
			switch x.Op {
			case OpLT, OpLE:
				les = append(les, x.T)
				eqs = append(eqs, false)
			case OpEQ:
				les = append(les, x.T)
				eqs = append(eqs, true)
			case OpNE:
				// Dropping t ≠ 0 only weakens the system.
			}
			return true
		case *Div:
			// Divisibility constraints have no rational content; dropping
			// them weakens the system, which keeps the check sound.
			return true
		default:
			applicable = false
			return true
		}
	}
	if !walk(f) {
		return nil, nil, simplexInfeasible
	}
	if !applicable {
		return nil, nil, simplexInapplicable
	}
	return les, eqs, simplexFeasible
}

// simplexCheck decides rational feasibility of the conjunction f (if f has
// the right shape). It never errs toward simplexInfeasible: that verdict
// is a proof.
func simplexCheck(f Formula) simplexVerdict {
	rows, eqRows, verdict := relaxConjunction(f)
	if verdict != simplexFeasible {
		return verdict
	}
	if len(rows) == 0 {
		return simplexFeasible
	}
	// Collect variables; each unrestricted variable x becomes x⁺ - x⁻
	// with x⁺, x⁻ ≥ 0 (standard-form transformation).
	varIdx := map[Var]int{}
	var vars []Var
	for _, t := range rows {
		for _, v := range t.Vars(nil) {
			if _, ok := varIdx[v]; !ok {
				varIdx[v] = len(vars)
				vars = append(vars, v)
			}
		}
	}
	n := 2 * len(vars) // x⁺/x⁻ pairs
	m := len(rows)

	// Build A·y = b with y ≥ 0: row i is tᵢ ≤ 0 → Σ aᵢⱼ·yⱼ + sᵢ = -cᵢ
	// (slack sᵢ ≥ 0), or tᵢ = 0 → no slack. Right-hand sides are made
	// non-negative by row negation so Phase I can start from the
	// artificial basis.
	type row struct {
		a []*big.Rat
		b *big.Rat
	}
	slacks := 0
	for _, isEq := range eqRows {
		if !isEq {
			slacks++
		}
	}
	total := n + slacks
	rowsStd := make([]row, m)
	slackAt := 0
	for i, t := range rows {
		a := make([]*big.Rat, total)
		for j := range a {
			a[j] = new(big.Rat)
		}
		for _, v := range t.Vars(nil) {
			c := t.Coeff(v)
			j := varIdx[v]
			a[2*j].Add(a[2*j], c)
			a[2*j+1].Sub(a[2*j+1], c)
		}
		b := new(big.Rat).Neg(t.Const())
		if !eqRows[i] {
			a[n+slackAt].SetInt64(1)
			slackAt++
		}
		if b.Sign() < 0 {
			for _, x := range a {
				x.Neg(x)
			}
			b.Neg(b)
		}
		rowsStd[i] = row{a: a, b: b}
	}

	// Phase I tableau: minimize the sum of one artificial variable per
	// row. Feasible iff the optimum is zero.
	cols := total + m // + artificials
	tab := make([][]*big.Rat, m+1)
	for i := 0; i <= m; i++ {
		tab[i] = make([]*big.Rat, cols+1)
		for j := range tab[i] {
			tab[i][j] = new(big.Rat)
		}
	}
	basis := make([]int, m)
	for i, r := range rowsStd {
		copy(tab[i][:total], r.a)
		tab[i][total+i].SetInt64(1)
		tab[i][cols].Set(r.b)
		basis[i] = total + i
	}
	// Objective row: z = Σ artificials; expressed in terms of the
	// non-basic columns by subtracting each constraint row.
	obj := tab[m]
	for i := 0; i < m; i++ {
		for j := 0; j <= cols; j++ {
			if j >= total && j < total+m {
				continue // artificial columns stay zero in the reduced row
			}
			obj[j].Sub(obj[j], tab[i][j])
		}
	}

	// Bland's rule guarantees termination without cycling.
	for iter := 0; iter < 10000; iter++ {
		pivotCol := -1
		for j := 0; j < total; j++ { // never re-enter artificials
			if obj[j].Sign() < 0 {
				pivotCol = j
				break
			}
		}
		if pivotCol < 0 {
			break
		}
		pivotRow := -1
		var best *big.Rat
		for i := 0; i < m; i++ {
			if tab[i][pivotCol].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(tab[i][cols], tab[i][pivotCol])
			if pivotRow < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && basis[i] < basis[pivotRow]) {
				pivotRow, best = i, ratio
			}
		}
		if pivotRow < 0 {
			// Unbounded Phase-I objective cannot happen (it is bounded
			// below by 0); defensively report feasible (sound).
			return simplexFeasible
		}
		pivot(tab, basis, pivotRow, pivotCol, cols)
	}
	if obj[cols].Sign() != 0 {
		// Optimum of Σ artificials is > 0 (stored negated in the reduced
		// row, hence != 0): the system has no rational solution.
		return simplexInfeasible
	}
	return simplexFeasible
}

// pivot performs a full tableau pivot on (pr, pc).
func pivot(tab [][]*big.Rat, basis []int, pr, pc, cols int) {
	p := new(big.Rat).Set(tab[pr][pc])
	inv := new(big.Rat).Inv(p)
	for j := 0; j <= cols; j++ {
		tab[pr][j].Mul(tab[pr][j], inv)
	}
	tmp := new(big.Rat)
	for i := range tab {
		if i == pr || tab[i][pc].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Set(tab[i][pc])
		for j := 0; j <= cols; j++ {
			tmp.Mul(factor, tab[pr][j])
			tab[i][j].Sub(tab[i][j], tmp)
		}
	}
	basis[pr] = pc
}
