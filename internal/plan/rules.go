package plan

import (
	"math/big"

	"sia/internal/predicate"
)

// PushDownFilters applies the classic predicate-pushdown rules to a
// fixpoint:
//
//   - Filter over Filter merges into one conjunction;
//   - a conjunct above a Join that references only one side's columns moves
//     below the join (the rule Q2 unlocks in the paper's Fig. 1);
//   - a conjunct above an Aggregate that references only GROUP BY columns
//     moves below the aggregation [Levy et al., VLDB'94].
func PushDownFilters(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		switch child := x.Input.(type) {
		case *Filter:
			return PushDownFilters(&Filter{
				Pred:  predicate.NewAnd(child.Pred, x.Pred),
				Input: child.Input,
			})
		case *Join:
			var leftConj, rightConj, keep []predicate.Predicate
			leftCols := schemaCols(child.Left.Schema())
			rightCols := schemaCols(child.Right.Schema())
			for _, conj := range predicate.Conjuncts(x.Pred) {
				switch {
				case predicate.UsesOnly(conj, leftCols):
					leftConj = append(leftConj, conj)
				case predicate.UsesOnly(conj, rightCols):
					rightConj = append(rightConj, conj)
				default:
					keep = append(keep, conj)
				}
			}
			if len(leftConj) == 0 && len(rightConj) == 0 {
				return &Filter{Pred: x.Pred, Input: pushChildren(child)}
			}
			l := child.Left
			if len(leftConj) > 0 {
				l = &Filter{Pred: predicate.NewAnd(leftConj...), Input: l}
			}
			r := child.Right
			if len(rightConj) > 0 {
				r = &Filter{Pred: predicate.NewAnd(rightConj...), Input: r}
			}
			nj := Node(&Join{Left: PushDownFilters(l), Right: PushDownFilters(r), LeftKey: child.LeftKey, RightKey: child.RightKey})
			if len(keep) > 0 {
				return &Filter{Pred: predicate.NewAnd(keep...), Input: nj}
			}
			return nj
		case *Aggregate:
			var below, above []predicate.Predicate
			for _, conj := range predicate.Conjuncts(x.Pred) {
				if predicate.UsesOnly(conj, child.GroupBy) {
					below = append(below, conj)
				} else {
					above = append(above, conj)
				}
			}
			if len(below) == 0 {
				return &Filter{Pred: x.Pred, Input: pushChildren(child)}
			}
			in := PushDownFilters(&Filter{Pred: predicate.NewAnd(below...), Input: child.Input})
			agg := Node(&Aggregate{GroupBy: child.GroupBy, Aggs: child.Aggs, Input: in})
			if len(above) > 0 {
				return &Filter{Pred: predicate.NewAnd(above...), Input: agg}
			}
			return agg
		default:
			return &Filter{Pred: x.Pred, Input: pushChildren(x.Input)}
		}
	default:
		return pushChildren(n)
	}
}

func pushChildren(n Node) Node {
	ch := n.Children()
	if len(ch) == 0 {
		return n
	}
	out := make([]Node, len(ch))
	for i, c := range ch {
		out[i] = PushDownFilters(c)
	}
	return n.withChildren(out)
}

func schemaCols(s *predicate.Schema) []string {
	var out []string
	for _, c := range s.Columns() {
		out = append(out, c.Name)
	}
	return out
}

// ConstantPropagation applies the syntax-driven rule of [Consens et al.]:
// a conjunct col = const substitutes the constant for the column in every
// other conjunct. It returns the (possibly) rewritten predicate.
func ConstantPropagation(p predicate.Predicate) predicate.Predicate {
	conjs := predicate.Conjuncts(p)
	consts := map[string]*predicate.Const{}
	for _, c := range conjs {
		cmp, ok := c.(*predicate.Compare)
		if !ok || cmp.Op != predicate.CmpEQ {
			continue
		}
		if col, ok := cmp.Left.(*predicate.ColumnRef); ok {
			if k, ok := cmp.Right.(*predicate.Const); ok {
				consts[col.Name] = k
			}
		}
		if col, ok := cmp.Right.(*predicate.ColumnRef); ok {
			if k, ok := cmp.Left.(*predicate.Const); ok {
				consts[col.Name] = k
			}
		}
	}
	if len(consts) == 0 {
		return p
	}
	out := make([]predicate.Predicate, len(conjs))
	for i, c := range conjs {
		// Keep the defining equality itself; substitute elsewhere.
		if cmp, ok := c.(*predicate.Compare); ok && cmp.Op == predicate.CmpEQ {
			if col, ok := cmp.Left.(*predicate.ColumnRef); ok {
				if _, isConst := cmp.Right.(*predicate.Const); isConst && consts[col.Name] != nil {
					out[i] = c
					continue
				}
			}
			if col, ok := cmp.Right.(*predicate.ColumnRef); ok {
				if _, isConst := cmp.Left.(*predicate.Const); isConst && consts[col.Name] != nil {
					out[i] = c
					continue
				}
			}
		}
		out[i] = substConsts(c, consts)
	}
	return predicate.NewAnd(out...)
}

func substConsts(p predicate.Predicate, consts map[string]*predicate.Const) predicate.Predicate {
	var substExpr func(e predicate.Expr) predicate.Expr
	substExpr = func(e predicate.Expr) predicate.Expr {
		switch x := e.(type) {
		case *predicate.ColumnRef:
			if k, ok := consts[x.Name]; ok {
				return k
			}
			return x
		case *predicate.BinaryExpr:
			return &predicate.BinaryExpr{Op: x.Op, Left: substExpr(x.Left), Right: substExpr(x.Right)}
		default:
			return e
		}
	}
	switch x := p.(type) {
	case *predicate.Compare:
		return &predicate.Compare{Op: x.Op, Left: substExpr(x.Left), Right: substExpr(x.Right)}
	case *predicate.And:
		ps := make([]predicate.Predicate, len(x.Preds))
		for i, q := range x.Preds {
			ps[i] = substConsts(q, consts)
		}
		return &predicate.And{Preds: ps}
	case *predicate.Or:
		ps := make([]predicate.Predicate, len(x.Preds))
		for i, q := range x.Preds {
			ps[i] = substConsts(q, consts)
		}
		return &predicate.Or{Preds: ps}
	case *predicate.Not:
		return &predicate.Not{P: substConsts(x.P, consts)}
	default:
		return p
	}
}

// TransitiveClosureReduce is the paper's syntax-driven baseline [Ioannidis
// & Ramakrishnan]: it collects difference constraints x - y ≤ c (and
// single-column bounds, via a virtual zero node) from the top-level
// conjuncts, closes them transitively with Floyd–Warshall, and returns the
// conjunction of derived bounds that mention only the target columns.
// Returns nil when nothing usable is derived.
//
// Conjuncts outside the difference-constraint fragment — anything with
// more than two columns, a coefficient other than ±1, disjunction, or
// negation — are ignored, which is exactly the brittleness the paper's §2
// attributes to syntax-driven rules.
func TransitiveClosureReduce(p predicate.Predicate, cols []string) predicate.Predicate {
	const zero = "$zero"
	type bound struct {
		c      *big.Rat
		strict bool
		ok     bool
	}
	// dist[a][b]: a - b <= c (or < c when strict).
	dist := map[string]map[string]bound{}
	nodes := map[string]bool{zero: true}
	update := func(a, b string, c *big.Rat, strict bool) {
		nodes[a], nodes[b] = true, true
		if dist[a] == nil {
			dist[a] = map[string]bound{}
		}
		cur := dist[a][b]
		if !cur.ok || c.Cmp(cur.c) < 0 || (c.Cmp(cur.c) == 0 && strict && !cur.strict) {
			dist[a][b] = bound{c: c, strict: strict, ok: true}
		}
	}

	for _, conj := range predicate.Conjuncts(p) {
		cmp, ok := conj.(*predicate.Compare)
		if !ok {
			continue
		}
		lin, err := predicate.Linearize(predicate.Sub(cmp.Left, cmp.Right))
		if err != nil {
			continue
		}
		// Interpret lin ⋈ 0 as difference constraints.
		switch cmp.Op {
		case predicate.CmpLT, predicate.CmpLE:
			addDifference(lin, cmp.Op == predicate.CmpLT, update, zero)
		case predicate.CmpEQ:
			addDifference(lin, false, update, zero)
			neg := lin.Clone()
			neg.Scale(big.NewRat(-1, 1))
			addDifference(neg, false, update, zero)
		case predicate.CmpGT, predicate.CmpGE:
			neg := lin.Clone()
			neg.Scale(big.NewRat(-1, 1))
			addDifference(neg, cmp.Op == predicate.CmpGT, update, zero)
		}
	}

	// Floyd–Warshall closure.
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	get := func(a, b string) (bound, bool) {
		if dist[a] == nil {
			return bound{}, false
		}
		d, ok := dist[a][b]
		return d, ok && d.ok
	}
	for _, k := range names {
		for _, i := range names {
			dik, ok1 := get(i, k)
			if !ok1 {
				continue
			}
			for _, j := range names {
				dkj, ok2 := get(k, j)
				if !ok2 || i == j {
					continue
				}
				sum := new(big.Rat).Add(dik.c, dkj.c)
				update(i, j, sum, dik.strict || dkj.strict)
			}
		}
	}

	allowed := map[string]bool{}
	for _, c := range cols {
		allowed[c] = true
	}
	var derived []predicate.Predicate
	emit := func(a, b string, d bound) {
		if !d.c.IsInt() {
			return
		}
		op := predicate.CmpLE
		if d.strict {
			op = predicate.CmpLT
		}
		c := predicate.IntConst(d.c.Num().Int64())
		// a - b <= c; the zero node folds away for single-column bounds.
		var lhs predicate.Expr
		switch {
		case a == zero:
			// -b <= c, printed as b >= -c.
			derived = append(derived, predicate.Cmp(op.Flip(), predicate.Col(b, predicate.TypeInteger),
				predicate.IntConst(-d.c.Num().Int64())))
			return
		case b == zero:
			lhs = predicate.Col(a, predicate.TypeInteger)
		default:
			lhs = predicate.Sub(predicate.Col(a, predicate.TypeInteger), predicate.Col(b, predicate.TypeInteger))
		}
		derived = append(derived, predicate.Cmp(op, lhs, c))
	}
	for a, row := range dist {
		if a != zero && !allowed[a] {
			continue
		}
		for b, d := range row {
			// Only single- or two-column constraints within the target set.
			if !d.ok || (b != zero && !allowed[b]) || (a == zero && b == zero) {
				continue
			}
			emit(a, b, d)
		}
	}
	if len(derived) == 0 {
		return nil
	}
	return predicate.NewAnd(derived...)
}

// addDifference records lin ⋈ 0 (with ⋈ being < when strict, else <=) as a
// difference constraint if it has the right shape: at most two columns with
// coefficients +1 and -1 (or a single column with coefficient ±1).
func addDifference(lin *predicate.Linear, strict bool, update func(a, b string, c *big.Rat, strict bool), zero string) bool {
	vars := lin.Columns()
	c := new(big.Rat).Neg(lin.Const)
	one, negOne := big.NewRat(1, 1), big.NewRat(-1, 1)
	switch len(vars) {
	case 1:
		a := vars[0]
		coeff := lin.Coeffs[a]
		if coeff.Cmp(one) == 0 {
			update(a, zero, c, strict) // a <= c
			return true
		}
		if coeff.Cmp(negOne) == 0 {
			update(zero, a, c, strict) // -a <= c, i.e. 0 - a <= c
			return true
		}
	case 2:
		a, b := vars[0], vars[1]
		ca, cb := lin.Coeffs[a], lin.Coeffs[b]
		if ca.Cmp(one) == 0 && cb.Cmp(negOne) == 0 {
			update(a, b, c, strict) // a - b <= c
			return true
		}
		if ca.Cmp(negOne) == 0 && cb.Cmp(one) == 0 {
			update(b, a, c, strict) // b - a <= c
			return true
		}
	}
	return false
}
