package smt

import (
	"math/big"
	"math/rand"
	"testing"
)

// evalFormula evaluates a quantifier-free formula under a full assignment.
// It is an independent reference implementation used to cross-check the
// solver's algebraic machinery.
func evalFormula(t *testing.T, f Formula, m Model) bool {
	t.Helper()
	switch x := f.(type) {
	case Bool:
		return bool(x)
	case *Atom:
		v, err := x.T.Eval(m)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		return evalAtomConst(x.Op, v)
	case *Div:
		v, err := x.T.Eval(m)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		holds := v.IsInt() && new(big.Int).Mod(v.Num(), x.M).Sign() == 0
		return holds != x.Neg
	case *And:
		for _, g := range x.Fs {
			if !evalFormula(t, g, m) {
				return false
			}
		}
		return true
	case *Or:
		for _, g := range x.Fs {
			if evalFormula(t, g, m) {
				return true
			}
		}
		return false
	case *Not:
		return !evalFormula(t, x.F, m)
	default:
		t.Fatalf("eval: unexpected %T", f)
		return false
	}
}

// randTerm builds a random linear term over the given variables with small
// integer coefficients (occasionally rational).
func randTerm(r *rand.Rand, vars []Var, allowRational bool) *Term {
	tm := NewTerm(new(big.Rat).SetInt64(int64(r.Intn(21) - 10)))
	for _, v := range vars {
		if r.Intn(2) == 0 {
			continue
		}
		num := int64(r.Intn(9) - 4)
		if num == 0 {
			num = 1
		}
		den := int64(1)
		if allowRational && r.Intn(4) == 0 {
			den = int64(r.Intn(3) + 2)
		}
		tm.AddVar(v, big.NewRat(num, den))
	}
	return tm
}

// randQF builds a random quantifier-free formula (with Not nodes) over vars.
func randQF(r *rand.Rand, vars []Var, depth int, allowRational bool) Formula {
	if depth <= 0 || r.Intn(3) == 0 {
		tm := randTerm(r, vars, allowRational)
		if tm.IsConst() {
			tm.AddVar(vars[r.Intn(len(vars))], big.NewRat(1, 1))
		}
		ops := []AtomOp{OpLT, OpLE, OpEQ, OpNE}
		return &Atom{Op: ops[r.Intn(len(ops))], T: tm}
	}
	switch r.Intn(4) {
	case 0:
		return NewAnd(randQF(r, vars, depth-1, allowRational), randQF(r, vars, depth-1, allowRational))
	case 1:
		return NewOr(randQF(r, vars, depth-1, allowRational), randQF(r, vars, depth-1, allowRational))
	case 2:
		return NewNot(randQF(r, vars, depth-1, allowRational))
	default:
		return NewAnd(randQF(r, vars, depth-1, allowRational), NewOr(randQF(r, vars, depth-1, allowRational), randQF(r, vars, depth-1, allowRational)))
	}
}

func randModel(r *rand.Rand, vars []Var, span int64) Model {
	m := Model{}
	for _, v := range vars {
		m[v] = new(big.Rat).SetInt64(r.Int63n(2*span+1) - span)
	}
	return m
}

func TestNNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	vars := []Var{IntVar("x"), IntVar("y"), IntVar("z")}
	for i := 0; i < 400; i++ {
		f := randQF(r, vars, 3, false)
		g := NNF(f)
		for j := 0; j < 15; j++ {
			m := randModel(r, vars, 15)
			if evalFormula(t, f, m) != evalFormula(t, g, m) {
				t.Fatalf("NNF changed semantics:\n f=%s\n g=%s\n m=%v", f, g, m)
			}
		}
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	vars := []Var{IntVar("x"), IntVar("y"), IntVar("z")}
	for i := 0; i < 400; i++ {
		f := randQF(r, vars, 3, true)
		g := Simplify(f)
		for j := 0; j < 15; j++ {
			m := randModel(r, vars, 15)
			if evalFormula(t, f, m) != evalFormula(t, g, m) {
				t.Fatalf("Simplify changed semantics:\n f=%s\n g=%s\n m=%v", f, g, m)
			}
		}
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	vars := []Var{IntVar("x"), IntVar("y")}
	for i := 0; i < 200; i++ {
		f := Simplify(randQF(r, vars, 3, true))
		g := Simplify(f)
		if f.String() != g.String() {
			t.Fatalf("Simplify not idempotent:\n once=%s\n twice=%s", f, g)
		}
	}
}

func TestSimplifyComplementDetection(t *testing.T) {
	x := IntVar("x")
	lt := &Atom{Op: OpLT, T: VarTerm(x)}               // x < 0
	ge := &Atom{Op: OpLE, T: VarTerm(x).Clone().Neg()} // -x <= 0, i.e. x >= 0
	if got := Simplify(NewAnd(lt, ge)); got != Bool(false) {
		t.Fatalf("x<0 AND x>=0 should simplify to false, got %s", got)
	}
	if got := Simplify(NewOr(lt, ge)); got != Bool(true) {
		t.Fatalf("x<0 OR x>=0 should simplify to true, got %s", got)
	}
}

func TestSimplifyDivReduction(t *testing.T) {
	x := IntVar("x")
	// 3 | (7x + 10)  ==  3 | (x + 1)
	tm := NewTerm(big.NewRat(10, 1))
	tm.AddVar(x, big.NewRat(7, 1))
	d := Simplify(&Div{M: big.NewInt(3), T: tm})
	dd, ok := d.(*Div)
	if !ok {
		t.Fatalf("expected Div, got %s", d)
	}
	if dd.T.Coeff(x).RatString() != "1" || dd.T.Const().RatString() != "1" {
		t.Fatalf("modulus reduction failed: %s", dd)
	}
	// 1 | t is always true.
	if got := Simplify(&Div{M: big.NewInt(1), T: VarTerm(x)}); got != Bool(true) {
		t.Fatalf("1 | x should be true, got %s", got)
	}
	// Ground: 4 | 8 true, 4 | 9 false, negation flips.
	if got := Simplify(&Div{M: big.NewInt(4), T: ConstTerm(8)}); got != Bool(true) {
		t.Fatalf("4|8 = %s", got)
	}
	if got := Simplify(&Div{Neg: true, M: big.NewInt(4), T: ConstTerm(9)}); got != Bool(true) {
		t.Fatalf("!(4|9) = %s", got)
	}
}

func TestCanonAtomIntegerTightening(t *testing.T) {
	x := IntVar("x")
	// 2x < 5 over integers == x <= 2 == x - 2 <= 0.
	tm := VarTerm(x)
	tm.Scale(big.NewRat(2, 1))
	tm.AddInt64(-5)
	got := Simplify(&Atom{Op: OpLT, T: tm})
	a, ok := got.(*Atom)
	if !ok || a.Op != OpLE {
		t.Fatalf("expected LE atom, got %s", got)
	}
	if a.T.Coeff(x).RatString() != "1" || a.T.Const().RatString() != "-2" {
		t.Fatalf("tightening wrong: %s", got)
	}
	// Fractional equality over integers is impossible: 2x = 5.
	tm2 := NewTerm(big.NewRat(-5, 1)).AddVar(x, big.NewRat(2, 1))
	eq := Simplify(&Atom{Op: OpEQ, T: tm2})
	if eq != Bool(false) {
		t.Fatalf("2x=5 over Z should be false, got %s", eq)
	}
	ne := Simplify(&Atom{Op: OpNE, T: tm2.Clone()})
	if ne != Bool(true) {
		t.Fatalf("2x!=5 over Z should be true, got %s", ne)
	}
}

func TestFreeVars(t *testing.T) {
	x, y, z := IntVar("x"), IntVar("y"), IntVar("z")
	inner := LT(VarTerm(x), VarTerm(y))
	f := &Exists{V: x, F: NewAnd(inner, LE(VarTerm(z), ConstTerm(3)))}
	vars := FreeVars(f)
	if len(vars) != 2 || vars[0] != y || vars[1] != z {
		t.Fatalf("FreeVars = %v", vars)
	}
}

func TestSubstShadowing(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	f := &Exists{V: x, F: LT(VarTerm(x), VarTerm(y))}
	g := Subst(f, x, ConstTerm(5))
	if g.String() != f.String() {
		t.Fatalf("bound variable must not be substituted: %s", g)
	}
	h := Subst(f, y, ConstTerm(5))
	if occurs(y, h) {
		t.Fatalf("free variable should be substituted: %s", h)
	}
}
