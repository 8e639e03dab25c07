package smt

import (
	"math/big"
	"math/rand"
	"testing"
)

// genTerm builds a fresh random term over a small variable pool. Calling
// it twice with identically seeded generators yields structurally equal
// but pointer-distinct values.
func genTerm(rng *rand.Rand, vars []Var) *Term {
	t := NewTerm(big.NewRat(int64(rng.Intn(9)-4), int64(rng.Intn(3)+1)))
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			t.AddVar(v, big.NewRat(int64(rng.Intn(7)-3), 1))
		}
	}
	return t
}

// genLeaf builds a fresh random atom or divisibility leaf.
func genLeaf(rng *rand.Rand, vars []Var) Formula {
	if rng.Intn(4) == 0 {
		return &Div{Neg: rng.Intn(2) == 0, M: big.NewInt(int64(rng.Intn(5) + 2)), T: genTerm(rng, vars)}
	}
	ops := []AtomOp{OpLT, OpLE, OpEQ, OpNE}
	return &Atom{Op: ops[rng.Intn(len(ops))], T: genTerm(rng, vars)}
}

// leafEqual is structural equality over Simplify's leaf results. Term.Equal
// compares variables together with their sorts.
func leafEqual(a, b Formula) bool {
	switch x := a.(type) {
	case *Atom:
		y, ok := b.(*Atom)
		return ok && x.Op == y.Op && x.T.Equal(y.T)
	case *Div:
		y, ok := b.(*Div)
		return ok && x.Neg == y.Neg && x.M.Cmp(y.M) == 0 && x.T.Equal(y.T)
	default:
		return a == b
	}
}

// TestInternCanonical is the interner's core property where the solver
// relies on it: leaves that come out of Simplify are one pointer exactly
// when they are structurally equal, sorts included. The pool holds an
// integer x and a real x, which render identically. A shard reset rotates
// canonical pointers, so a build that saw one is redone; each build inserts
// far fewer entries than a shard holds, so every shard resets at most once
// and internShards+1 builds always leave one reset-free.
func TestInternCanonical(t *testing.T) {
	vars := []Var{IntVar("x"), IntVar("y"), RealVar("x"), RealVar("r")}
	const n = 160
	leaves := make([]Formula, n)
	for attempt := 0; ; attempt++ {
		if attempt > internShards {
			t.Fatal("interner shard resets in every build of the leaf pool")
		}
		resets := mInternResets.Value()
		for i := range leaves {
			rng := rand.New(rand.NewSource(int64(i % 50))) // forced duplicates across the pool
			leaves[i] = Simplify(genLeaf(rng, vars))
		}
		if mInternResets.Value() == resets {
			break
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if eq, same := leafEqual(leaves[i], leaves[j]), leaves[i] == leaves[j]; eq != same {
				t.Fatalf("equal=%v pointerEqual=%v for\n  %s\n  %s", eq, same, leaves[i], leaves[j])
			}
		}
	}
}

// TestInternSortsDistinguished pins the regression where the intern key
// dropped variable sorts: an integer x and a real x render identically but
// must never share a canonical node.
func TestInternSortsDistinguished(t *testing.T) {
	ai := Simplify(LE(VarTerm(IntVar("x")), ConstTerm(0)))
	ar := Simplify(LE(VarTerm(RealVar("x")), ConstTerm(0)))
	if ai.String() != ar.String() || ai == ar {
		t.Fatalf("int atom %q and real atom %q: one node = %v", ai, ar, ai == ar)
	}
	ti := InternTerm(VarTerm(IntVar("y")))
	tr := InternTerm(VarTerm(RealVar("y")))
	if ti == tr {
		t.Fatal("int and real terms interned to one node")
	}
}

// TestCoefFastPathAllocs guards the int64 fast path: arithmetic on
// small-magnitude coefficients must not allocate.
func TestCoefFastPathAllocs(t *testing.T) {
	var a, b coef
	if avg := testing.AllocsPerRun(200, func() {
		a.setFrac64(7, 3)
		b.setFrac64(-5, 6)
		a.add(&b)
		a.mul(&b)
		a.addInt64(11)
		a.neg()
		if a.isZero() {
			t.Fatal("unexpected zero")
		}
	}); avg != 0 {
		t.Fatalf("coef fast path allocates: %.1f allocs/op", avg)
	}
}

// TestTermAddInt64Allocs guards the in-place constant bump used by integer
// tightening in the canonicalizer.
func TestTermAddInt64Allocs(t *testing.T) {
	tm := ConstTerm(3)
	if avg := testing.AllocsPerRun(200, func() {
		tm.AddInt64(1)
		tm.AddInt64(-1)
	}); avg != 0 {
		t.Fatalf("Term.AddInt64 fast path allocates: %.1f allocs/op", avg)
	}
}
