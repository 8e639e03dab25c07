package smt

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Formula is a first-order formula over linear arithmetic atoms.
type Formula interface {
	fmt.Stringer
	formula()
}

// Bool is the constant TRUE or FALSE formula.
type Bool bool

func (Bool) formula() {}

func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// AtomOp relates a term to zero.
type AtomOp int

const (
	// OpLT asserts t < 0.
	OpLT AtomOp = iota
	// OpLE asserts t <= 0.
	OpLE
	// OpEQ asserts t = 0.
	OpEQ
	// OpNE asserts t != 0.
	OpNE
)

func (op AtomOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	default:
		return fmt.Sprintf("AtomOp(%d)", int(op))
	}
}

// Atom asserts T Op 0.
//
// An interned atom (see internLeaf) is frozen: its rendering and the
// canonical key of its complement are cached, and its term is frozen too.
type Atom struct {
	Op AtomOp
	T  *Term

	// Interning metadata, set once under the intern shard lock before the
	// atom is published; read-only afterwards. str caches the display
	// rendering, key the sort-qualified interner key, negKey the canonical
	// display key of the complement. Only the simplifier's canonicalizers
	// publish leaves, so a frozen leaf is a Simplify fixed point and
	// Simplify returns it unchanged without re-deriving the canonical form.
	frozen bool
	str    string
	key    string
	negKey string
}

func (*Atom) formula() {}

// String renders the atom; used by the eliminators as a dedup key.
// Interned atoms return the cached rendering.
func (a *Atom) String() string {
	if a.frozen {
		return a.str
	}
	return string(a.appendString(nil))
}

func (a *Atom) appendString(b []byte) []byte {
	b = a.T.appendString(b)
	b = append(b, ' ')
	b = append(b, a.Op.String()...)
	return append(b, " 0"...)
}

// Div asserts M | T (M divides the value of T), or its negation when Neg is
// set. T must be integer-valued; Div atoms are only produced internally by
// Cooper's algorithm and by integer-aware simplification.
type Div struct {
	Neg bool
	M   *big.Int
	T   *Term

	// Interning metadata; see Atom.
	frozen bool
	str    string
	key    string
}

func (*Div) formula() {}

// String renders the divisibility atom. Interned divisibility atoms return
// the cached rendering.
func (d *Div) String() string {
	if d.frozen {
		return d.str
	}
	return string(d.appendString(nil))
}

func (d *Div) appendString(b []byte) []byte {
	if d.Neg {
		b = append(b, '!')
	}
	b = append(b, '(')
	b = append(b, d.M.String()...)
	b = append(b, " | "...)
	b = d.T.appendString(b)
	return append(b, ')')
}

// And is an n-ary conjunction.
type And struct {
	Fs []Formula
}

func (*And) formula() {}

func (a *And) String() string {
	return joinFormulas(a.Fs, " & ", "true")
}

// Or is an n-ary disjunction.
type Or struct {
	Fs []Formula
}

func (*Or) formula() {}

func (o *Or) String() string {
	return joinFormulas(o.Fs, " | ", "false")
}

// Not negates a formula.
type Not struct {
	F Formula
}

func (*Not) formula() {}

// String renders the negation.
func (n *Not) String() string {
	return "!(" + n.F.String() + ")"
}

// Exists existentially quantifies a variable.
type Exists struct {
	V Var
	F Formula
}

func (*Exists) formula() {}

// String renders the quantifier.
func (e *Exists) String() string {
	return fmt.Sprintf("exists %s:%s. (%s)", e.V.Name, e.V.Sort, e.F)
}

// ForAll universally quantifies a variable.
type ForAll struct {
	V Var
	F Formula
}

func (*ForAll) formula() {}

// String renders the quantifier.
func (f *ForAll) String() string {
	return fmt.Sprintf("forall %s:%s. (%s)", f.V.Name, f.V.Sort, f.F)
}

// joinFormulas renders an n-ary connective.
func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		switch f.(type) {
		case *And, *Or:
			parts[i] = "(" + f.String() + ")"
		default:
			parts[i] = f.String()
		}
	}
	return strings.Join(parts, sep)
}

// Convenience constructors. These perform constant folding so that trivial
// formulas collapse immediately.

// NewAnd returns the conjunction of fs, flattening and folding constants.
func NewAnd(fs ...Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		switch x := f.(type) {
		case Bool:
			if !x {
				return Bool(false)
			}
		case *And:
			flat = append(flat, x.Fs...)
		default:
			flat = append(flat, f)
		}
	}
	switch len(flat) {
	case 0:
		return Bool(true)
	case 1:
		return flat[0]
	}
	return &And{Fs: flat}
}

// NewOr returns the disjunction of fs, flattening and folding constants.
func NewOr(fs ...Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		switch x := f.(type) {
		case Bool:
			if x {
				return Bool(true)
			}
		case *Or:
			flat = append(flat, x.Fs...)
		default:
			flat = append(flat, f)
		}
	}
	switch len(flat) {
	case 0:
		return Bool(false)
	case 1:
		return flat[0]
	}
	return &Or{Fs: flat}
}

// NewNot returns the negation of f, folding constants and double negation.
func NewNot(f Formula) Formula {
	switch x := f.(type) {
	case Bool:
		return Bool(!x)
	case *Not:
		return x.F
	default:
		return &Not{F: f}
	}
}

// LT returns the atom a < b.
func LT(a, b *Term) Formula { return newAtom(OpLT, diff(a, b)) }

// LE returns the atom a <= b.
func LE(a, b *Term) Formula { return newAtom(OpLE, diff(a, b)) }

// GT returns the atom a > b.
func GT(a, b *Term) Formula { return newAtom(OpLT, diff(b, a)) }

// GE returns the atom a >= b.
func GE(a, b *Term) Formula { return newAtom(OpLE, diff(b, a)) }

// EQ returns the atom a = b.
func EQ(a, b *Term) Formula { return newAtom(OpEQ, diff(a, b)) }

// NE returns the atom a != b.
func NE(a, b *Term) Formula { return newAtom(OpNE, diff(a, b)) }

func diff(a, b *Term) *Term { return a.Clone().AddScaled(b, big.NewRat(-1, 1)) }

// newAtom folds ground atoms to Bool.
func newAtom(op AtomOp, t *Term) Formula {
	if t.IsConst() {
		// Only the sign of the constant matters; skip the big.Rat copy.
		return Bool(evalAtomSign(op, t.konst.sign()))
	}
	return &Atom{Op: op, T: t}
}

func evalAtomConst(op AtomOp, c *big.Rat) bool { return evalAtomSign(op, c.Sign()) }

// evalAtomSign decides op against the sign of the (constant) term.
func evalAtomSign(op AtomOp, s int) bool {
	switch op {
	case OpLT:
		return s < 0
	case OpLE:
		return s <= 0
	case OpEQ:
		return s == 0
	case OpNE:
		return s != 0
	default:
		panic("smt: bad atom op")
	}
}

// FreeVars returns the sorted free variables of f.
func FreeVars(f Formula) []Var {
	seen := map[Var]bool{}
	var bound []Var
	var walk func(Formula)
	isBound := func(v Var) bool {
		for _, b := range bound {
			if b == v {
				return true
			}
		}
		return false
	}
	collect := func(t *Term) {
		for _, v := range t.Vars(nil) {
			if !isBound(v) {
				seen[v] = true
			}
		}
	}
	walk = func(f Formula) {
		switch x := f.(type) {
		case Bool:
		case *Atom:
			collect(x.T)
		case *Div:
			collect(x.T)
		case *And:
			for _, g := range x.Fs {
				walk(g)
			}
		case *Or:
			for _, g := range x.Fs {
				walk(g)
			}
		case *Not:
			walk(x.F)
		case *Exists:
			bound = append(bound, x.V)
			walk(x.F)
			bound = bound[:len(bound)-1]
		case *ForAll:
			bound = append(bound, x.V)
			walk(x.F)
			bound = bound[:len(bound)-1]
		default:
			panic(fmt.Sprintf("smt: unknown formula %T", f))
		}
	}
	walk(f)
	vars := make([]Var, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	return vars
}

// Subst returns f with every free occurrence of v replaced by the term
// repl. f must be quantifier-free in v's scope for the substitution to be
// capture-free; quantifiers binding v shadow the substitution.
func Subst(f Formula, v Var, repl *Term) Formula {
	switch x := f.(type) {
	case Bool:
		return x
	case *Atom:
		if !x.T.Has(v) {
			return x
		}
		return newAtom(x.Op, substTermCopy(x.T, v, repl))
	case *Div:
		if !x.T.Has(v) {
			return x
		}
		return simplifyDiv(&Div{Neg: x.Neg, M: x.M, T: substTermCopy(x.T, v, repl)})
	case *And:
		fs := make([]Formula, 0, len(x.Fs))
		for _, g := range x.Fs {
			fs = append(fs, Subst(g, v, repl))
		}
		return NewAnd(fs...)
	case *Or:
		fs := make([]Formula, 0, len(x.Fs))
		for _, g := range x.Fs {
			fs = append(fs, Subst(g, v, repl))
		}
		return NewOr(fs...)
	case *Not:
		return NewNot(Subst(x.F, v, repl))
	case *Exists:
		if x.V == v {
			return x
		}
		return &Exists{V: x.V, F: Subst(x.F, v, repl)}
	case *ForAll:
		if x.V == v {
			return x
		}
		return &ForAll{V: x.V, F: Subst(x.F, v, repl)}
	default:
		panic(fmt.Sprintf("smt: unknown formula %T", f))
	}
}

// simplifyDiv folds a divisibility atom whose term is constant.
func simplifyDiv(d *Div) Formula {
	if !d.T.IsConst() {
		return d
	}
	holds := false
	k := &d.T.konst
	if k.r == nil {
		if k.denom() == 1 {
			if d.M.IsInt64() {
				holds = k.num%d.M.Int64() == 0
			} else {
				// |M| exceeds int64 while the numerator fits it, so the
				// only multiple of M in range is zero.
				holds = k.num == 0
			}
		}
	} else if k.r.IsInt() {
		m := new(big.Int).Mod(k.r.Num(), d.M)
		holds = m.Sign() == 0
	}
	return Bool(holds != d.Neg)
}

// CountNodes returns the number of nodes in the formula tree, used for
// budget checks during quantifier elimination.
func CountNodes(f Formula) int {
	switch x := f.(type) {
	case Bool, *Atom, *Div:
		return 1
	case *And:
		n := 1
		for _, g := range x.Fs {
			n += CountNodes(g)
		}
		return n
	case *Or:
		n := 1
		for _, g := range x.Fs {
			n += CountNodes(g)
		}
		return n
	case *Not:
		return 1 + CountNodes(x.F)
	case *Exists:
		return 1 + CountNodes(x.F)
	case *ForAll:
		return 1 + CountNodes(x.F)
	default:
		panic(fmt.Sprintf("smt: unknown formula %T", f))
	}
}
