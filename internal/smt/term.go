// Package smt implements the satisfiability-modulo-theories substrate Sia
// depends on. The paper uses Z3; Go has no solid Z3 bindings, so this
// package is a from-scratch decision procedure for the exact fragment Sia's
// queries live in:
//
//   - linear integer arithmetic with quantifiers (Presburger arithmetic),
//     decided by Cooper's quantifier-elimination algorithm, and
//   - linear real arithmetic with quantifiers, decided by Loos–Weispfenning
//     virtual substitution.
//
// Both fragments admit the alternating ∃∀ queries Sia issues when searching
// for unsatisfaction tuples (§4.2: "This formula contains an alternating
// quantifier that supports linear arithmetic ... so it is a decidable
// problem"). On top of quantifier elimination the package provides
// satisfiability checking and model extraction, which together supply every
// solver operation in the paper: SAT checks for Verify, and model
// enumeration (with blocking constraints) for GenerateSamples, CounterT and
// CounterF.
//
// All arithmetic is exact: coefficients ride an int64/int64 fast path and
// promote to math/big rationals on overflow (see coef), so results are never
// subject to floating-point error.
package smt

import (
	"fmt"
	"math/big"
)

// Sort is the sort (type) of a variable.
type Sort int

const (
	// SortInt is the sort of integer-valued variables.
	SortInt Sort = iota
	// SortReal is the sort of real-valued variables.
	SortReal
)

func (s Sort) String() string {
	if s == SortInt {
		return "Int"
	}
	return "Real"
}

// Var is a sorted variable. Vars are value types and compare with ==.
type Var struct {
	Name string
	Sort Sort
}

func (v Var) String() string { return v.Name }

// IntVar returns an integer-sorted variable.
func IntVar(name string) Var { return Var{Name: name, Sort: SortInt} }

// RealVar returns a real-sorted variable.
func RealVar(name string) Var { return Var{Name: name, Sort: SortReal} }

// varLess is the canonical cell order: by name, then by sort. Every Term
// keeps its cells in this order, which makes iteration deterministic and
// lets Equal and the renderers walk cells lockstep without sorting.
func varLess(a, b Var) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Sort < b.Sort
}

// cell is one variable's coefficient inside a term. Cells hold their coef
// by value: cloning a term is one slice copy instead of a map plus one
// heap cell per variable, which is what keeps Clone off the GC's back in
// the eliminator hot loops.
type cell struct {
	v Var
	c coef
}

// Term is a linear term: a rational constant plus a sum of rational
// coefficients times variables. Cells are kept sorted by varLess and a
// zero coefficient is never stored.
//
// Coefficients are held by value as coef (int64 fast path, big.Rat
// overflow fallback), so typical integer workloads never touch the heap
// for arithmetic. The public accessors still speak *big.Rat and always
// return fresh copies — a returned rational never aliases term internals.
//
// An interned term (see InternTerm) is frozen: the in-place mutators panic
// on it, enforcing the clone-then-mutate discipline that makes sharing
// canonical pointers safe.
type Term struct {
	cells []cell
	konst coef

	// Interning metadata, set once under the intern shard lock before the
	// term is published; read-only afterwards. str caches the display
	// rendering; key caches the sort-qualified interner key (String() drops
	// variable sorts, so display strings alone would fold an integer term
	// onto an identically named real one).
	frozen bool
	str    string
	key    string
}

// mutable panics when t has been interned; interned terms are shared and
// must be cloned before mutation.
func (t *Term) mutable() {
	if t.frozen {
		panic("smt: in-place mutation of an interned term")
	}
}

// NewTerm returns the constant term c (c may be nil for zero). c is copied,
// never retained: later mutations of c cannot reach the term.
func NewTerm(c *big.Rat) *Term {
	t := &Term{}
	if c != nil {
		t.konst.setRat(c)
	}
	return t
}

// ConstTerm returns the integer constant term n.
func ConstTerm(n int64) *Term {
	t := &Term{}
	t.konst.setInt64(n)
	return t
}

// VarTerm returns the term 1*v.
func VarTerm(v Var) *Term {
	t := &Term{cells: make([]cell, 1)}
	t.cells[0].v = v
	t.cells[0].c.setInt64(1)
	return t
}

// Clone returns a deep copy of the term. The clone-then-mutate discipline
// is what keeps the in-place arithmetic below memo-safe; hot paths are
// expected to hoist clones out of inner loops (see eliminateInt).
func (t *Term) Clone() *Term {
	c := &Term{}
	c.konst.set(&t.konst)
	if len(t.cells) > 0 {
		c.cells = make([]cell, len(t.cells))
		copy(c.cells, t.cells)
		for i := range c.cells {
			if r := c.cells[i].c.r; r != nil {
				c.cells[i].c.r = new(big.Rat).Set(r)
			}
		}
	}
	return c
}

// find returns the index of v's cell. When v is absent, it returns the
// index at which v's cell would be inserted and false. Terms are small (a
// handful of variables), so a linear scan beats binary search in practice.
func (t *Term) find(v Var) (int, bool) {
	for i := range t.cells {
		cv := t.cells[i].v
		if cv == v {
			return i, true
		}
		if varLess(v, cv) {
			return i, false
		}
	}
	return len(t.cells), false
}

// insertAt opens a cell for v at index i (as computed by find) and returns
// its coefficient, which starts at zero. Any previously taken cell pointers
// are invalidated by the slice growth.
func (t *Term) insertAt(i int, v Var) *coef {
	t.cells = append(t.cells, cell{})
	copy(t.cells[i+1:], t.cells[i:])
	t.cells[i] = cell{v: v}
	return &t.cells[i].c
}

// removeAt deletes the cell at index i, preserving order.
func (t *Term) removeAt(i int) {
	t.cells = append(t.cells[:i], t.cells[i+1:]...)
}

// at returns v's coefficient cell, or nil if absent. Internal fast-path
// accessor; the cell aliases term internals and must not be retained
// across mutations (inserts may reallocate the cell array).
func (t *Term) at(v Var) *coef {
	if i, ok := t.find(v); ok {
		return &t.cells[i].c
	}
	return nil
}

// remove deletes v's cell in place if present.
func (t *Term) remove(v Var) {
	t.mutable()
	if i, ok := t.find(v); ok {
		t.removeAt(i)
	}
}

// setCoefInt64 sets v's coefficient to exactly n (n must be non-zero),
// inserting the cell if absent.
func (t *Term) setCoefInt64(v Var, n int64) {
	t.mutable()
	i, ok := t.find(v)
	if !ok {
		t.insertAt(i, v)
	}
	t.cells[i].c.setInt64(n)
}

// addCoef adds c*v to the term in place. c must not alias one of t's own
// cells (insertion may move them).
func (t *Term) addCoef(v Var, c *coef) {
	t.mutable()
	i, ok := t.find(v)
	var cur *coef
	if !ok {
		cur = t.insertAt(i, v)
	} else {
		cur = &t.cells[i].c
	}
	cur.add(c)
	if cur.isZero() {
		t.removeAt(i)
	}
}

// AddVar adds coeff*v to the term in place and returns the term. coeff is
// read, never retained.
func (t *Term) AddVar(v Var, coeff *big.Rat) *Term {
	var c coef
	c.setRat(coeff)
	t.addCoef(v, &c)
	return t
}

// AddInt64 adds the integer n to the term's constant in place.
func (t *Term) AddInt64(n int64) *Term {
	t.mutable()
	t.konst.addInt64(n)
	return t
}

// Add adds o to the term in place and returns the term. o must not be t
// itself.
func (t *Term) Add(o *Term) *Term {
	for i := range o.cells {
		t.addCoef(o.cells[i].v, &o.cells[i].c)
	}
	t.mutable()
	t.konst.add(&o.konst)
	return t
}

// AddScaled adds k*o to the term in place and returns the term. k is read,
// never retained.
func (t *Term) AddScaled(o *Term, k *big.Rat) *Term {
	var kc coef
	kc.setRat(k)
	return t.addScaledCoef(o, &kc)
}

// addScaledCoef adds k*o to the term in place; the internal form of
// AddScaled for callers that already hold a coef. o must not be t itself.
func (t *Term) addScaledCoef(o *Term, k *coef) *Term {
	t.mutable()
	var tmp coef
	for i := range o.cells {
		tmp.set(&o.cells[i].c)
		tmp.mul(k)
		t.addCoef(o.cells[i].v, &tmp)
	}
	tmp.set(&o.konst)
	tmp.mul(k)
	t.konst.add(&tmp)
	return t
}

// Scale multiplies the term by k in place and returns the term. k is read,
// never retained.
func (t *Term) Scale(k *big.Rat) *Term {
	var kc coef
	kc.setRat(k)
	return t.scaleCoef(&kc)
}

// scaleCoef multiplies the term by k in place; the internal form of Scale.
func (t *Term) scaleCoef(k *coef) *Term {
	t.mutable()
	if k.isZero() {
		t.cells = nil
		t.konst.setInt64(0)
		return t
	}
	for i := range t.cells {
		t.cells[i].c.mul(k)
	}
	t.konst.mul(k)
	return t
}

// Neg negates the term in place and returns the term.
func (t *Term) Neg() *Term {
	t.mutable()
	for i := range t.cells {
		t.cells[i].c.neg()
	}
	t.konst.neg()
	return t
}

// Coeff returns the coefficient of v (zero if absent) as a fresh rational
// the caller owns; it never aliases term internals.
func (t *Term) Coeff(v Var) *big.Rat {
	if c := t.at(v); c != nil {
		return c.rat()
	}
	return new(big.Rat)
}

// Const returns the constant part as a fresh rational the caller owns; it
// never aliases term internals.
func (t *Term) Const() *big.Rat { return t.konst.rat() }

// IsConst reports whether the term has no variables.
func (t *Term) IsConst() bool { return len(t.cells) == 0 }

// Has reports whether v occurs in the term with non-zero coefficient.
func (t *Term) Has(v Var) bool {
	_, ok := t.find(v)
	return ok
}

// Vars appends the term's variables to dst in canonical (sorted) order.
func (t *Term) Vars(dst []Var) []Var {
	for i := range t.cells {
		dst = append(dst, t.cells[i].v)
	}
	return dst
}

// Subst replaces v by the term repl: t becomes t[v := repl]. Returns t.
// repl must not be t itself.
func (t *Term) Subst(v Var, repl *Term) *Term {
	t.mutable()
	i, ok := t.find(v)
	if !ok {
		return t
	}
	var k coef
	k.set(&t.cells[i].c)
	t.removeAt(i)
	return t.addScaledCoef(repl, &k)
}

// substTermCopy returns t[v := repl] as a fresh term without mutating t
// (t may be frozen). It merges the two sorted cell arrays in one pass into
// a result allocated at final capacity — the allocation-lean form of
// t.Clone().Subst(v, repl), which is what the eliminators substitute test
// points with.
func substTermCopy(t *Term, v Var, repl *Term) *Term {
	i, ok := t.find(v)
	if !ok {
		return t.Clone()
	}
	var k coef
	k.set(&t.cells[i].c)
	res := &Term{cells: make([]cell, 0, len(t.cells)-1+len(repl.cells))}
	var tmp coef
	// push opens the next result cell and returns its zero coefficient.
	push := func(pv Var) *coef {
		res.cells = append(res.cells, cell{v: pv})
		return &res.cells[len(res.cells)-1].c
	}
	pop := func() { res.cells = res.cells[:len(res.cells)-1] }
	a, b := 0, 0
	// Every iteration advances a or b, so the merge finishes in
	// len(t.cells)+len(repl.cells) steps.
	for a < len(t.cells) || b < len(repl.cells) {
		if a == i {
			a++
			continue
		}
		switch {
		case b == len(repl.cells) || (a < len(t.cells) && varLess(t.cells[a].v, repl.cells[b].v)):
			push(t.cells[a].v).set(&t.cells[a].c)
			a++
		case a == len(t.cells) || varLess(repl.cells[b].v, t.cells[a].v):
			nc := push(repl.cells[b].v)
			nc.set(&repl.cells[b].c)
			nc.mul(&k)
			if nc.isZero() {
				pop()
			}
			b++
		default: // same variable in both
			nc := push(t.cells[a].v)
			nc.set(&t.cells[a].c)
			tmp.set(&repl.cells[b].c)
			tmp.mul(&k)
			nc.add(&tmp)
			if nc.isZero() {
				pop()
			}
			a++
			b++
		}
	}
	res.konst.set(&t.konst)
	tmp.set(&repl.konst)
	tmp.mul(&k)
	res.konst.add(&tmp)
	return res
}

// DenomLCM returns the least common multiple of the denominators of all
// coefficients and the constant.
func (t *Term) DenomLCM() *big.Int {
	if l, ok := t.denomLCM64(); ok {
		return big.NewInt(l)
	}
	l := big.NewInt(1)
	lcmInto(l, t.konst.denomBig())
	for i := range t.cells {
		lcmInto(l, t.cells[i].c.denomBig())
	}
	return l
}

// denomLCM64 is DenomLCM's int64 fast path: it reports the LCM and whether
// every denominator and the running LCM stayed inside the fast domain.
func (t *Term) denomLCM64() (int64, bool) {
	l := int64(1)
	step := func(d int64) bool {
		m, ok := mul64(l/gcd64(l, d), d)
		if !ok {
			return false
		}
		l = m
		return true
	}
	if d, ok := t.konst.den64(); !ok || !step(d) {
		return 0, false
	}
	for i := range t.cells {
		if d, ok := t.cells[i].c.den64(); !ok || !step(d) {
			return 0, false
		}
	}
	return l, true
}

// scaledCoeffAbs64 returns |coeff(v)| · denomLCM(t) / denom(coeff(v)) — the
// integer magnitude v's coefficient takes once t is scaled to integer
// coefficients — when every intermediate fits the fast domain. v must occur
// in t.
func (t *Term) scaledCoeffAbs64(v Var) (int64, bool) {
	c := t.at(v)
	n, okN := c.num64()
	d, okD := c.den64()
	l, okL := t.denomLCM64()
	if !okN || !okD || !okL {
		return 0, false
	}
	a, ok := mul64(n, l/d)
	if !ok {
		return 0, false
	}
	if a < 0 {
		a = -a
	}
	return a, true
}

// AllIntVars reports whether every variable of the term is integer-sorted.
func (t *Term) AllIntVars() bool {
	for i := range t.cells {
		if t.cells[i].v.Sort != SortInt {
			return false
		}
	}
	return true
}

// String renders the term. Hot callers (bound dedup in the eliminators)
// use it as a canonical key; interned terms carry the rendering cached, so
// repeated keying of a shared term is a string-header copy.
func (t *Term) String() string {
	if t.frozen {
		return t.str
	}
	return string(t.appendString(nil))
}

// appendString appends the canonical rendering of t to b. Cells are stored
// sorted, so the rendering needs no sorting pass.
func (t *Term) appendString(b []byte) []byte {
	if len(t.cells) == 0 {
		return t.konst.appendRat(b)
	}
	for i := range t.cells {
		c := &t.cells[i].c
		if i > 0 {
			b = append(b, " + "...)
		}
		if c.isOne() {
			b = append(b, t.cells[i].v.Name...)
		} else {
			b = c.appendRat(b)
			b = append(b, '*')
			b = append(b, t.cells[i].v.Name...)
		}
	}
	if t.konst.sign() != 0 {
		b = append(b, " + "...)
		b = t.konst.appendRat(b)
	}
	return b
}

// appendKey appends the interner key of t: the canonical rendering with
// each variable qualified by its sort, so same-named variables of
// different sorts never collide in the intern tables.
func (t *Term) appendKey(b []byte) []byte {
	if t.frozen {
		return append(b, t.key...)
	}
	b = t.konst.appendRat(b)
	for i := range t.cells {
		b = append(b, '+')
		b = t.cells[i].c.appendRat(b)
		b = append(b, '*')
		b = append(b, t.cells[i].v.Name...)
		b = append(b, '\x00', byte(t.cells[i].v.Sort))
	}
	return b
}

// Equal reports whether two terms are identical. Interned terms compare by
// pointer first, which is the common case in the eliminator hot loops;
// otherwise both cell arrays are in canonical order and compare lockstep.
func (t *Term) Equal(o *Term) bool {
	if t == o {
		return true
	}
	if !t.konst.equal(&o.konst) || len(t.cells) != len(o.cells) {
		return false
	}
	for i := range t.cells {
		if t.cells[i].v != o.cells[i].v || !t.cells[i].c.equal(&o.cells[i].c) {
			return false
		}
	}
	return true
}

// Eval evaluates the term under the assignment, which must bind every
// variable of the term.
func (t *Term) Eval(m Model) (*big.Rat, error) {
	res := t.konst.rat()
	tmp := new(big.Rat)
	var scratch big.Rat
	for i := range t.cells {
		v := t.cells[i].v
		val, ok := m[v]
		if !ok {
			return nil, fmt.Errorf("smt: unbound variable %s", v)
		}
		res.Add(res, tmp.Mul(t.cells[i].c.ratScratch(&scratch), val))
	}
	return res, nil
}

var ratOne = big.NewRat(1, 1)

// lcmInto sets l = lcm(l, d) for positive d.
func lcmInto(l, d *big.Int) {
	g := new(big.Int).GCD(nil, nil, l, d)
	l.Div(l, g).Mul(l, d)
}
