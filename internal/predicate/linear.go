package predicate

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Linear is an arithmetic expression in normalized linear form:
// sum over columns of Coeffs[col]*col, plus Const. Coefficients are exact
// rationals; zero coefficients are never stored.
type Linear struct {
	Coeffs map[string]*big.Rat
	Const  *big.Rat
}

// NewLinear returns the zero linear form.
func NewLinear() *Linear {
	return &Linear{Coeffs: map[string]*big.Rat{}, Const: new(big.Rat)}
}

// Clone returns a deep copy.
func (l *Linear) Clone() *Linear {
	c := &Linear{Coeffs: make(map[string]*big.Rat, len(l.Coeffs)), Const: new(big.Rat).Set(l.Const)}
	for k, v := range l.Coeffs {
		c.Coeffs[k] = new(big.Rat).Set(v)
	}
	return c
}

// AddTerm adds coeff*col to the form.
func (l *Linear) AddTerm(col string, coeff *big.Rat) {
	cur, ok := l.Coeffs[col]
	if !ok {
		cur = new(big.Rat)
		l.Coeffs[col] = cur
	}
	cur.Add(cur, coeff)
	if cur.Sign() == 0 {
		delete(l.Coeffs, col)
	}
}

// AddScaled adds k*o to l in place.
func (l *Linear) AddScaled(o *Linear, k *big.Rat) {
	tmp := new(big.Rat)
	for col, c := range o.Coeffs {
		l.AddTerm(col, tmp.Mul(c, k))
	}
	l.Const.Add(l.Const, tmp.Mul(o.Const, k))
}

// Scale multiplies the form by k in place.
func (l *Linear) Scale(k *big.Rat) {
	if k.Sign() == 0 {
		l.Coeffs = map[string]*big.Rat{}
		l.Const.SetInt64(0)
		return
	}
	for _, c := range l.Coeffs {
		c.Mul(c, k)
	}
	l.Const.Mul(l.Const, k)
}

// IsConst reports whether the form has no column terms.
func (l *Linear) IsConst() bool { return len(l.Coeffs) == 0 }

// Columns returns the sorted column names with non-zero coefficients.
func (l *Linear) Columns() []string {
	cols := make([]string, 0, len(l.Coeffs))
	for c := range l.Coeffs {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

func (l *Linear) String() string {
	var sb strings.Builder
	for i, col := range l.Columns() {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%s*%s", l.Coeffs[col].RatString(), col)
	}
	if sb.Len() == 0 {
		return l.Const.RatString()
	}
	if l.Const.Sign() != 0 {
		fmt.Fprintf(&sb, " + %s", l.Const.RatString())
	}
	return sb.String()
}

// NonLinearError reports that an expression cannot be put in linear form
// because it multiplies or divides column-bearing sub-expressions. The core
// package intercepts this error and retries after substituting a virtual
// column for the offending product (§5.2 of the paper).
type NonLinearError struct {
	// Expr is the offending multiplication or division node.
	Expr Expr
}

func (e *NonLinearError) Error() string {
	return fmt.Sprintf("predicate: non-linear expression %q", e.Expr.String())
}

// Linearize normalizes an expression to linear form. It returns a
// *NonLinearError when two column-bearing forms are multiplied, when a
// division has columns in the divisor, or when dividing by zero.
func Linearize(e Expr) (*Linear, error) {
	switch x := e.(type) {
	case *ColumnRef:
		l := NewLinear()
		l.AddTerm(x.Name, big.NewRat(1, 1))
		return l, nil
	case *Const:
		if x.Val.Null {
			return nil, fmt.Errorf("predicate: cannot linearize NULL constant")
		}
		l := NewLinear()
		if x.Type.Integral() {
			l.Const.SetInt64(x.Val.Int)
		} else {
			r := new(big.Rat)
			if r.SetFloat64(x.Val.Real) == nil {
				return nil, fmt.Errorf("predicate: non-finite constant %v", x.Val.Real)
			}
			l.Const.Set(r)
		}
		return l, nil
	case *BinaryExpr:
		lf, err := Linearize(x.Left)
		if err != nil {
			return nil, err
		}
		rf, err := Linearize(x.Right)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpAdd:
			lf.AddScaled(rf, big.NewRat(1, 1))
			return lf, nil
		case OpSub:
			lf.AddScaled(rf, big.NewRat(-1, 1))
			return lf, nil
		case OpMul:
			if rf.IsConst() {
				lf.Scale(rf.Const)
				return lf, nil
			}
			if lf.IsConst() {
				rf.Scale(lf.Const)
				return rf, nil
			}
			return nil, &NonLinearError{Expr: x}
		case OpDiv:
			if !rf.IsConst() {
				return nil, &NonLinearError{Expr: x}
			}
			if rf.Const.Sign() == 0 {
				return nil, fmt.Errorf("predicate: division by zero in %q", x.String())
			}
			lf.Scale(new(big.Rat).Inv(rf.Const))
			return lf, nil
		default:
			panic(fmt.Sprintf("predicate: unknown operator %v", x.Op))
		}
	default:
		panic(fmt.Sprintf("predicate: unknown expression %T", e))
	}
}

// LinearToExpr converts a linear form back to a predicate expression with
// integer coefficients (the form is scaled by the LCM of all denominators
// first; the scale factor is returned so callers can adjust comparison
// constants). Column types are resolved through the schema; a nil schema
// types every column INTEGER.
func LinearToExpr(l *Linear, schema *Schema) (Expr, *big.Int) {
	scale := denominatorLCM(l)
	var e Expr
	tmp := new(big.Rat)
	for _, col := range l.Columns() {
		t := TypeInteger
		if schema != nil {
			if c, ok := schema.Lookup(col); ok {
				t = c.Type
			}
		}
		coeff := new(big.Rat).Mul(l.Coeffs[col], new(big.Rat).SetInt(scale))
		term := monomial(coeff.Num(), Col(col, t))
		if e == nil {
			e = term
		} else {
			e = Add(e, term) // monomial carries the sign
		}
	}
	c := tmp.Mul(l.Const, new(big.Rat).SetInt(scale))
	if e == nil {
		return IntConst(c.Num().Int64()), scale
	}
	if c.Sign() > 0 {
		e = Add(e, IntConst(c.Num().Int64()))
	} else if c.Sign() < 0 {
		e = Sub(e, IntConst(new(big.Int).Neg(c.Num()).Int64()))
	}
	return e, scale
}

// monomial builds coeff*col with small-integer simplifications.
func monomial(coeff *big.Int, col Expr) Expr {
	switch coeff.Int64() {
	case 1:
		return col
	case -1:
		return Mul(IntConst(-1), col)
	default:
		return Mul(IntConst(coeff.Int64()), col)
	}
}

// denominatorLCM returns the least common multiple of the denominators of
// every coefficient and the constant.
func denominatorLCM(l *Linear) *big.Int {
	lcm := big.NewInt(1)
	acc := func(r *big.Rat) {
		d := r.Denom()
		g := new(big.Int).GCD(nil, nil, lcm, d)
		lcm.Div(lcm, g).Mul(lcm, d)
	}
	for _, c := range l.Coeffs {
		acc(c)
	}
	acc(l.Const)
	return lcm
}
