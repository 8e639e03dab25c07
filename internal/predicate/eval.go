package predicate

import (
	"fmt"
	"math"
	"math/big"
)

// evalNum is an intermediate numeric result: NULL, an exact integer, or a
// float64. Arithmetic on integral operands other than division is exact,
// as in the engine's kernels, the zone-map intervals and the symbolic
// encoder: it runs in int64 and continues in math/big when +, - or ×
// overflows. Division and DOUBLE operands widen to float64. Keep the
// struct at four fields: a fifth made Eval about twice as slow per row
// (Go 1.24, amd64).
type evalNum struct {
	kind numKind
	i    int64
	big  *big.Int // the value of a numInt outside int64, else nil
	f    float64
}

type numKind uint8

const (
	numNull numKind = iota
	numInt
	numReal
)

func (n evalNum) real() float64 {
	switch {
	case n.big != nil:
		f, _ := new(big.Float).SetInt(n.big).Float64()
		return f
	case n.kind == numInt:
		return float64(n.i)
	}
	return n.f
}

// bigInt returns a numInt n as a big.Int.
func (n evalNum) bigInt() *big.Int {
	if n.big != nil {
		return n.big
	}
	return big.NewInt(n.i)
}

// EvalExpr evaluates an arithmetic expression against a tuple. A reference
// to a column absent from the tuple, or any NULL operand, yields NULL. An
// integer result outside int64 is returned as the nearest DOUBLE.
func EvalExpr(e Expr, t Tuple) Value {
	n := evalExpr(e, t)
	switch {
	case n.kind == numNull:
		return NullValue()
	case n.kind == numInt && n.big == nil:
		return IntVal(n.i)
	}
	return RealVal(n.real())
}

func evalExpr(e Expr, t Tuple) evalNum {
	switch x := e.(type) {
	case *ColumnRef:
		v, ok := t[x.Name]
		if !ok || v.Null {
			return evalNum{kind: numNull}
		}
		if x.Type.Integral() {
			return evalNum{kind: numInt, i: v.Int}
		}
		return evalNum{kind: numReal, f: v.Real}
	case *Const:
		if x.Val.Null {
			return evalNum{kind: numNull}
		}
		if x.Type.Integral() {
			return evalNum{kind: numInt, i: x.Val.Int}
		}
		return evalNum{kind: numReal, f: x.Val.Real}
	case *BinaryExpr:
		l := evalExpr(x.Left, t)
		r := evalExpr(x.Right, t)
		if l.kind == numNull || r.kind == numNull {
			return evalNum{kind: numNull}
		}
		return applyArith(x.Op, l, r)
	default:
		panic(fmt.Sprintf("predicate: unknown expression %T", e))
	}
}

func applyArith(op ArithOp, l, r evalNum) evalNum {
	if l.kind == numInt && r.kind == numInt && op != OpDiv {
		if l.big == nil && r.big == nil {
			switch op {
			case OpAdd:
				if s, ok := addInt64(l.i, r.i); ok {
					return evalNum{kind: numInt, i: s}
				}
			case OpSub:
				if s, ok := addInt64(l.i, -r.i); ok && !(r.i == math.MinInt64) {
					return evalNum{kind: numInt, i: s}
				}
			case OpMul:
				if p, ok := mulInt64(l.i, r.i); ok {
					return evalNum{kind: numInt, i: p}
				}
			}
		}
		// Overflow, or an operand already outside int64.
		z := new(big.Int)
		switch op {
		case OpAdd:
			z.Add(l.bigInt(), r.bigInt())
		case OpSub:
			z.Sub(l.bigInt(), r.bigInt())
		case OpMul:
			z.Mul(l.bigInt(), r.bigInt())
		}
		if z.IsInt64() {
			return evalNum{kind: numInt, i: z.Int64()}
		}
		return evalNum{kind: numInt, big: z}
	}
	a, b := l.real(), r.real()
	switch op {
	case OpAdd:
		return evalNum{kind: numReal, f: a + b}
	case OpSub:
		return evalNum{kind: numReal, f: a - b}
	case OpMul:
		return evalNum{kind: numReal, f: a * b}
	case OpDiv:
		if b == 0 {
			// SQL raises an error on division by zero; in a predicate
			// context we conservatively treat it as NULL so the row is
			// neither accepted nor definitively rejected.
			return evalNum{kind: numNull}
		}
		return evalNum{kind: numReal, f: a / b}
	default:
		panic(fmt.Sprintf("predicate: unknown operator %v", op))
	}
}

func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// Eval evaluates a predicate against a tuple under SQL's three-valued
// logic: comparisons with a NULL operand are Unknown, and AND/OR/NOT follow
// Kleene semantics. A tuple "satisfies" p exactly when Eval returns True.
func Eval(p Predicate, t Tuple) TriBool {
	switch x := p.(type) {
	case *Compare:
		l := evalExpr(x.Left, t)
		r := evalExpr(x.Right, t)
		if l.kind == numNull || r.kind == numNull {
			return Unknown
		}
		return compareNums(x.Op, l, r)
	case *And:
		res := True
		for _, q := range x.Preds {
			res = res.And(Eval(q, t))
			// False is AND's absorbing element; Unknown must keep
			// evaluating, and does.
			if res == False {
				return False
			}
		}
		return res
	case *Or:
		res := False
		for _, q := range x.Preds {
			res = res.Or(Eval(q, t))
			// True is OR's absorbing element; Unknown must keep
			// evaluating, and does.
			if res == True {
				return True
			}
		}
		return res
	case *Not:
		return Eval(x.P, t).Not()
	case *Literal:
		if x.B {
			return True
		}
		return False
	default:
		panic(fmt.Sprintf("predicate: unknown predicate %T", p))
	}
}

// Satisfies reports whether the tuple satisfies the predicate (Eval == True).
// This is SQL's WHERE-clause collapse: Unknown rejects the row like False.
func Satisfies(p Predicate, t Tuple) bool { return Eval(p, t) == True }

func compareNums(op CmpOp, l, r evalNum) TriBool {
	var c int
	if l.kind == numInt && r.kind == numInt {
		switch {
		case l.big != nil || r.big != nil:
			c = l.bigInt().Cmp(r.bigInt())
		case l.i < r.i:
			c = -1
		case l.i > r.i:
			c = 1
		}
	} else {
		a, b := l.real(), r.real()
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
	}
	var ok bool
	switch op {
	case CmpLT:
		ok = c < 0
	case CmpGT:
		ok = c > 0
	case CmpLE:
		ok = c <= 0
	case CmpGE:
		ok = c >= 0
	case CmpEQ:
		ok = c == 0
	case CmpNE:
		ok = c != 0
	default:
		panic(fmt.Sprintf("predicate: unknown comparison %v", op))
	}
	if ok {
		return True
	}
	return False
}
