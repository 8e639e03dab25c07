package predicate

import (
	"math"
	"reflect"
	"testing"
)

// progString renders a Program's shape for table tests.
func progString(p *Program) string {
	switch p.Kind {
	case ProgAnd, ProgOr:
		s := map[ProgKind]string{ProgAnd: "AND(", ProgOr: "OR("}[p.Kind]
		for i, k := range p.Kids {
			if i > 0 {
				s += ", "
			}
			s += progString(k)
		}
		return s + ")"
	case ProgLinear:
		return "lin[" + p.Leaf.String() + "]"
	default:
		return "opaque[" + p.Leaf.String() + "]"
	}
}

func TestCompileNegationNormalForm(t *testing.T) {
	s := testSchema()
	cases := []struct{ src, want string }{
		{"a < b", "lin[a < b]"},
		{"NOT (a < b)", "lin[a >= b]"},
		{"NOT (NOT (a = b))", "lin[a = b]"},
		{"NOT (a < b AND (c = 1 OR NOT (a > 2)))", "OR(lin[a >= b], AND(lin[c <> 1], lin[a > 2]))"},
		{"NOT (a * b > 0 OR c <= 1)", "AND(opaque[a * b <= 0], lin[c > 1])"},
	}
	for _, c := range cases {
		if got := progString(Compile(mustParse(c.src, s))); got != c.want {
			t.Errorf("%s: compiled to %s, want %s", c.src, got, c.want)
		}
	}
	// Literals are the empty connectives, and NOT swaps them.
	if got := progString(Compile(TruePred)); got != "AND()" {
		t.Errorf("TRUE compiled to %s", got)
	}
	if got := progString(Compile(&Not{P: TruePred})); got != "OR()" {
		t.Errorf("NOT TRUE compiled to %s", got)
	}
}

func TestCompileLinearNormalization(t *testing.T) {
	s := testSchema()
	cases := []struct {
		src   string
		cols  []string
		coefs []int64
		k     int64
		refs  []string
	}{
		{"2*a - 3*b >= c - 7", []string{"a", "b", "c"}, []int64{2, -3, -1}, 7, []string{"a", "b", "c"}},
		// Denominators are cleared by the positive LCM 6.
		{"a/2 + b/3 < 1", []string{"a", "b"}, []int64{3, 2}, -6, []string{"a", "b"}},
		{"a + 0.5 < b", []string{"a", "b"}, []int64{2, -2}, 1, []string{"a", "b"}},
		// A column that cancels out of the form stays in Refs.
		{"a - a + b < 5", []string{"b"}, []int64{1}, -5, []string{"a", "b"}},
		{"0*c < 5", []string{}, []int64{}, -5, []string{"c"}},
	}
	for _, c := range cases {
		p := Compile(mustParse(c.src, s))
		if p.Kind != ProgLinear {
			t.Errorf("%s: not linear", c.src)
			continue
		}
		if !reflect.DeepEqual(p.Cols, c.cols) || !reflect.DeepEqual(p.Coefs, c.coefs) || p.K != c.k || !reflect.DeepEqual(p.Refs, c.refs) {
			t.Errorf("%s: cols %v coefs %v k %d refs %v; want %v %v %d %v",
				c.src, p.Cols, p.Coefs, p.K, p.Refs, c.cols, c.coefs, c.k, c.refs)
		}
	}
}

func TestCompileOpaqueLeaves(t *testing.T) {
	s := testSchema()
	a := Col("a", TypeInteger)
	for _, p := range []Predicate{
		mustParse("a * b > 0", s),
		mustParse("a / b > 0", s),
		mustParse("a / 0 > 1", s),
		Cmp(CmpLT, a, &Const{Type: TypeInteger, Val: NullValue()}),
		// Coefficient 2^62·4 does not fit int64.
		Cmp(CmpLT, Mul(IntConst(4), Mul(IntConst(1<<62), a)), IntConst(1)),
		// 0.1 is not a dyadic rational with a small denominator.
		mustParse("a * 0.1 < 3", s),
		// The denominator LCM 2^31·(2^31+1)·3 exceeds the cap on the way —
		// and would have wrapped int64 had it been accumulated there.
		mustParse("a/2147483648 + b/2147483649 + c/3 < 1", s),
	} {
		if got := Compile(p); got.Kind != ProgOpaque || got.Leaf != p {
			t.Errorf("%s: compiled to %s, want an opaque leaf holding it", p, progString(got))
		}
	}
}

func TestFitsInt64Boundary(t *testing.T) {
	a := Col("a", TypeInteger)
	p := Compile(Cmp(CmpLT, Add(a, a), IntConst(0))) // 2a < 0
	edge := uint64((math.MaxInt64 - 1) / 2)
	if !p.FitsInt64([]uint64{edge}) {
		t.Error("2·edge + 1 = MaxInt64 must fit")
	}
	if p.FitsInt64([]uint64{edge + 1}) {
		t.Error("2·(edge+1) + 1 exceeds MaxInt64")
	}
	if p.FitsInt64([]uint64{1 << 63}) {
		t.Error("|MinInt64| must not fit")
	}
	k := Compile(Cmp(CmpLE, a, IntConst(math.MinInt64+1))) // a + (MaxInt64) <= 0
	if k.FitsInt64([]uint64{0}) {
		t.Error("|K| + 1 slack exceeds MaxInt64")
	}
}
