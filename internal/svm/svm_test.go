package svm

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestTrainSeparable2D(t *testing.T) {
	// Points above the line y = x are positive.
	var ex []Example
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := r.Float64()*20 - 10
		y := r.Float64()*20 - 10
		if math.Abs(y-x) < 0.5 {
			continue // margin
		}
		lbl := -1.0
		if y > x {
			lbl = 1.0
		}
		ex = append(ex, Example{X: []float64{x, y}, Y: lbl})
	}
	m, err := Train(ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ex {
		if (m.Score(e.X) > 0) != (e.Y > 0) {
			t.Fatalf("misclassified %v (score %f)", e, m.Score(e.X))
		}
	}
	// The hyperplane should be close to y - x = 0: w ~ (-1, 1)*k, b ~ 0.
	if m.W[1] <= 0 || m.W[0] >= 0 {
		t.Fatalf("unexpected weight signs: %+v", m)
	}
	ratio := -m.W[0] / m.W[1]
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("hyperplane slope off: w=%v ratio=%f", m.W, ratio)
	}
}

func TestTrainPaperFirstIteration(t *testing.T) {
	// §3.2 of the paper: initial TRUE samples (-5,1) (2,-6) (-27,-44)
	// (-28,-46) (-7,-1); FALSE samples (-40,-2) (-56,-2) (-53,-2) (-48,-2).
	// These are linearly separable; any correct separator must classify
	// all TRUE samples positive.
	ex := []Example{
		{X: []float64{-5, 1}, Y: 1},
		{X: []float64{2, -6}, Y: 1},
		{X: []float64{-27, -44}, Y: 1},
		{X: []float64{-28, -46}, Y: 1},
		{X: []float64{-7, -1}, Y: 1},
		{X: []float64{-40, -2}, Y: -1},
		{X: []float64{-56, -2}, Y: -1},
		{X: []float64{-53, -2}, Y: -1},
		{X: []float64{-48, -2}, Y: -1},
	}
	m, err := Train(ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mc := m.Misclassified(ex); len(mc) != 0 {
		t.Fatalf("separable set misclassified: %v (model %+v)", mc, m)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ex := []Example{
		{X: []float64{1, 2}, Y: 1},
		{X: []float64{-1, -2}, Y: -1},
		{X: []float64{3, 1}, Y: 1},
		{X: []float64{-2, 0}, Y: -1},
	}
	a, err := Train(ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("training is not deterministic: %v vs %v", a.W, b.W)
		}
	}
	if a.B != b.B {
		t.Fatalf("bias differs: %v vs %v", a.B, b.B)
	}
}

func TestTrainNonSeparable(t *testing.T) {
	// XOR-ish pattern cannot be linearly separated; Train must still
	// return a finite model without error.
	ex := []Example{
		{X: []float64{0, 0}, Y: 1},
		{X: []float64{1, 1}, Y: 1},
		{X: []float64{0, 1}, Y: -1},
		{X: []float64{1, 0}, Y: -1},
	}
	m, err := Train(ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(append([]float64{}, m.W...), m.B) {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("non-finite weight: %+v", m)
		}
	}
	if mc := m.Misclassified(ex); len(mc) == 0 {
		t.Fatal("XOR cannot be linearly separated; someone must be misclassified")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Options{}); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := Train([]Example{{X: []float64{1}, Y: 0.5}}, Options{}); err == nil {
		t.Fatal("bad label should error")
	}
	if _, err := Train([]Example{{X: []float64{1}, Y: 1}, {X: []float64{1, 2}, Y: -1}}, Options{}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestTrainLargeScaleFeatures(t *testing.T) {
	// Date-like features in the thousands must not break conditioning.
	var ex []Example
	for d := int64(0); d < 40; d++ {
		lbl := -1.0
		if d > 20 {
			lbl = 1.0
		}
		ex = append(ex, Example{X: []float64{float64(d * 100)}, Y: lbl})
	}
	m, err := Train(ex, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mc := m.Misclassified(ex); len(mc) != 0 {
		t.Fatalf("threshold split misclassified %d samples", len(mc))
	}
}

func TestIntegerizePlane(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		w        []float64
		b        float64
		maxCoeff int64
		want     []string // fmt.Sprint(Coeffs, C) per plane, in emission order
	}{
		{"the rounded constant and its neighbours", []float64{2, -1}, 0.5, 1,
			[]string{"[1 -1] 0", "[1 -1] -1", "[1 -1] 1"}},
		{"one family per scale, none above maxCoeff", []float64{2, -1}, 0.5, 3, []string{
			"[1 -1] 0", "[1 -1] -1", "[1 -1] 1",
			"[2 -1] 1", "[2 -1] 0", "[2 -1] 2",
			"[3 -2] 1", "[3 -2] 0", "[3 -2] 2",
		}},
		// The smaller weight rounds to zero at scale 1 and the largest never
		// does, so no scale is skipped however small the weights are.
		{"tiny weights still scale to ±k", []float64{-1e-9, 3e-10}, 0, 2, []string{
			"[-1 0] 0", "[-1 0] -1", "[-1 0] 1",
			"[-2 1] 0", "[-2 1] -1", "[-2 1] 1",
		}},
		{"all-zero weights", []float64{0, 0}, 1, 4, nil},
		{"no weights", nil, 1, 4, nil},
		{"NaN weight", []float64{nan, 1}, 0, 4, nil},
		{"Inf weight", []float64{-inf, 1}, 0, 4, nil},
		{"NaN bias", []float64{1, 1}, nan, 4, nil},
		{"Inf bias", []float64{1, 1}, inf, 4, nil},
	}
	for _, tc := range cases {
		var got []string
		for _, p := range IntegerizePlane(tc.w, tc.b, tc.maxCoeff) {
			got = append(got, fmt.Sprint(p.Coeffs, p.C))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}

	// Over random weights every scale contributes three planes, no plane
	// repeats across scales, and no coefficient exceeds maxCoeff.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 1+r.Intn(3))
		for i := range w {
			w[i] = (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(7)-3))
		}
		maxCoeff := 1 + r.Int63n(8)
		planes := IntegerizePlane(w, r.NormFloat64()*100, maxCoeff)
		if int64(len(planes)) != 3*maxCoeff {
			t.Fatalf("w=%v maxCoeff=%d: %d planes, want %d", w, maxCoeff, len(planes), 3*maxCoeff)
		}
		seen := map[string]bool{}
		for _, p := range planes {
			key := fmt.Sprint(p.Coeffs, p.C)
			if seen[key] {
				t.Fatalf("w=%v maxCoeff=%d: plane %s emitted twice", w, maxCoeff, key)
			}
			seen[key] = true
			for _, c := range p.Coeffs {
				if c.CmpAbs(big.NewInt(maxCoeff)) > 0 {
					t.Fatalf("w=%v maxCoeff=%d: coefficient %v out of bounds", w, maxCoeff, c)
				}
			}
		}
	}
}
