// Package svm implements the linear support vector machine Sia uses to
// learn candidate predicates (the paper uses LIBSVM with a linear kernel;
// this is a from-scratch, stdlib-only replacement).
//
// The trainer solves the L2-regularized L1-loss (hinge) SVM
//
//	min_w  ½‖w‖² + C·Σᵢ max(0, 1 − yᵢ·w·xᵢ)
//
// by dual coordinate descent (the LIBLINEAR algorithm), which is
// deterministic, dependency-free, and fast for the tiny training sets Sia
// produces (tens to hundreds of samples). The bias is handled with the
// standard augmented-feature trick.
//
// Because the model is a linear function of the input columns, the learned
// classifier maps directly to a linear SQL predicate w·x + b > 0 and to a
// linear-arithmetic SMT formula, which keeps Sia's verification problem
// decidable (§5.4 of the paper).
package svm

import (
	"errors"
	"fmt"
	"math"
)

// Example is one training sample: a feature vector and a label (+1 or -1).
type Example struct {
	X []float64
	Y float64
}

// Options configures training.
type Options struct {
	// C is the penalty parameter. 0 means the default (10).
	C float64
}

func (o Options) c() float64 {
	if o.C > 0 {
		return o.C
	}
	return 10
}

const (
	// tol is the stopping tolerance on the projected gradient.
	tol = 1e-8
	// maxIter bounds the outer coordinate-descent sweeps.
	maxIter = 2000
)

// Model is a trained linear classifier: Score(x) = W·x + B, classifying x
// as positive when the score is strictly positive.
type Model struct {
	W []float64
	B float64
}

// Score returns W·x + B.
func (m Model) Score(x []float64) float64 {
	s := m.B
	for i, w := range m.W {
		s += w * x[i]
	}
	return s
}

// Classify reports whether x falls on the positive side of the hyperplane.
func (m Model) Classify(x []float64) bool { return m.Score(x) > 0 }

// ErrNoData is returned when the training set is empty or degenerate.
var ErrNoData = errors.New("svm: empty training set")

// Train fits a linear SVM with dual coordinate descent. Features are
// internally scaled to unit range (per dimension) for conditioning; the
// returned weights are unscaled back to the original feature space.
// Training is deterministic: the coordinate order is fixed, so identical
// inputs yield identical models.
func Train(examples []Example, opt Options) (Model, error) {
	if len(examples) == 0 {
		return Model{}, ErrNoData
	}
	dim := len(examples[0].X)
	for _, e := range examples {
		if len(e.X) != dim {
			return Model{}, fmt.Errorf("svm: inconsistent feature dimension %d != %d", len(e.X), dim)
		}
		if e.Y != 1 && e.Y != -1 {
			return Model{}, fmt.Errorf("svm: label must be +1 or -1, got %v", e.Y)
		}
	}

	// Per-feature scaling: divide each feature by its max |value|.
	scale := make([]float64, dim)
	for j := 0; j < dim; j++ {
		m := 0.0
		for _, e := range examples {
			if a := math.Abs(e.X[j]); a > m {
				m = a
			}
		}
		if m == 0 {
			m = 1
		}
		scale[j] = m
	}

	// Augmented representation: x' = (x/scale, 1); w' has dim+1 entries,
	// the last being the bias.
	n := len(examples)
	aug := dim + 1
	xs := make([][]float64, n)
	qii := make([]float64, n)
	for i, e := range examples {
		v := make([]float64, aug)
		for j := 0; j < dim; j++ {
			v[j] = e.X[j] / scale[j]
		}
		v[dim] = 1
		xs[i] = v
		for _, f := range v {
			qii[i] += f * f
		}
	}

	c := opt.c()
	alpha := make([]float64, n)
	w := make([]float64, aug)
	for iter := 0; iter < maxIter; iter++ {
		maxPG := 0.0
		for i := 0; i < n; i++ {
			y := examples[i].Y
			g := y*dot(w, xs[i]) - 1
			// Projected gradient for the box constraint 0 <= alpha <= C.
			pg := g
			if alpha[i] <= 0 && g > 0 {
				pg = 0
			} else if alpha[i] >= c && g < 0 {
				pg = 0
			}
			if a := math.Abs(pg); a > maxPG {
				maxPG = a
			}
			if pg == 0 || qii[i] == 0 {
				continue
			}
			old := alpha[i]
			alpha[i] = math.Min(math.Max(old-g/qii[i], 0), c)
			d := (alpha[i] - old) * y
			for j, f := range xs[i] {
				w[j] += d * f
			}
		}
		if maxPG < tol {
			break
		}
	}

	m := Model{W: make([]float64, dim), B: w[dim]}
	for j := 0; j < dim; j++ {
		m.W[j] = w[j] / scale[j]
	}
	return m, nil
}

// Misclassified returns the subset of examples the model labels wrongly.
// A positive example scoring exactly zero counts as misclassified, matching
// the strict acceptance Sia requires for TRUE samples.
func (m Model) Misclassified(examples []Example) []Example {
	var out []Example
	for _, e := range examples {
		score := m.Score(e.X)
		if e.Y > 0 && score <= 0 {
			out = append(out, e)
		} else if e.Y < 0 && score > 0 {
			out = append(out, e)
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
