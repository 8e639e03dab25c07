package engine

import (
	"math/bits"
	"sync"

	"sia/internal/predicate"
)

// The column pool recycles the arrays of tables whose end of life a caller
// knows: a segment scan's predicate columns die when its selection
// returns, and a plan's source-scan outputs when the operator consuming
// them returns. Without it those arrays are the bulk of what a disk query
// allocates, and collecting them costs about as much as decoding them.
var (
	intPool  SlicePool[int64]
	realPool SlicePool[float64]
	nullPool SlicePool[bool]
)

// NewColumnValues returns arrays for n values of column c, drawn from the
// column pool: Ints or Reals by c's type, and Nulls when c is nullable.
// Their contents are arbitrary; the caller writes every slot and sets
// MaxAbs before handing them to NewTableFromColumns.
func NewColumnValues(c predicate.Column, n int) ColumnValues {
	var cv ColumnValues
	if c.Type.Integral() {
		cv.Ints = intPool.Get(n)
	} else {
		cv.Reals = realPool.Get(n)
	}
	if !c.NotNull {
		cv.Nulls = nullPool.Get(n)
	}
	return cv
}

// Release hands t's column arrays to the pool NewColumnValues draws from
// and leaves t without rows. The caller must own t outright: no other
// table, and no later read of t, may use its arrays.
func Release(t *Table) {
	for _, cd := range t.cols {
		intPool.Put(cd.ints)
		realPool.Put(cd.reals)
		nullPool.Put(cd.nulls)
		cd.ints, cd.reals, cd.nulls = nil, nil, nil
	}
	t.nRows = 0
}

// SlicePool recycles slices of T in power-of-two capacity classes, one
// sync.Pool per class: class k holds slices of capacity at least 1<<k, so
// a slice of any length is one Get away. Get hands slices out unzeroed,
// so whoever draws one writes every element it exposes.
type SlicePool[T any] struct {
	classes [64]sync.Pool
}

// Get returns a slice of length n from the class that fits it, allocating
// the class's full capacity when the class is empty.
func (p *SlicePool[T]) Get(n int) []T {
	if n == 0 {
		return []T{}
	}
	k := bits.Len(uint(n - 1))
	if s, ok := p.classes[k].Get().(*[]T); ok {
		return (*s)[:n]
	}
	return make([]T, n, 1<<k)
}

// Put recycles s into the largest class its capacity satisfies.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	p.classes[bits.Len(uint(cap(s)))-1].Put(&s)
}
