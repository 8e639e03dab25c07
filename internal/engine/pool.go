package engine

import (
	"math/bits"
	"sync"

	"sia/internal/predicate"
)

// The engine's pools recycle arrays whose end of life is known, in three
// lifetimes. A segment scan's predicate columns die when its selection
// returns, and a plan's source-scan outputs when the operator consuming
// them returns: both go back through Release. The third is operator
// scratch: the selection bitmaps and row lists, the join table and the
// probe's pair buffers, which an operator draws and hands back before it
// returns. Without the pools these arrays are the bulk of what a query
// allocates, and collecting them costs an in-memory statement a quarter
// of its CPU.
var (
	intPool  SlicePool[int64]
	realPool SlicePool[float64]
	nullPool SlicePool[bool]  // NULL flags and acceptance bitmaps
	rowPool  SlicePool[int]   // row lists and per-morsel offsets
	slotPool SlicePool[int32] // the join table's chains and partition runs
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

// drawLike is allocLike with the arrays drawn from the column pool,
// unzeroed, for scratch that Release hands back.
func (dst *colData) drawLike(src *colData, n int) {
	dst.maxAbs = src.maxAbs
	if src.typ.Integral() {
		dst.ints = intPool.Get(n)
	} else {
		dst.reals = realPool.Get(n)
	}
	if src.nulls != nil {
		dst.nulls = nullPool.Get(n)
	}
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
// so whoever draws one writes every element it exposes. The pointers the
// classes hold are recycled too, so a Get and a Put allocate nothing once
// the pool is warm.
type SlicePool[T any] struct {
	classes [64]sync.Pool
	boxes   sync.Pool // empty *[]T, for Put to fill
}

// Get returns a slice of length n from the class that fits it, allocating
// the class's full capacity when the class is empty.
func (p *SlicePool[T]) Get(n int) []T {
	if n == 0 {
		return []T{}
	}
	k := bits.Len(uint(n - 1))
	if b, ok := p.classes[k].Get().(*[]T); ok {
		s := *b
		*b = nil
		p.boxes.Put(b)
		return s[:n]
	}
	return make([]T, n, 1<<k)
}

// Put recycles s into the largest class its capacity satisfies.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	b, ok := p.boxes.Get().(*[]T)
	if !ok {
		b = new([]T)
	}
	*b = s[:cap(s)]
	p.classes[bits.Len(uint(cap(s)))-1].Put(b)
}
