package storage

import (
	"encoding/binary"
	"math"
	"testing"
)

// allocPage is one fixed 64-slot page of little-endian 8-byte values, with
// a selection of every third slot, for the decode loops' allocation tests.
// Read at a narrower width it is a page of more, narrower slots.
func allocPage() (page []byte, sel []int) {
	page = make([]byte, 8*64)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(page[8*i:], math.Float64bits(float64(i)-31.5))
	}
	for r := 0; r < 64; r += 3 {
		sel = append(sel, r)
	}
	return page, sel
}

// TestDecodeIntsAllocs pins the segment scan's integer decode loop at zero
// allocations at every slot width, over a whole page and over a selection.
func TestDecodeIntsAllocs(t *testing.T) {
	page, sel := allocPage()
	for _, w := range []int{1, 2, 4, 8} {
		for _, sel := range [][]int{nil, sel} {
			dst := make([]int64, 64)
			if sel != nil {
				dst = dst[:len(sel)]
			}
			if got := testing.AllocsPerRun(100, func() { decodeInts(dst, page, w, -7, sel) }); got != 0 {
				t.Errorf("decodeInts(w=%d, sel=%v): %v allocs/op, want 0", w, sel != nil, got)
			}
		}
	}
}

// TestDecodeFloat64sAllocs is TestDecodeIntsAllocs for DOUBLE pages.
func TestDecodeFloat64sAllocs(t *testing.T) {
	page, sel := allocPage()
	for _, sel := range [][]int{nil, sel} {
		dst := make([]float64, 64)
		if sel != nil {
			dst = dst[:len(sel)]
		}
		if got := testing.AllocsPerRun(100, func() { decodeFloat64s(dst, page, sel) }); got != 0 {
			t.Errorf("decodeFloat64s(sel=%v): %v allocs/op, want 0", sel != nil, got)
		}
	}
}
