package experiments

import (
	"testing"

	"sia/internal/engine"
	"sia/internal/tpch"
)

func TestSameRows(t *testing.T) {
	orders, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.01})
	if !sameRows(orders, orders) {
		t.Fatal("table must equal itself")
	}
	sorted, err := sortByColumn(orders, "o_totalprice")
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(orders, sorted) {
		t.Fatal("reordering must not change the row multiset")
	}
	// Same row count, different multiset: duplicate row 1 in place of row 0.
	idx := make([]int, orders.NumRows())
	for i := range idx {
		idx[i] = i
	}
	idx[0] = 1
	swapped, err := engine.ReorderRows(orders, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(orders, swapped) {
		t.Fatal("a replaced row must be detected")
	}
}
