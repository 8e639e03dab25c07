// Package helper gives the bad fixture a second package so parallel runs
// must merge findings across packages deterministically.
package helper

var notes []string

var current func()

// Note is reachable from the hot entry in kernel and allocates.
func Note(s string) {
	notes = append(notes, s) // in-place append: not flagged
	sink = &record{tag: s}   // escaping composite literal: flagged
}

type record struct{ tag string }

var sink any

// Pick returns an untracked function value: current is assigned from an
// exported setter, so calls through it are dynamic.
func Pick() func() { return current }

// SetCurrent installs a callback; taking it from outside keeps the
// function-value tracker honest.
func SetCurrent(f func()) { current = f }

// sia:hotpath
func Closure(base int) func() int {
	return func() int { // capturing literal allocates
		base++
		return base
	}
}

// Warm carries a misspelt annotation: it declares no hot entry, so nothing
// below it is checked. The unknown name itself must be flagged.
//
// sia:hotpth
func Warm(n int) []int { return make([]int, n) }
