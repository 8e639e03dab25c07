// Morsel-driven parallel execution. The scheduler splits an operator's row
// space into fixed-size morsels that a pool of workers claims off a shared
// atomic counter — the classic morsel-driven design: static partitioning
// would idle workers behind a skewed morsel, while per-row work stealing
// would drown the operators in synchronization. Every parallel operator in
// this package is written so its output is byte-identical to the serial
// engine at any worker count: workers either write disjoint row ranges of a
// preallocated output, or produce per-morsel/per-worker state that is
// stitched back in a deterministic order.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// morselRows is the scheduler's unit of work. Large enough that the atomic
// claim is noise against the per-row work, small enough that a selective
// filter still load-balances across workers.
const morselRows = 4096

// DefaultParallelism is the worker count used when a caller passes a
// non-positive parallelism: one worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// normalizeParallelism clamps a requested worker count to something useful
// for n rows: non-positive means DefaultParallelism, and there is no point
// running more workers than there are morsels.
func normalizeParallelism(par, n int) int {
	if par <= 0 {
		par = DefaultParallelism()
	}
	return max(1, min(par, morselCount(n)))
}

// morselCount returns the number of morsels covering n rows.
func morselCount(n int) int { return (n + morselRows - 1) / morselRows }

// forEachMorsel runs fn over every morsel of [0, n) on par workers. fn
// receives the claiming worker's id in [0, par'), the morsel's index, and
// the row range [lo, hi). With one worker (or few rows) everything runs
// inline on the calling goroutine in ascending morsel order; with more,
// workers claim morsels from a shared counter, so fn must only touch state
// owned by its row range, its morsel slot, or its worker id. The normalized
// worker count is returned so callers can size per-worker state; it is
// stable for a given (par, n) regardless of scheduling.
func forEachMorsel(n, par int, fn func(worker, morsel, lo, hi int)) int {
	par = normalizeParallelism(par, n)
	morsels := morselCount(n)
	mMorselsScheduled.Add(uint64(morsels))
	claimTasks(morsels, par, func(worker, m int) {
		lo := m * morselRows
		fn(worker, m, lo, min(lo+morselRows, n))
	})
	return par
}

// ForEachTask runs fn(0) … fn(n-1) on up to par workers (par <= 0 means
// DefaultParallelism). Used for coarse task parallelism, where the tasks
// are few and each is worth a claim: one per join partition, or one per
// segment of a storage scan.
func ForEachTask(n, par int, fn func(task int)) {
	if par <= 0 {
		par = DefaultParallelism()
	}
	claimTasks(n, min(par, n), func(_, i int) { fn(i) })
}

// claimTasks runs fn(worker, 0) … fn(worker, n-1) on par workers that claim
// tasks off a shared counter, or inline in ascending order when par <= 1.
func claimTasks(n, par int, fn func(worker, task int)) {
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// The claim loop ends: the shared counter only grows, so each
			// worker exits after at most n claims. Cancellation is the
			// caller's business at task granularity, not per claim.
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// mixHash finalizes a 64-bit key into a well-distributed hash (MurmurHash3's
// fmix64). The join table must not use the raw key: TPC-H keys are
// sequential, and k % P would send entire key ranges to one partition. It
// takes the partition from the hash's high bits and the slot from its low
// bits, which fmix64 mixes independently.
func mixHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
