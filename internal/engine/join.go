package engine

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"sia/internal/predicate"
)

// JoinSpec describes one inner equi-join of a left and a right table.
type JoinSpec struct {
	// LeftKey and RightKey name the integral key columns.
	LeftKey, RightKey string
	// LeftPred and RightPred (nil for none) are evaluated over their own
	// side before a row reaches the hash table: a pushed-down filter costs
	// one column kernel per row and saves a hash insert or probe.
	LeftPred, RightPred predicate.Predicate
	// Residual (nil for none) is a predicate over the joined row. It is
	// evaluated on the matched pairs of each probe morsel, over the
	// residual's own columns only, before any output column is gathered.
	Residual predicate.Predicate
	// Cols is the set of output columns; nil means every column of both
	// sides, and an empty non-nil set a table of rows without columns
	// (COUNT(*)). Output columns keep schema order: the left table's, then
	// the right's.
	Cols []string
}

// JoinStats reports the logical join input sizes: rows per side that
// passed the side predicate (if any) and carried a non-NULL key.
type JoinStats struct {
	LeftIn, RightIn int
}

// HashJoinWherePar performs the inner equi-join spec describes on par
// workers (par <= 0 means DefaultParallelism). Column names of l and r must
// be disjoint. NULL keys never match, and the residual keeps a pair only
// when it is TRUE, per SQL semantics.
//
// Each side is first reduced to an acceptance bitmap (side predicate AND
// key IS NOT NULL); the side with fewer accepted rows builds, the left one
// on a tie, so the choice is a function of the data alone. If either side
// accepts nothing the result is the empty table and no table is built. The
// accepted build rows go through one partition pass into a joinTable, probe
// morsels run concurrently against it, and their surviving pairs are
// stitched in morsel order before the requested columns are gathered. A
// chain lists equal keys in ascending row order however the build was
// scheduled, so the output is byte-identical at any worker count.
//
// Time spent evaluating the side predicates and the residual is observed
// as operator "filter", the rest as "join"; the residual's share is the
// workers' summed time divided by the worker count.
//
// Every array the join works in — the sides' row lists, the join table,
// the probe workers' buffers and the stitched pairs — is drawn from the
// engine's pools and handed back before the join returns, on every path
// out. Only the output table is freshly allocated, and the caller owns it.
func HashJoinWherePar(l, r *Table, spec JoinSpec, par int) (*Table, JoinStats, error) {
	start := time.Now()
	var filterTime time.Duration
	defer func() {
		if filterTime > 0 {
			mOperatorSeconds[opFilter].Observe(filterTime.Seconds())
		}
		mOperatorSeconds[opJoin].Observe((time.Since(start) - filterTime).Seconds())
	}()
	var stats JoinStats
	left, err := newJoinSide(l, spec.LeftKey, "left")
	if err != nil {
		return nil, stats, err
	}
	right, err := newJoinSide(r, spec.RightKey, "right")
	if err != nil {
		return nil, stats, err
	}
	defer func() {
		left.release()
		right.release()
	}()
	outCols := predicate.Merge(l.schema, r.schema).Columns()
	if spec.Cols != nil {
		for _, name := range spec.Cols {
			if l.cols[name] == nil && r.cols[name] == nil {
				return nil, stats, fmt.Errorf("engine: unknown join output column %q", name)
			}
		}
		outCols = slices.DeleteFunc(outCols, func(c predicate.Column) bool { return !slices.Contains(spec.Cols, c.Name) })
	}
	out := NewTable(l.Name+"_"+r.Name, predicate.NewSchema(outCols...))
	var res *residual
	if spec.Residual != nil {
		if res, err = newResidual(spec.Residual, l, r); err != nil {
			return nil, stats, err
		}
	}

	filterTime += left.selectRows(spec.LeftPred, par)
	filterTime += right.selectRows(spec.RightPred, par)
	stats = JoinStats{LeftIn: left.in, RightIn: right.in}
	if left.in == 0 || right.in == 0 {
		return out, stats, nil
	}
	build, probe := left, right
	if right.in < left.in {
		build, probe = right, left
	}
	if res != nil {
		res.buildLeft = build == left
	}
	jt := buildJoinTable(build, par)
	defer jt.release()

	// Probe: every morsel of the probe side's rows counts its matches,
	// fills its worker's pair buffers, lets the residual cut them, and keeps
	// what survives in its own slot.
	pk := probe.key.ints
	workers := make([]probeScratch, normalizeParallelism(par, probe.in))
	pairs := make([][]int, morselCount(probe.in)) // per morsel: build rows, then as many probe rows
	var residualNanos atomic.Int64
	nWorkers := forEachMorsel(probe.in, par, func(w, m, lo, hi int) {
		ws := &workers[w]
		if ws.first == nil {
			ws.first, ws.matches = slotPool.Get(morselRows), slotPool.Get(morselRows)
		}
		c := jt.count(pk, probe.rows, lo, hi, ws.first, ws.matches)
		if c == 0 {
			return
		}
		ws.grow(c, res)
		jt.fill(pk, probe.rows, lo, hi, ws.first, ws.matches, ws.brows, ws.prows)
		if res != nil {
			t0 := time.Now()
			kept := res.cut(ws, c)
			countFiltered(c, kept)
			residualNanos.Add(int64(time.Since(t0)))
			if c = kept; c == 0 {
				return
			}
		}
		p := rowPool.Get(2 * c)
		copy(p, ws.brows[:c])
		copy(p[c:], ws.prows[:c])
		pairs[m] = p
	})
	filterTime += time.Duration(residualNanos.Load() / int64(nWorkers))
	for i := range workers {
		workers[i].release()
	}

	total := 0
	for _, p := range pairs {
		total += len(p) / 2
	}
	brows, prows := rowPool.Get(total), rowPool.Get(total)
	at := 0
	for _, p := range pairs {
		c := len(p) / 2
		copy(brows[at:], p[:c])
		copy(prows[at:], p[c:])
		at += c
		rowPool.Put(p)
	}
	lrows, rrows := brows, prows
	if build == right {
		lrows, rrows = prows, brows
	}
	var lcols, rcols []string
	for _, c := range outCols {
		if l.cols[c.Name] != nil {
			lcols = append(lcols, c.Name)
		} else {
			rcols = append(rcols, c.Name)
		}
	}
	out.nRows = total
	gatherInto(out, l, lcols, lrows, par)
	gatherInto(out, r, rcols, rrows, par)
	rowPool.Put(brows)
	rowPool.Put(prows)
	return out, stats, nil
}

// joinSide is one input of a join: its table, its key column, and, after
// selectRows, which rows take part.
type joinSide struct {
	t    *Table
	key  *colData
	rows []int // the rows taking part, ascending, from the row pool; nil when every row does
	in   int   // how many rows take part
}

func newJoinSide(t *Table, key, which string) (*joinSide, error) {
	c, ok := t.schema.Lookup(key)
	if !ok || !c.Type.Integral() {
		return nil, fmt.Errorf("engine: bad %s join key %s.%s", which, t.Name, key)
	}
	if t.nRows >= math.MaxInt32 {
		return nil, fmt.Errorf("engine: %s join input %s has %d rows, the join table indexes at most %d", which, t.Name, t.nRows, math.MaxInt32-1)
	}
	return &joinSide{t: t, key: t.cols[key]}, nil
}

// rowAt returns the i-th row of an ascending row list, nil listing every
// row.
func rowAt(rows []int, i int) int {
	if rows != nil {
		return rows[i]
	}
	return i
}

// selectRows lists the rows that take part: those the side predicate
// accepts, counted in the filter counters, less those with a NULL key. It
// returns the time the predicate took.
func (s *joinSide) selectRows(pred predicate.Predicate, par int) time.Duration {
	var spent time.Duration
	s.in = s.t.nRows
	if pred != nil {
		start := time.Now()
		s.rows = selectRows(s.t, predicate.Compile(pred), par)
		s.in = len(s.rows)
		spent = time.Since(start)
	}
	if nulls := s.key.nulls; nulls != nil {
		kept := rowPool.Get(s.in)[:0]
		for i := 0; i < s.in; i++ {
			if row := rowAt(s.rows, i); !nulls[row] {
				kept = append(kept, row)
			}
		}
		rowPool.Put(s.rows)
		s.rows, s.in = kept, len(kept)
	}
	return spent
}

// release hands the side's row list back to the row pool.
func (s *joinSide) release() { rowPool.Put(s.rows) }

// joinTable is the build side of a hash join as a flat chained table over
// the build key column: head[slot] is 1 + the first build row of the slot's
// chain, next[row] 1 + the row after it, 0 ends a chain. There are no
// pointers for the collector to trace and no per-key allocation. The high
// bits of a key's mixHash pick its partition, the low bits its slot within
// the partition's own run of head, so the two are independent and
// partitions never share a slot: their inserts cannot race.
type joinTable struct {
	keys      []int64
	head      []int32
	next      []int32
	partShift uint // 64 - log2(partitions); a shift by 64 yields partition 0
	slotBits  uint // log2(slots per partition)
}

// maxJoinPartitions caps the partition count: enough insert tasks to
// balance any realistic worker count, few enough that the per-morsel
// histograms stay small.
const maxJoinPartitions = 64

func (jt *joinTable) partition(h uint64) int { return int(h >> jt.partShift) }

func (jt *joinTable) slot(h uint64) int {
	return int(h>>jt.partShift)<<jt.slotBits | int(h&(1<<jt.slotBits-1))
}

// buildJoinTable indexes the selected rows of the build side in one
// partition pass: a per-morsel histogram of partition sizes, an exclusive
// prefix sum laid out partition by partition and morsel by morsel within
// it, a scatter of row ids to those offsets, and one insert task per
// partition. Each partition's run lists its rows in ascending order, and
// its task pushes them on their chains back to front, so a chain reads in
// ascending row order whatever the scheduling was. The partition count
// follows the number of build rows, not the worker count, so the table
// itself is the same at any width.
func buildJoinTable(build *joinSide, par int) *joinTable {
	partBits := uint(0)
	for 1<<partBits < maxJoinPartitions && build.in>>partBits > morselRows {
		partBits++
	}
	nPart := 1 << partBits
	slotBits := uint(0)
	for 1<<slotBits < build.in>>partBits {
		slotBits++
	}
	// Only head and hist are read before they are written: a chain ends at
	// a zero head, and the histogram counts up from zero. next and the
	// partition runs are written at every slot that is later read.
	jt := &joinTable{
		keys:      build.key.ints,
		head:      slotPool.Get(nPart << slotBits),
		next:      slotPool.Get(build.t.nRows),
		partShift: 64 - partBits,
		slotBits:  slotBits,
	}
	clear(jt.head)
	hist := rowPool.Get(morselCount(build.in) * nPart)
	clear(hist)
	forEachMorsel(build.in, par, func(_, m, lo, hi int) {
		jt.histogram(hist[m*nPart:(m+1)*nPart], build.rows, lo, hi)
	})
	starts := rowPool.Get(nPart + 1)
	at := 0
	for p := 0; p < nPart; p++ {
		starts[p] = at
		for i := p; i < len(hist); i += nPart {
			at, hist[i] = at+hist[i], at
		}
	}
	starts[nPart] = at
	rows := slotPool.Get(at)
	forEachMorsel(build.in, par, func(_, m, lo, hi int) {
		jt.scatter(rows, hist[m*nPart:(m+1)*nPart], build.rows, lo, hi)
	})
	ForEachTask(nPart, par, func(p int) {
		jt.insert(rows[starts[p]:starts[p+1]])
	})
	slotPool.Put(rows)
	rowPool.Put(hist)
	rowPool.Put(starts)
	return jt
}

// release hands head and next back to the slot pool. keys is the build
// table's own key column and stays with it.
func (jt *joinTable) release() {
	slotPool.Put(jt.head)
	slotPool.Put(jt.next)
}

// histogram counts the build rows at positions [lo, hi) of rows per
// partition.
func (jt *joinTable) histogram(counts []int, rows []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		counts[jt.partition(mixHash(uint64(jt.keys[rowAt(rows, i)])))]++
	}
}

// scatter writes the build rows at positions [lo, hi) of rows to their
// partitions' runs, advancing the morsel's offsets.
func (jt *joinTable) scatter(runs []int32, offsets []int, rows []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := rowAt(rows, i)
		p := jt.partition(mixHash(uint64(jt.keys[row])))
		runs[offsets[p]] = int32(row)
		offsets[p]++
	}
}

// insert pushes one partition's rows on their chains, last row first.
func (jt *joinTable) insert(rows []int32) {
	for i := len(rows) - 1; i >= 0; i-- {
		row := rows[i]
		s := jt.slot(mixHash(uint64(jt.keys[row])))
		jt.next[row] = jt.head[s]
		jt.head[s] = row + 1
	}
}

// count looks up the probe rows at positions [lo, hi) of rows and returns
// how many (build row, probe row) pairs they match. For fill it leaves, per
// position, 1 + the first matching build row in first and the number of
// matches in matches, so the hash and the chain up to the first match are
// walked once.
func (jt *joinTable) count(pk []int64, rows []int, lo, hi int, first, matches []int32) int {
	c := 0
	for i := lo; i < hi; i++ {
		var f, n int32
		k := pk[rowAt(rows, i)]
		for b := jt.head[jt.slot(mixHash(uint64(k)))]; b != 0; b = jt.next[b-1] {
			if jt.keys[b-1] == k {
				if n == 0 {
					f = b
				}
				n++
			}
		}
		first[i-lo], matches[i-lo] = f, n
		c += int(n)
	}
	return c
}

// fill writes the pairs count counted to brows and prows: probe rows in
// ascending order, each with its build rows in ascending order.
func (jt *joinTable) fill(pk []int64, rows []int, lo, hi int, first, matches []int32, brows, prows []int) {
	c := 0
	for i := lo; i < hi; i++ {
		n := matches[i-lo]
		if n == 0 {
			continue
		}
		// The chain holds n matches from the first one on.
		row := rowAt(rows, i)
		k := pk[row]
		for b := first[i-lo]; n > 0; b = jt.next[b-1] {
			if jt.keys[b-1] == k {
				brows[c], prows[c] = int(b-1), row
				c++
				n--
			}
		}
	}
}

// residual is a join's residual predicate, compiled, with the source of
// each column it mentions.
type residual struct {
	prog      *predicate.Program
	schema    *predicate.Schema // the residual's columns
	cols      []residualCol
	buildLeft bool // set once the build side is chosen
}

type residualCol struct {
	name     string
	src      *colData
	fromLeft bool
}

func newResidual(p predicate.Predicate, l, r *Table) (*residual, error) {
	res := &residual{prog: predicate.Compile(p)}
	var cols []predicate.Column
	for _, name := range predicate.Columns(p) {
		t, fromLeft := r, false
		if l.cols[name] != nil {
			t, fromLeft = l, true
		}
		c, ok := t.schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown column %q in join residual", name)
		}
		cols = append(cols, c)
		res.cols = append(res.cols, residualCol{name: name, src: t.cols[name], fromLeft: fromLeft})
	}
	res.schema = predicate.NewSchema(cols...)
	return res, nil
}

// probeScratch is one probe worker's reusable state: the candidate pairs
// of the morsel it is working on and, under a residual, a table holding
// the residual's columns for those pairs with the program bound to it.
// The buffers only grow, so binding is redone only then. Every buffer is
// drawn from the engine's pools, and release hands them all back.
type probeScratch struct {
	first, matches []int32 // per probe row of the morsel, from count to fill
	brows, prows   []int

	t    *Table
	root *boundNode
	sel  []bool
	or   []bool
}

// grow makes room for n candidate pairs.
func (ws *probeScratch) grow(n int, res *residual) {
	if n <= len(ws.brows) {
		return
	}
	n = max(n, 2*len(ws.brows))
	ws.releasePairs()
	ws.brows, ws.prows = rowPool.Get(n), rowPool.Get(n)
	if res == nil {
		return
	}
	ws.t = NewTable("", res.schema)
	ws.t.nRows = n
	for _, rc := range res.cols {
		ws.t.cols[rc.name].drawLike(rc.src, n)
	}
	ws.root = bind(ws.t, res.prog)
	ws.sel = nullPool.Get(n)
	ws.or = nullPool.Get(2 * ws.root.orDepth * n)
}

// releasePairs hands back the buffers sized by the candidate pairs: the
// pairs themselves and the residual's table, bitmap and scratch.
func (ws *probeScratch) releasePairs() {
	rowPool.Put(ws.brows)
	rowPool.Put(ws.prows)
	if ws.t != nil {
		Release(ws.t)
	}
	nullPool.Put(ws.sel)
	nullPool.Put(ws.or)
}

// release hands every buffer of ws back.
func (ws *probeScratch) release() {
	ws.releasePairs()
	slotPool.Put(ws.first)
	slotPool.Put(ws.matches)
}

// cut gathers the residual's columns for the first c candidate pairs of
// ws, runs the bound program over them, and compacts the pairs it accepts
// to the front of ws.brows and ws.prows. It returns how many those are.
func (res *residual) cut(ws *probeScratch, c int) int {
	for _, rc := range res.cols {
		rows := ws.prows
		if rc.fromLeft == res.buildLeft {
			rows = ws.brows
		}
		ws.t.cols[rc.name].gather(rc.src, rows, 0, c)
	}
	sel := ws.sel[:c]
	for i := range sel {
		sel[i] = true
	}
	ws.root.run(ws.t, sel, 0, ws.or)
	return compactPairs(sel, ws.brows, ws.prows)
}

// compactPairs moves the selected pairs to the front, in order, and
// returns their number.
func compactPairs(sel []bool, brows, prows []int) int {
	n := 0
	for i, ok := range sel {
		if ok {
			brows[n], prows[n] = brows[i], prows[i]
			n++
		}
	}
	return n
}
