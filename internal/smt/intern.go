package smt

import (
	"fmt"
	"sync"
)

// Hash-consing interner: structurally equal terms and leaves (atoms and
// divisibility constraints) are folded onto one canonical, frozen node,
// process-wide. Canonical nodes cache their display rendering (and, for
// atoms, the canonical key of their complement), so the string-keyed dedup
// tables in the eliminators and simplifier pay for a rendering once per
// distinct value instead of once per occurrence, and Term.Equal
// degenerates to a pointer comparison in the hot loops. Connectives are
// not interned.
//
// Intern-table keys are NOT display strings: String() drops variable
// sorts, so an integer term and an identically named real term render the
// same. The tables key on a sort-qualified encoding (appendKey /
// appendFormulaKey) instead.
//
// The tables are sharded by key hash and bounded: a shard that exceeds
// internShardCap entries is reset wholesale (sia_smt_intern_resets_total).
// Canonical pointers already handed out stay valid — frozen nodes carry
// their cached strings — they just stop being dedup targets, so a reset
// can rotate which pointer is canonical for a value. Exact string keys
// (never pointer identity) are therefore the only safe cross-reset dedup
// key, which is what every caller uses.
//
// Interning claims ownership: a frozen Term panics on in-place mutation,
// enforcing the clone-then-mutate discipline the solver already follows.

const (
	internShards   = 32
	internShardCap = 1 << 13 // entries per shard before a wholesale reset
)

type internShard struct {
	mu    sync.Mutex
	terms map[string]*Term
	atoms map[string]*Atom
	divs  map[string]*Div
	n     int
}

var internTable [internShards]internShard

// shardFor picks the shard for key (FNV-1a).
func shardFor(key string) *internShard {
	var h uint64 = fnvOffset
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return &internTable[h%internShards]
}

// room makes space for one more entry, resetting the shard at the cap.
// Caller holds sh.mu.
func (sh *internShard) room() {
	if sh.n < internShardCap {
		sh.n++
		return
	}
	sh.terms = make(map[string]*Term)
	sh.atoms = make(map[string]*Atom)
	sh.divs = make(map[string]*Div)
	sh.n = 1
	mInternResets.Inc()
}

// appendFormulaKey appends f's key to b: an unambiguous, sort-qualified
// encoding of the tree. Its inputs are the leaves the interner publishes
// and the simplified NNF And/Or trees qeMemoKey renders; frozen leaves
// contribute their cached key.
func appendFormulaKey(b []byte, f Formula) []byte {
	switch x := f.(type) {
	case *Atom:
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, 'a', byte('0'+int(x.Op)))
		return x.T.appendKey(b)
	case *Div:
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, 'd')
		if x.Neg {
			b = append(b, '!')
		}
		b = append(b, x.M.String()...)
		b = append(b, '|')
		return x.T.appendKey(b)
	case *And:
		b = append(b, '&', '(')
		for _, g := range x.Fs {
			b = appendFormulaKey(b, g)
			b = append(b, ',')
		}
		return append(b, ')')
	case *Or:
		b = append(b, 'o', '(')
		for _, g := range x.Fs {
			b = appendFormulaKey(b, g)
			b = append(b, ',')
		}
		return append(b, ')')
	default:
		panic(fmt.Sprintf("smt: unknown formula %T", f))
	}
}

// InternTerm returns the canonical shared term equal to t. When t itself
// becomes canonical it is frozen in place — the caller gives up the right
// to mutate it (mutators panic on frozen terms; Clone first).
// The interner is an idempotent cache: one key always maps to one
// canonical node for a shard generation, and the freeze happens before the
// node is published.
func InternTerm(t *Term) *Term {
	if t.frozen {
		return t
	}
	key := string(t.appendKey(nil))
	sh := shardFor(key)
	sh.mu.Lock()
	if c, ok := sh.terms[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	sh.mu.Unlock()
	// Freeze outside the lock: the display rendering is only needed on a
	// miss, and publishing happens under a fresh lookup below.
	t.key = key
	t.str = string(t.appendString(nil))
	t.frozen = true
	sh.mu.Lock()
	if c, ok := sh.terms[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	if sh.terms == nil {
		sh.terms = make(map[string]*Term)
	}
	sh.room()
	sh.terms[key] = t
	sh.mu.Unlock()
	mInternMisses.Inc()
	return t
}

// internAtom returns the canonical shared atom equal to a, with the
// rendering and complement key cached on it.
func internAtom(a *Atom) *Atom {
	if a.frozen {
		return a
	}
	key := string(appendFormulaKey(nil, a))
	sh := shardFor(key)
	sh.mu.Lock()
	if c, ok := sh.atoms[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	sh.mu.Unlock()
	// Miss: build the canonical node outside the shard lock — both the
	// complement-key computation and InternTerm may take (this) shard's
	// lock themselves.
	n := &Atom{Op: a.Op, T: InternTerm(a.T), frozen: true, key: key,
		str: a.String(), negKey: computeNegAtomKey(a)}
	sh.mu.Lock()
	if c, ok := sh.atoms[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	if sh.atoms == nil {
		sh.atoms = make(map[string]*Atom)
	}
	sh.room()
	sh.atoms[key] = n
	sh.mu.Unlock()
	mInternMisses.Inc()
	return n
}

// internDivNode returns the canonical shared divisibility atom equal to d.
func internDivNode(d *Div) *Div {
	if d.frozen {
		return d
	}
	key := string(appendFormulaKey(nil, d))
	sh := shardFor(key)
	sh.mu.Lock()
	if c, ok := sh.divs[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	sh.mu.Unlock()
	n := &Div{Neg: d.Neg, M: d.M, T: InternTerm(d.T), frozen: true, key: key, str: d.String()}
	sh.mu.Lock()
	if c, ok := sh.divs[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	if sh.divs == nil {
		sh.divs = make(map[string]*Div)
	}
	sh.room()
	sh.divs[key] = n
	sh.mu.Unlock()
	mInternMisses.Inc()
	return n
}

// internLeaf interns atom and divisibility leaves; every other formula
// passes through. It is the interner's one formula entry point, called
// only by the simplifier's canonicalizers: their outputs are Simplify
// fixed points, so every frozen leaf is one and Simplify returns it
// unchanged.
func internLeaf(f Formula) Formula {
	switch x := f.(type) {
	case *Atom:
		return internAtom(x)
	case *Div:
		return internDivNode(x)
	default:
		return f
	}
}
