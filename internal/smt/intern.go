package smt

import "sync"

// Hash-consing interner: structurally equal terms and formulas are folded
// onto one canonical, frozen node, process-wide. Canonical nodes cache
// their display rendering (and, for atoms, the canonical key of their
// complement), so the string-keyed dedup tables in the eliminators and
// simplifier pay for a rendering once per distinct value instead of once
// per occurrence, and Term.Equal degenerates to a pointer comparison in
// the hot loops.
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
	forms map[string]Formula // connectives
	n     int
}

var internTable [internShards]internShard

// shardFor picks the shard for key (FNV-1a).
func shardFor(key string) *internShard {
	var h uint64 = fnvOffset
	// cancel: bounded by the key length; rendering already paid more.
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return &internTable[h%internShards]
}

// room makes space for one more entry, resetting the shard at the cap.
// Caller holds sh.mu.
// alloc: fresh maps on a shard reset; bounds the interner's footprint.
func (sh *internShard) room() {
	if sh.n < internShardCap {
		sh.n++
		return
	}
	sh.terms = make(map[string]*Term)
	sh.atoms = make(map[string]*Atom)
	sh.divs = make(map[string]*Div)
	sh.forms = make(map[string]Formula)
	sh.n = 1
	mInternResets.Inc()
}

// appendFormulaKey appends f's interner key to b: an unambiguous,
// sort-qualified encoding of the tree. Frozen nodes contribute their
// cached key.
// alloc: key rendering grows the caller's buffer; paid once per interned
// node, then served from the cached key.
func appendFormulaKey(b []byte, f Formula) []byte {
	switch x := f.(type) {
	case Bool:
		if x {
			return append(b, 'T')
		}
		return append(b, 'F')
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
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, '&', '(')
		// cancel: bounded by the child count of one connective node.
		for _, g := range x.Fs {
			b = appendFormulaKey(b, g)
			b = append(b, ',')
		}
		return append(b, ')')
	case *Or:
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, 'o', '(')
		// cancel: bounded by the child count of one connective node.
		for _, g := range x.Fs {
			b = appendFormulaKey(b, g)
			b = append(b, ',')
		}
		return append(b, ')')
	case *Not:
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, 'N', '(')
		b = appendFormulaKey(b, x.F)
		return append(b, ')')
	case *Exists:
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, 'E')
		b = append(b, x.V.Name...)
		b = append(b, '\x00', byte(x.V.Sort), '(')
		b = appendFormulaKey(b, x.F)
		return append(b, ')')
	case *ForAll:
		if x.frozen {
			return append(b, x.key...)
		}
		b = append(b, 'A')
		b = append(b, x.V.Name...)
		b = append(b, '\x00', byte(x.V.Sort), '(')
		b = appendFormulaKey(b, x.F)
		return append(b, ')')
	default:
		// Unknown node types never reach the interner; render defensively.
		return append(b, f.String()...)
	}
}

// formulaKey returns f's interner key as a string.
// alloc: key rendering; frozen inputs return their cached key.
func formulaKey(f Formula) string {
	switch x := f.(type) {
	case *Atom:
		if x.frozen {
			return x.key
		}
	case *Div:
		if x.frozen {
			return x.key
		}
	case *And:
		if x.frozen {
			return x.key
		}
	case *Or:
		if x.frozen {
			return x.key
		}
	case *Not:
		if x.frozen {
			return x.key
		}
	case *Exists:
		if x.frozen {
			return x.key
		}
	case *ForAll:
		if x.frozen {
			return x.key
		}
	default:
		// Bool (and any unknown node) has no cached key; render below.
	}
	return string(appendFormulaKey(nil, f))
}

// InternTerm returns the canonical shared term equal to t. When t itself
// becomes canonical it is frozen in place — the caller gives up the right
// to mutate it (mutators panic on frozen terms; Clone first).
// alloc: renders t's canonical key; cached on the canonical node.
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
		// alloc: lazy shard map initialization, once per shard generation
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
// alloc: renders the key and builds the canonical node on a miss.
func internAtom(a *Atom, canon bool) *Atom {
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
	n := &Atom{Op: a.Op, T: InternTerm(a.T), frozen: true, canon: canon, key: key,
		str: a.String(), negKey: computeNegAtomKey(a)}
	sh.mu.Lock()
	if c, ok := sh.atoms[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	if sh.atoms == nil {
		// alloc: lazy shard map initialization, once per shard generation
		sh.atoms = make(map[string]*Atom)
	}
	sh.room()
	sh.atoms[key] = n
	sh.mu.Unlock()
	mInternMisses.Inc()
	return n
}

// internDivNode returns the canonical shared divisibility atom equal to d.
// alloc: renders the key and builds the canonical node on a miss.
func internDivNode(d *Div, canon bool) *Div {
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
	n := &Div{Neg: d.Neg, M: d.M, T: InternTerm(d.T), frozen: true, canon: canon, key: key, str: d.String()}
	sh.mu.Lock()
	if c, ok := sh.divs[key]; ok {
		sh.mu.Unlock()
		mInternHits.Inc()
		return c
	}
	if sh.divs == nil {
		// alloc: lazy shard map initialization, once per shard generation
		sh.divs = make(map[string]*Div)
	}
	sh.room()
	sh.divs[key] = n
	sh.mu.Unlock()
	mInternMisses.Inc()
	return n
}

// internLeaf interns atom and divisibility leaves; every other formula
// passes through. This is the hook the simplifier's canonicalizers use:
// its inputs are Simplify fixed points, so the published nodes carry the
// canon mark and later Simplify passes return them unchanged.
func internLeaf(f Formula) Formula {
	switch x := f.(type) {
	case *Atom:
		return internAtom(x, true)
	case *Div:
		return internDivNode(x, true)
	default:
		return f
	}
}

// internForm dedups a connective node under its formula key. n must have
// interned children; publish stamps the frozen metadata right before the
// node becomes visible.
func internForm(key string, publish func() Formula) Formula {
	sh := shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok := sh.forms[key]; ok {
		mInternHits.Inc()
		return c
	}
	n := publish()
	if sh.forms == nil {
		// alloc: lazy shard map initialization, once per shard generation
		sh.forms = make(map[string]Formula)
	}
	sh.room()
	sh.forms[key] = n
	mInternMisses.Inc()
	return n
}

// Intern returns the canonical shared node structurally equal to f,
// interning the whole tree bottom-up. Two formulas a and b satisfy
// Intern(a) == Intern(b) exactly when FormulaEqual(a, b) — modulo shard
// resets, which can rotate the canonical pointer between the two calls.
// The result is frozen: its rendering is cached and its terms must be
// cloned before mutation. Callers hand over ownership of any non-interned
// nodes in f.
func Intern(f Formula) Formula {
	switch x := f.(type) {
	case Bool:
		return x
	case *Atom:
		return internAtom(x, false)
	case *Div:
		return internDivNode(x, false)
	case *And:
		if x.frozen {
			return x
		}
		n := &And{Fs: internChildren(x.Fs)}
		key := formulaKey(n)
		str := n.String()
		return internForm(key, func() Formula {
			n.key, n.str, n.frozen = key, str, true
			return n
		})
	case *Or:
		if x.frozen {
			return x
		}
		n := &Or{Fs: internChildren(x.Fs)}
		key := formulaKey(n)
		str := n.String()
		return internForm(key, func() Formula {
			n.key, n.str, n.frozen = key, str, true
			return n
		})
	case *Not:
		if x.frozen {
			return x
		}
		n := &Not{F: Intern(x.F)}
		key := formulaKey(n)
		str := n.String()
		return internForm(key, func() Formula {
			n.key, n.str, n.frozen = key, str, true
			return n
		})
	case *Exists:
		if x.frozen {
			return x
		}
		n := &Exists{V: x.V, F: Intern(x.F)}
		key := formulaKey(n)
		str := n.String()
		return internForm(key, func() Formula {
			n.key, n.str, n.frozen = key, str, true
			return n
		})
	case *ForAll:
		if x.frozen {
			return x
		}
		n := &ForAll{V: x.V, F: Intern(x.F)}
		key := formulaKey(n)
		str := n.String()
		return internForm(key, func() Formula {
			n.key, n.str, n.frozen = key, str, true
			return n
		})
	default:
		return f
	}
}

// internChildren interns a child list into a fresh slice.
func internChildren(fs []Formula) []Formula {
	// alloc: one slice per connective; children are shared canonical nodes
	out := make([]Formula, len(fs))
	// cancel: bounded by the child count of one connective node.
	for i, g := range fs {
		out[i] = Intern(g)
	}
	return out
}
