package driver

import (
	"slices"
	"sync"
	"sync/atomic"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/ir"
	"regpromo/internal/regalloc"
)

// funcMemo runs the final local segment of a matrix trie's pass lists
// once per distinct function. Configurations that part ways at
// promotion often hand the segment byte-identical functions (promotion
// found nothing to do in them); the first function to reach the
// segment with a given key runs it, and every later one copies the
// result. One memo serves one trie, shared by all its branches, and
// lives for one compileMatrix call.
//
// Entries are singleflight: a function whose key is being run waits
// for that run instead of repeating it, so which functions hit does
// not depend on the schedule. A goroutine holds at most one pending
// entry (the one it is running) and never waits while it holds it, so
// the waits cannot deadlock.
type funcMemo struct {
	mu            sync.Mutex
	entries       map[cache.Key]*memoEntry
	lookups, hits atomic.Int64
}

func newFuncMemo() *funcMemo {
	return &funcMemo{entries: make(map[cache.Key]*memoEntry)}
}

// memoEntry is one segment run: its output function and what else the
// run left behind.
type memoEntry struct {
	// ready is released once the owner has filled the entry.
	ready sync.WaitGroup
	// ok is set when the run succeeded; a failed entry is never
	// replayed, and its waiters run the segment themselves.
	ok bool
	// fn is the segment's output. It is the owner's own function,
	// which nothing writes after the final segment, unless the run
	// staged spill tags: then it is a copy taken before the owner's
	// commit renumbers them.
	fn *ir.Func
	// pos holds, for each input block position, the position its
	// Block value took in fn, or -1 when the segment removed it.
	pos []int
	// tags are the spill tags the run staged, in staging order.
	tags  []ir.Tag
	alloc regalloc.Stats
	// stages are the per-pass censuses and extras of a traced run,
	// durations zeroed.
	stages []funcStage
}

// lookup returns key's entry and whether the caller owns it, that is,
// must run the segment and release the entry. Otherwise the entry is
// complete.
func (m *funcMemo) lookup(key cache.Key) (e *memoEntry, own bool) {
	m.lookups.Add(1)
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &memoEntry{}
		e.ready.Add(1)
		m.entries[key] = e
	}
	m.mu.Unlock()
	if !found {
		return e, true
	}
	e.ready.Wait()
	if e.ok {
		m.hits.Add(1)
	}
	return e, false
}

// store fills the entry from the owner's finished run: fn is the
// output, in its blocks before the segment ran, r the function's run
// state and stages its traced records of the segment (nil untraced).
func (e *memoEntry) store(fn *ir.Func, in []*ir.Block, r *funcRun, stages []funcStage) {
	e.fn = fn
	if !r.tags.Empty() {
		e.fn = fn.Clone()
		e.tags = r.tags.Snapshot()
	}
	e.pos = make([]int, len(in))
	for i, b := range in {
		e.pos[i] = fn.BlockIndex(b)
	}
	e.alloc = r.alloc
	if stages != nil {
		e.stages = slices.Clone(stages)
		for i := range e.stages {
			e.stages[i].durNS = 0
		}
	}
	e.ok = true
}

// apply makes fn, whose key matched the entry's, what the segment
// would have made it: a copy of the output laid onto fn's own Block
// values at the positions the run moved them to, so promotion regions
// that point at them see what an unmemoized run leaves. The staged
// tags and statistics go into r as the run would have put them.
func (e *memoEntry) apply(fn *ir.Func, r *funcRun) {
	reuse := make([]*ir.Block, len(e.fn.Blocks))
	for i, b := range fn.Blocks {
		if p := e.pos[i]; p >= 0 {
			reuse[p] = b
		}
	}
	e.fn.CloneOnto(fn, reuse)
	r.tags.Replay(e.tags)
	r.alloc.Add(e.alloc)
}

// segment is the tail of a group that runGroup sends through the
// memo: the passes from index from on, all local, with nothing but
// barriers after them in any configuration. seed holds their trie
// keys, which every function's key extends.
type segment struct {
	from int
	seed cache.Hasher
}

// segment returns the memoized tail of group, or nil when the state
// has no memo or the group is not the last per-function work of its
// configurations.
func (s *pipeState) segment(group []*node) *segment {
	if s.memo == nil || !group[len(group)-1].lastLocal() {
		return nil
	}
	from := len(group)
	for from > 0 && group[from-1].pass.local {
		from--
	}
	if from == len(group) {
		return nil
	}
	h := cache.NewHasher()
	for _, n := range group[from:] {
		k := n.key
		h.Str(k.name).Bool(k.pointerPromote).Bool(k.skipUnwrittenStores).Int(int64(k.throttle)).Int(int64(k.k))
	}
	return &segment{from: from, seed: *h}
}

// lastLocal reports whether no per-function pass follows n in any
// configuration below it.
func (n *node) lastLocal() bool {
	for _, c := range n.children {
		if c.pass.fn != nil || !c.lastLocal() {
			return false
		}
	}
	return true
}

// hashFunc folds everything of fn that a local pass reads or that the
// IL shows: the function's interface and frame, each block's id,
// label and edges (as positions, in order), and every instruction
// with its side record, MOD/REF sets included. Block.mark, a
// reachability walk's scratch stamp, is the one field left out.
func hashFunc(h *cache.Hasher, fn *ir.Func) {
	h.Str(fn.Name)
	h.Int(int64(len(fn.Params)))
	for _, p := range fn.Params {
		h.Int(int64(p))
	}
	h.Int(int64(fn.NumRegs))
	h.Int(int64(len(fn.Locals)))
	for _, t := range fn.Locals {
		h.Int(int64(t))
	}
	h.Bool(fn.HasVarRet).Bool(fn.Allocated)
	h.Int(int64(fn.BlockIndex(fn.Entry)))
	h.Int(int64(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		h.Int(int64(b.ID)).Str(b.Label)
		h.Int(int64(len(b.Succs)))
		for _, t := range b.Succs {
			h.Int(int64(fn.BlockIndex(t)))
		}
		h.Int(int64(len(b.Preds)))
		for _, p := range b.Preds {
			h.Int(int64(fn.BlockIndex(p)))
		}
		h.Int(int64(len(b.Instrs)))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			cache.HashInstr(h, in)
			h.TagSet(in.Mods()).TagSet(in.Refs())
		}
	}
}

// ContentKey returns a 128-bit key of the compiled module's content:
// compilations with equal keys hold modules that print the same IL
// over the same tag table, and so behave the same on every engine. It
// folds the module-global data (cache.ModuleSalt: the tag table, the
// initializers, the addressed functions) with one key per function in
// order. A function that went through a matrix's memoized final
// segment contributes that segment's key: its input and the segment's
// passes, which fix the output (spill tags are renumbered at commit
// from the table length before it, and the salted final table fixes
// that length). Any other function is hashed as it stands.
func (c *Compilation) ContentKey() cache.Key {
	h := cache.NewHasher()
	h.Key(cache.ModuleSalt(c.Module))
	h.Int(int64(len(c.Module.FuncOrder)))
	for i, name := range c.Module.FuncOrder {
		if i < len(c.finalKeys) && c.finalKeys[i] != (cache.Key{}) {
			h.Int(1).Key(c.finalKeys[i])
			continue
		}
		h.Int(0)
		hashFunc(h, c.Module.Funcs[name])
	}
	return h.Sum()
}
