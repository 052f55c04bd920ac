package driver

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/opt/promote"
	"regpromo/internal/par"
)

// readSet is a set of Config fields a pass body reads (see pass.reads).
type readSet uint8

const (
	readPointerPromote readSet = 1 << iota
	readSkipUnwrittenStores
	readThrottle
	readK

	allReads = readPointerPromote | readSkipUnwrittenStores | readThrottle | readK
)

// nodeKey identifies one pass run in a matrix trie: the pass name and
// the values of the Config fields the pass declares it reads, the
// others left zero. Two configurations whose pass lists reach a pass
// along the same path of keys run it once between them.
type nodeKey struct {
	name                                string
	pointerPromote, skipUnwrittenStores bool
	throttle, k                         int
}

// keyOf builds p's trie key under cfg from the declared fields that
// keep retains (allReads outside tests).
func keyOf(p pass, cfg Config, keep readSet) nodeKey {
	r := p.reads & keep
	k := nodeKey{name: p.name}
	if r&readPointerPromote != 0 {
		k.pointerPromote = cfg.PointerPromote
	}
	if r&readSkipUnwrittenStores != 0 {
		k.skipUnwrittenStores = cfg.SkipUnwrittenStores
	}
	if r&readThrottle != 0 {
		k.throttle = cfg.Throttle
	}
	if r&readK != 0 {
		k.k = cfg.K
	}
	return k
}

// ambientKey holds the Config fields every pass may read or that
// shape the run itself rather than one pass: configurations share a
// trie only when these agree.
type ambientKey struct {
	workers     int
	check       CheckLevel
	checkPasses string
	cache       *cache.Store
}

func ambientOf(cfg Config) ambientKey {
	return ambientKey{
		workers: cfg.Workers,
		check:   cfg.Check,
		// Lint pass names never contain a NUL.
		checkPasses: strings.Join(cfg.CheckPasses, "\x00"),
		cache:       cfg.AnalysisCache,
	}
}

// node is one pass run of a matrix trie. The root node has no pass: it
// stands for the stage that produces the starting module.
type node struct {
	key nodeKey
	// pass is the body of the first configuration that reached the
	// node; by the key, every other one would run the same.
	pass pass
	// cfgs lists the configurations whose pass list runs through the
	// node, and ends those whose list ends with it.
	cfgs, ends []int
	children   []*node
}

// child returns n's child under key k, adding one that runs p.
func (n *node) child(p pass, k nodeKey) *node {
	for _, c := range n.children {
		if c.key == k {
			return c
		}
	}
	c := &node{key: k, pass: p}
	n.children = append(n.children, c)
	return c
}

// MatrixError reports the configurations of a CompileMatrix call that
// did not compile. Errs is indexed like the configurations, nil for
// each one that compiled.
type MatrixError struct {
	Errs []error
}

func (e *MatrixError) Error() string {
	var parts []string
	for i, err := range e.Errs {
		if err != nil {
			parts = append(parts, fmt.Sprintf("config %d: %v", i, err))
		}
	}
	return strings.Join(parts, "; ")
}

// Unwrap returns the configurations' errors, for errors.Is and
// errors.As.
func (e *MatrixError) Unwrap() []error {
	var out []error
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// matrixError folds per-configuration errors into a *MatrixError, or
// nil when every configuration compiled.
func matrixError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &MatrixError{Errs: errs}
		}
	}
	return nil
}

// matrix is one compileMatrix call's run state. Branches of a trie
// run concurrently, each writing only the out and errs entries of the
// configurations below it.
type matrix struct {
	cfgs []Config
	out  []*Compilation
	errs []error
	// fe counts the modules forked at the trie's branches among its
	// clones; nil for a compile from source.
	fe *Frontend
	// lanes is the first trace tid no pipeline state has claimed (see
	// pipeState.lane).
	lanes atomic.Int64
}

// compileMatrix is the pipeline runner behind Compile,
// Frontend.Compile and Frontend.CompileMatrix. The configurations'
// pass lists form a trie per ambientKey; root produces each trie's
// starting module (and records the stage that made it), then each
// trie node runs once over the module every configuration below it
// shares. At a node where the configurations part ways, every branch
// but the last gets a clone of the module and a copy of the pipeline
// state, and the last takes them over; the branches then run
// concurrently, up to Config.Workers at once. keep narrows the
// declared per-pass key fields; it is allReads except in tests.
//
// The results are indexed like cfgs: each configuration gets its own
// Compilation or its error. An error at a shared node is the error of
// every configuration below it.
func compileMatrix(cfgs []Config, tr *obs.Tracer, keep readSet, fe *Frontend, first string, root func(*pipeState) error) ([]*Compilation, []error) {
	mx := &matrix{cfgs: cfgs, out: make([]*Compilation, len(cfgs)), errs: make([]error, len(cfgs)), fe: fe}
	var live []int
	for i, cfg := range cfgs {
		if err := checkDump(tr, first, cfg); err != nil {
			mx.errs[i] = err
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return mx.out, mx.errs
	}
	sp := tr.Start("compile", "compile", 0)
	tr.NameThread(0, "main")
	var lookups, hits int64
	for _, t := range mx.tries(live, keep) {
		cfg := cfgs[t.cfgs[0]]
		width := cfg.Workers
		if width <= 0 {
			width = par.DefaultWorkers()
		}
		// The root state traces on tid 0 and its groups on tids
		// 1..width; branch lanes are claimed above them.
		mx.lanes.Store(int64(width) + 1)
		s := &pipeState{cfg: cfg, c: &Compilation{}, tr: tr, width: width}
		if len(t.cfgs) > 1 {
			s.memo = newFuncMemo()
		}
		err := root(s)
		if err == nil && s.cfg.Check == CheckEveryPass {
			// Lint the front end's output before any pass touches it.
			err = s.runChecks(PassFrontend, false)
		}
		if err != nil {
			mx.fail(t, err)
			continue
		}
		mx.descend(s, t)
		if s.memo != nil {
			lookups += s.memo.lookups.Load()
			hits += s.memo.hits.Load()
		}
	}
	sp.Arg("memo.lookups", lookups).Arg("memo.hits", hits).End()
	return mx.out, mx.errs
}

// tries builds one trie per ambientKey over the live configurations,
// in order of first appearance.
func (mx *matrix) tries(live []int, keep readSet) []*node {
	var roots []*node
	byAmbient := map[ambientKey]*node{}
	for _, i := range live {
		cfg := mx.cfgs[i]
		a := ambientOf(cfg)
		n := byAmbient[a]
		if n == nil {
			n = &node{}
			byAmbient[a] = n
			roots = append(roots, n)
		}
		n.cfgs = append(n.cfgs, i)
		for _, p := range cfg.passes() {
			n = n.child(p, keyOf(p, cfg, keep))
			n.cfgs = append(n.cfgs, i)
		}
		n.ends = append(n.ends, i)
	}
	return roots
}

// fail records err for every configuration below n.
func (mx *matrix) fail(n *node, err error) {
	for _, i := range n.cfgs {
		mx.errs[i] = err
	}
}

// descend continues below n, whose pass has just run over s: the last
// branch takes s over, every other branch a fork of it. Every fork is
// made before any branch runs, since the last one mutates s; the
// branches then run through par, up to s.width at once. Branches on
// par's worker 0 keep s's trace lanes (the caller waits while they
// run, so its lanes are idle); each other worker claims a block of
// width+1 fresh lanes the first time it takes a branch.
func (mx *matrix) descend(s *pipeState, n *node) {
	nb := len(n.ends) + len(n.children)
	branch := func(t *pipeState, b int) {
		if b < len(n.ends) {
			mx.finish(t, n.ends[b])
		} else {
			mx.run(t, n.children[b-len(n.ends)])
		}
	}
	if nb == 1 {
		branch(s, 0)
		return
	}
	states := make([]*pipeState, nb)
	for b := range nb - 1 {
		states[b] = mx.fork(s)
	}
	states[nb-1] = s
	lanes := make([]int, s.width)
	block := s.width + 1
	par.ParallelMapWorker(nb, s.width, func(worker, b int) (struct{}, error) {
		t := states[b]
		if worker > 0 {
			if lanes[worker] == 0 {
				lanes[worker] = int(mx.lanes.Add(int64(block))) - block
				s.tr.NameThread(lanes[worker], "branch")
			}
			t.lane = lanes[worker]
		}
		branch(t, b)
		return struct{}{}, nil
	})
}

// run executes n's pass over s and descends. A per-function pass
// extends into a group (see runGroup) through every following
// per-function pass up to the next branch: a branch ends the group,
// and each child starts its own. A per-pass check or an IL dump needs
// the whole module at every pass boundary, so either makes each
// per-function pass its own group: the module then advances pass by
// pass, as a pass-major walk.
func (mx *matrix) run(s *pipeState, n *node) {
	var err error
	if n.pass.fn != nil {
		group := []*node{n}
		for !s.split() && len(n.ends) == 0 && len(n.children) == 1 && n.children[0].pass.fn != nil {
			n = n.children[0]
			group = append(group, n)
		}
		err = runGroup(s, group, s.segment(group))
	} else {
		err = s.runBarrier(n.pass)
		if n.pass.name == PassModRef {
			s.analysisDone = true
		}
	}
	if err == nil && s.cfg.Check == CheckEveryPass {
		err = s.runChecks(n.pass.name, s.analysisDone)
	}
	if err != nil {
		mx.fail(n, err)
		return
	}
	mx.descend(s, n)
}

// split reports whether every per-function pass runs as its own group.
func (s *pipeState) split() bool {
	return s.cfg.Check == CheckEveryPass || (s.tr != nil && s.tr.DumpPass != "")
}

// finish hands configuration i the pipeline s ran for it, after the
// module-level lint when the configuration asks for one.
func (mx *matrix) finish(s *pipeState, i int) {
	if s.cfg.Check == CheckModule {
		if err := s.runChecks("module", true); err != nil {
			mx.errs[i] = err
			return
		}
	}
	mx.out[i] = s.c
}

// fork copies s for one branch of a trie: a clone of the module, the
// compilation's statistics and pass records so far (a shared pass
// stays one record), the promotion regions moved onto the clone's
// blocks, and the call graph, which only the analysis passes read and
// which names functions rather than pointing into the module.
func (mx *matrix) fork(s *pipeState) *pipeState {
	if mx.fe != nil {
		mx.fe.clones.Add(1)
	}
	from := s.c
	c := &Compilation{
		Module:         from.Module.Clone(),
		Promote:        from.Promote,
		Alloc:          from.Alloc,
		Analysis:       from.Analysis,
		Passes:         slices.Clone(from.Passes),
		finalKeys:      slices.Clone(from.finalKeys),
		pressureByFunc: maps.Clone(from.pressureByFunc),
	}
	c.Promote.Regions = remapRegions(from.Promote.Regions, from.Module, c.Module)
	return &pipeState{cfg: s.cfg, c: c, cg: s.cg, tr: s.tr, width: s.width, lane: s.lane, analysisDone: s.analysisDone, memo: s.memo}
}

// remapRegions copies regions recorded on module from onto its clone
// to. A block pointer still in its function becomes the clone's block
// at the same position; a stale one (a block a later pass removed)
// stays as it is, and is just as absent from the clone.
func remapRegions(regions []promote.Region, from, to *ir.Module) []promote.Region {
	if regions == nil {
		return nil
	}
	out := make([]promote.Region, len(regions))
	for i, r := range regions {
		of, nf := from.Funcs[r.Func], to.Funcs[r.Func]
		block := func(b *ir.Block) *ir.Block {
			if j := of.BlockIndex(b); j >= 0 {
				return nf.Blocks[j]
			}
			return b
		}
		blocks := func(bs []*ir.Block) []*ir.Block {
			if bs == nil {
				return nil
			}
			out := make([]*ir.Block, len(bs))
			for j, b := range bs {
				out[j] = block(b)
			}
			return out
		}
		r.Body = blocks(r.Body)
		r.Exits = blocks(r.Exits)
		r.Pad = block(r.Pad)
		out[i] = r
	}
	return out
}
