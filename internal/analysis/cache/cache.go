// Package cache is the content-addressed summary store behind
// incremental interprocedural analysis. A Store outlives any single
// compilation — the driver threads one through Config.AnalysisCache —
// and memoizes two kinds of analysis work:
//
//   - Per-SCC MOD/REF summaries, keyed by a hash of the component's
//     member bodies, the members' visible-tag sets, and the value
//     hashes of every callee component's summary. MOD/REF is
//     bottom-up compositional, so a component whose key is unchanged
//     has an unchanged summary and the fixpoint over it can be
//     skipped; editing one function re-solves only the components on
//     the dirty paths through the condensation: the edited one, its
//     callers' and, where the edit changes visible sets, its
//     callees'.
//
//   - The points-to narrowing for a whole module, keyed by a hash of
//     the module's pointer projection: every instruction the solver's
//     transfer functions understand, hashed structurally (no literal
//     operands — no pointer transfer reads them), plus the interface
//     data (parameters, initializers, addressed functions, the tag
//     table). Points-to is not compositional — argument facts flow
//     callers→callees while memory nodes are global — so the cache is
//     module-grained over the projection instead of per-SCC; because
//     the projection excludes literal operands and non-pointer
//     opcodes, any constant-only edit replays the cached narrowing
//     verbatim, skipping the solve.
//
// Every key is salted with a hash of the full tag table. Tag ids are
// dense allocation-order indices, so an edit that adds or removes a
// declaration shifts every later id; the salt turns that into a clean
// whole-store miss (cold but correct) while keeping id-stable edits
// warm. Cached tag sets are cloned on every hit so no compilation can
// alias another's bits.
package cache

import (
	"encoding/binary"
	"sync"

	"regpromo/internal/ir"
)

// Key is a 128-bit content hash. The store assumes no collisions, the
// standard content-addressing bet.
type Key [16]byte

// Hasher accumulates structured data into a Key: two independently
// seeded multiplicative lanes folded per 64-bit word, with the
// avalanche (splitmix64 finalization) deferred to Sum. A word-granular
// single-multiply mixer instead of a byte-granular standard hash
// matters here — warm runs hash every instruction in the module, so
// the hasher is the floor under warm re-analysis time. The
// construction is deterministic across processes (fixed seeds), which
// keeps cache behaviour reproducible for debugging. The zero value is
// not ready; use NewHasher.
type Hasher struct {
	a, b uint64
}

const (
	hashSeedA = 0x9E3779B97F4A7C15
	hashSeedB = 0xC2B2AE3D27D4EB4F
)

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on
// 64-bit words.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	return v
}

// NewHasher returns an empty hasher.
func NewHasher() *Hasher { return &Hasher{a: hashSeedA, b: hashSeedB} }

// word folds one 64-bit word into both lanes: xor-multiply in one,
// add-multiply in the other (both odd multipliers, so each step is a
// bijection of the lane state — no entropy is lost along the stream).
// One multiply per lane keeps the per-word cost minimal; the full
// avalanche is deferred to Sum. Multiplication makes the stream
// order-sensitive.
func (h *Hasher) word(v uint64) {
	h.a = (h.a ^ v) * 0x00000100000001B3 // FNV-64 prime
	h.b = (h.b + v) * hashSeedA
}

// Int folds one integer (any int-ish value widened to 64 bits).
func (h *Hasher) Int(v int64) *Hasher {
	h.word(uint64(v))
	return h
}

// Bytes folds a length-prefixed byte string, so concatenations cannot
// collide with shifted boundaries.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.word(uint64(len(b)))
	for len(b) >= 8 {
		h.word(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h.word(binary.LittleEndian.Uint64(tail[:]))
	}
	return h
}

// Str folds a length-prefixed string.
func (h *Hasher) Str(s string) *Hasher {
	h.word(uint64(len(s)))
	var tail [8]byte
	for len(s) >= 8 {
		copy(tail[:], s[:8])
		h.word(binary.LittleEndian.Uint64(tail[:]))
		s = s[8:]
	}
	if len(s) > 0 {
		tail = [8]byte{}
		copy(tail[:], s)
		h.word(binary.LittleEndian.Uint64(tail[:]))
	}
	return h
}

// Bool folds one bit.
func (h *Hasher) Bool(b bool) *Hasher {
	if b {
		return h.Int(1)
	}
	return h.Int(0)
}

// TagSet folds a tag set by value. The trimmed-words invariant makes
// the backing vector canonical, so folding the words hashes the set in
// O(tags/64) instead of O(tags).
func (h *Hasher) TagSet(s ir.TagSet) *Hasher {
	if s.IsTop() {
		return h.Int(-2)
	}
	w := s.Words()
	h.word(uint64(len(w)))
	for _, v := range w {
		h.word(v)
	}
	return h
}

// Key folds another key (for chaining callee summary hashes).
func (h *Hasher) Key(k Key) *Hasher {
	h.word(binary.LittleEndian.Uint64(k[:8]))
	h.word(binary.LittleEndian.Uint64(k[8:]))
	return h
}

// Sum finalizes the key, running the deferred avalanche over both
// lanes. The hasher stays usable (further writes extend the stream).
func (h *Hasher) Sum() Key {
	var k Key
	binary.LittleEndian.PutUint64(k[:8], mix64(mix64(h.a+hashSeedB)^h.b))
	binary.LittleEndian.PutUint64(k[8:], mix64(h.b^h.a))
	return k
}

// ModuleSalt hashes everything module-global the analyses read beside
// function bodies: the full tag table (ids, kinds, owners, sizes, and
// the AddrTaken/Strong/Recursive bits), the static initializers with
// their relocations, and the addressed-function list. Compute it
// after modref's demoteRecursiveLocals step so the Strong bits are in
// their analysis-time state.
func ModuleSalt(m *ir.Module) Key {
	h := NewHasher()
	h.Int(int64(m.Tags.Len()))
	for _, t := range m.Tags.All() {
		h.Int(int64(t.ID)).Str(t.Name).Int(int64(t.Kind)).Str(t.Func)
		h.Int(int64(t.Size)).Int(int64(t.Elem))
		h.Bool(t.AddrTaken).Bool(t.Strong).Bool(t.Recursive)
	}
	h.Int(int64(len(m.Inits)))
	for _, init := range m.Inits {
		h.Int(int64(init.Tag)).Bytes(init.Data)
		h.Int(int64(len(init.Relocs)))
		for _, rel := range init.Relocs {
			h.Int(int64(rel.Offset)).Int(int64(rel.Target)).Int(rel.Addend)
		}
	}
	h.Int(int64(len(m.AddressedFuncs)))
	for _, f := range m.AddressedFuncs {
		h.Str(f)
	}
	return h.Sum()
}

// HashInstr folds one instruction's analysis-relevant content: every
// semantic field except Mods and Refs, which are MOD/REF's own
// outputs (reinstalled on every run and never read by the analyses).
// Targets is included — it is points-to output, but it is MOD/REF
// *input* on the repeated run over the narrowed module.
func HashInstr(h *Hasher, in *ir.Instr) {
	h.Int(int64(in.Op)).Int(int64(in.Dst)).Int(int64(in.A)).Int(int64(in.B))
	h.Int(in.Imm)
	h.Int(int64(in.Tag)).TagSet(in.Tags()).Int(int64(in.Size))
	h.Str(in.Callee())
	args := in.Args()
	h.Int(int64(len(args)))
	for _, a := range args {
		h.Int(int64(a))
	}
	h.Int(int64(in.Site())).Bool(in.HasValue).Bool(in.Synth)
	if targets := in.Targets(); targets != nil {
		h.Int(int64(len(targets)))
		for _, t := range targets {
			h.Str(t)
		}
	} else {
		h.Int(-1)
	}
}

// FuncBodyHash hashes a function's interface and full instruction
// stream (per HashInstr). Block structure is folded as boundaries
// only: both analyses are flow-insensitive, but keeping the grouping
// in the stream is cheap and rules out degenerate collisions between
// differently-blocked bodies.
func FuncBodyHash(fn *ir.Func) Key {
	h := NewHasher()
	h.Str(fn.Name)
	h.Int(int64(len(fn.Params)))
	for _, p := range fn.Params {
		h.Int(int64(p))
	}
	h.Int(int64(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		h.Int(int64(len(b.Instrs)))
		for i := range b.Instrs {
			HashInstr(h, &b.Instrs[i])
		}
	}
	return h.Sum()
}

// HashInstrStructural folds the subset of an instruction the points-to
// solver reads: opcode, registers, tags, callee/argument linkage, and
// positions — everything in HashInstr except the Imm literal operand
// (LoadI's and LoadF's constant), which no pointer transfer function
// inspects (tag sets name symbols; offsets into an object never leave
// it). Keying the projection on this hash is what lets a
// constant-only edit replay the cached narrowing.
func HashInstrStructural(h *Hasher, in *ir.Instr) {
	h.Int(int64(in.Op)).Int(int64(in.Dst)).Int(int64(in.A)).Int(int64(in.B))
	h.Int(int64(in.Tag)).TagSet(in.Tags()).Int(int64(in.Size))
	h.Str(in.Callee())
	args := in.Args()
	h.Int(int64(len(args)))
	for _, a := range args {
		h.Int(int64(a))
	}
	h.Int(int64(in.Site())).Bool(in.HasValue)
	if targets := in.Targets(); targets != nil {
		h.Int(int64(len(targets)))
		for _, t := range targets {
			h.Str(t)
		}
	} else {
		h.Int(-1)
	}
}

// SolverOp reports whether the points-to transfer functions
// understand the opcode. Instructions outside this set contribute
// nothing to any pointer fact, so the projection hash skips them — but
// their positions still shift the (block, index) coordinates of later
// relevant instructions, which the per-instruction position words in
// the projection capture.
func SolverOp(op ir.Op) bool {
	switch op {
	case ir.OpAddrOf, ir.OpCopy, ir.OpAdd, ir.OpSub, ir.OpSLoad, ir.OpCLoad,
		ir.OpSStore, ir.OpPLoad, ir.OpPStore, ir.OpJsr, ir.OpRet:
		return true
	}
	return false
}

// FuncProjectionHash hashes one function's points-to projection: its
// interface plus every solver-understood instruction, structurally
// (HashInstrStructural), with its (block, index) position. Module-level
// keys chain these per-function keys through the callgraph
// condensation.
func FuncProjectionHash(fn *ir.Func) Key {
	h := NewHasher()
	h.Str(fn.Name)
	h.Int(int64(len(fn.Params)))
	for _, p := range fn.Params {
		h.Int(int64(p))
	}
	for bi, b := range fn.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if !SolverOp(in.Op) {
				continue
			}
			h.Int(int64(bi)).Int(int64(ii))
			HashInstrStructural(h, in)
		}
	}
	return h.Sum()
}

// ModRefSummary is one component's cached MOD/REF summary: the shared
// member sets plus a value hash for chaining into caller keys.
type ModRefSummary struct {
	Mod, Ref ir.TagSet
	// Value hashes the summary's content; callers fold it into their
	// own keys, so a hit certifies the whole callee subtree unchanged.
	Value Key
}

// SummaryValue hashes a computed summary pair into its chaining key.
func SummaryValue(mod, ref ir.TagSet) Key {
	return NewHasher().TagSet(mod).TagSet(ref).Sum()
}

// PointsToEntry is the cached effect of one points-to run: everything
// narrow() writes into the IL, recorded positionally, plus the
// solver's deterministic step count for telemetry parity.
type PointsToEntry struct {
	Funcs []FuncNarrowing
	Steps int
}

// FuncNarrowing is the narrowing replay for one function, in module
// function order.
type FuncNarrowing struct {
	Name string
	Ops  []NarrowOp
}

// NarrowOp is one rewritten instruction: the final pointer-op tag set
// or the final indirect-call target list at (Block, Index).
type NarrowOp struct {
	Block, Index int
	Tags         ir.TagSet
	Targets      []string
}

// Store is the process-lifetime cache. All methods are safe for
// concurrent use; cached sets are cloned on the way out.
type Store struct {
	mu     sync.Mutex
	modref map[Key]ModRefSummary
	pts    map[Key]*PointsToEntry
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		modref: make(map[Key]ModRefSummary),
		pts:    make(map[Key]*PointsToEntry),
	}
}

// ModRef looks up a component summary. The returned sets are clones;
// callers may install them directly.
func (s *Store) ModRef(key Key) (ModRefSummary, bool) {
	if s == nil {
		return ModRefSummary{}, false
	}
	s.mu.Lock()
	e, ok := s.modref[key]
	s.mu.Unlock()
	if !ok {
		return ModRefSummary{}, false
	}
	return ModRefSummary{Mod: e.Mod.Clone(), Ref: e.Ref.Clone(), Value: e.Value}, true
}

// PutModRef records a freshly solved component summary. The store
// keeps its own clones.
func (s *Store) PutModRef(key Key, mod, ref ir.TagSet, value Key) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.modref[key]; !ok {
		s.modref[key] = ModRefSummary{Mod: mod.Clone(), Ref: ref.Clone(), Value: value}
	}
	s.mu.Unlock()
}

// PointsTo looks up a whole-module narrowing by projection key.
func (s *Store) PointsTo(key Key) (*PointsToEntry, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.pts[key]
	s.mu.Unlock()
	return e, ok
}

// PutPointsTo records a solved module's narrowing. Entries are
// immutable once stored; the caller must not retain mutable aliases
// of the contained sets.
func (s *Store) PutPointsTo(key Key, e *PointsToEntry) {
	if s == nil || e == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.pts[key]; !ok {
		s.pts[key] = e
	}
	s.mu.Unlock()
}

// Len reports how many entries of each kind the store holds (for
// tests and diagnostics).
func (s *Store) Len() (modref, pointsto int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.modref), len(s.pts)
}
