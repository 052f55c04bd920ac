package interp

import (
	"fmt"

	"regpromo/internal/ir"
)

// sanitizer is the dynamic half of the correctness subsystem: with
// Options.Sanitize set, both engines report every memory access to
// it, and it diffs observed behaviour against the static analyses —
// per call, the set of tags actually modified and referenced must be
// inside the call site's static MOD/REF summary, and per pointer
// access, the tag owning the resolved address must be inside the
// operation's static may-set. Any access outside a static set is an
// unsoundness violation (the analyses under-approximated), reported
// as an ir.Diag with function/block/instruction provenance.
//
// The checking is one-sided by construction: the static sets are
// over-approximations, so observed ⊆ static is the soundness
// direction and slack is expected. Promotion's synthesized boundary
// ops (Instr.Synth) are skipped — a demotion store legally writes a
// tag the region only read — as are register-allocator spill slots,
// which are created after the analyses ran.
type sanitizer struct {
	mod *ir.Module
	// stack mirrors the call stack: one record per active defined-
	// function call, accumulating the tags the call observably
	// modified and referenced. Accesses in main (empty stack) have no
	// site to check against.
	stack []sanRecord
	vios  []ir.Diag
	// seen dedups violations per (instruction, direction, tag) so a
	// hot loop reports each defect once.
	seen map[sanKey]bool
	// pos resolves an instruction to its provenance, built lazily on
	// the first violation.
	pos map[*ir.Instr]sanPos
}

// sanRecord accumulates one active call's observed effects.
type sanRecord struct {
	// site is the Jsr instruction in the caller; caller names the
	// enclosing function (provenance for the diff report).
	site   *ir.Instr
	caller string
	obsMod ir.TagSet
	obsRef ir.TagSet
}

type sanKey struct {
	in   *ir.Instr
	kind uint8 // 'm' mod, 'r' ref, 'p' pointer target
	tag  ir.TagID
}

type sanPos struct {
	fn    string
	block string
	index int
}

func newSanitizer(mod *ir.Module) *sanitizer {
	return &sanitizer{mod: mod, seen: make(map[sanKey]bool)}
}

// skipTag reports whether accesses to tag are exempt from checking
// and recording: spill slots postdate the analyses.
func (s *sanitizer) skipTag(tag ir.TagID) bool {
	if tag < 0 || int(tag) >= s.mod.Tags.Len() {
		return true
	}
	return s.mod.Tags.Get(tag).Kind == ir.TagSpill
}

// scalarRef records a scalar load (cLoad/sLoad) of src.Tag.
func (s *sanitizer) scalarRef(src *ir.Instr) {
	if len(s.stack) == 0 || src.Synth || s.skipTag(src.Tag) {
		return
	}
	s.stack[len(s.stack)-1].obsRef.Add(src.Tag)
}

// scalarMod records a scalar store (sStore) of src.Tag.
func (s *sanitizer) scalarMod(src *ir.Instr) {
	if len(s.stack) == 0 || src.Synth || s.skipTag(src.Tag) {
		return
	}
	s.stack[len(s.stack)-1].obsMod.Add(src.Tag)
}

// ptrAccess checks a pointer-based access (pLoad/pStore) against the
// operation's static may-set and records the owning tag into the
// active call record. owner is the tag owning the resolved address
// (TagInvalid when the address falls outside tagged storage — the
// access will fault or hit untagged slack, neither of which the
// static sets describe).
func (s *sanitizer) ptrAccess(fn string, src *ir.Instr, owner ir.TagID, store bool) {
	if src.Synth || owner == ir.TagInvalid || s.skipTag(owner) {
		return
	}
	if !src.Tags().IsTop() && !src.Tags().Has(owner) {
		k := sanKey{in: src, kind: 'p', tag: owner}
		if !s.seen[k] {
			s.seen[k] = true
			s.report(src, fmt.Sprintf("access to %q outside the static points-to set %s",
				s.mod.Tags.Get(owner).Name, src.Tags().Format(&s.mod.Tags)), "sanitize.ptr", fn)
		}
	}
	if len(s.stack) == 0 {
		return
	}
	rec := &s.stack[len(s.stack)-1]
	if store {
		rec.obsMod.Add(owner)
	} else {
		rec.obsRef.Add(owner)
	}
}

// pushCall opens a record for a call to a defined function. site is
// the Jsr instruction; caller the enclosing function's name.
func (s *sanitizer) pushCall(caller string, site *ir.Instr) {
	s.stack = append(s.stack, sanRecord{site: site, caller: caller})
}

// popCall closes the innermost call record: the observed effect sets
// must be inside the site's static MOD/REF summaries, then fold into
// the caller's record (a callee's effects are transitively the
// caller's).
func (s *sanitizer) popCall() {
	n := len(s.stack) - 1
	rec := s.stack[n]
	s.stack = s.stack[:n]
	s.diffSet(rec, rec.obsMod, rec.site.Mods(), 'm', "modified", "MOD")
	s.diffSet(rec, rec.obsRef, rec.site.Refs(), 'r', "referenced", "REF")
	if n > 0 {
		parent := &s.stack[n-1]
		rec.obsMod.UnionInto(&parent.obsMod)
		rec.obsRef.UnionInto(&parent.obsRef)
	}
}

func (s *sanitizer) diffSet(rec sanRecord, obs, static ir.TagSet, kind uint8, verb, set string) {
	if obs.SubsetOf(static) {
		return
	}
	check := "sanitize.mod"
	if kind == 'r' {
		check = "sanitize.ref"
	}
	callee := rec.site.Callee()
	if callee == "" {
		callee = "<indirect>"
	}
	obs.Minus(static).ForEach(func(t ir.TagID) {
		k := sanKey{in: rec.site, kind: kind, tag: t}
		if s.seen[k] {
			return
		}
		s.seen[k] = true
		s.report(rec.site, fmt.Sprintf("call to %s %s %q outside its static %s set",
			callee, verb, s.mod.Tags.Get(t).Name, set), check, rec.caller)
	})
}

// report emits one violation with provenance resolved from the
// module; the instruction→position map is built on first use so a
// clean run never pays for it.
func (s *sanitizer) report(in *ir.Instr, msg, checkName, fn string) {
	if s.pos == nil {
		s.pos = make(map[*ir.Instr]sanPos)
		for _, f := range s.mod.FuncsInOrder() {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					s.pos[&b.Instrs[i]] = sanPos{fn: f.Name, block: b.Label, index: i}
				}
			}
		}
	}
	d := ir.Diag{Check: checkName, Func: fn, Index: -1, Op: in.Op, Msg: msg}
	if p, ok := s.pos[in]; ok {
		d.Func, d.Block, d.Index = p.fn, p.block, p.index
	}
	s.vios = append(s.vios, d)
}

// finish flushes records still open when the run ends (main's own
// frame never pushes a record, but a run that stops mid-call — e.g.
// exit through main's return while records remain is impossible; this
// guards future early-exit paths) and returns the violations.
func (s *sanitizer) finish() []ir.Diag {
	for len(s.stack) > 0 {
		s.popCall()
	}
	return s.vios
}
