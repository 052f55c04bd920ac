package certify

import (
	"fmt"

	"regpromo/internal/dataflow"
	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
)

// Verdict classifies one certificate's re-proof.
type Verdict int

const (
	// Proved: every obligation was independently re-established.
	Proved Verdict = iota
	// Unproven: no obligation was refuted, but at least one could not
	// be re-established by the oracle's coarser reasoning (e.g. a
	// call whose independent upper bound may overlap the region, or a
	// certificate whose blocks later passes merged away). Not an
	// error — the certificate may well be justified by the sharper
	// interprocedural analyses.
	Unproven
	// Violation: an obligation is provably false — the promotion (or
	// the summary it relied on) is unsound.
	Violation
)

func (v Verdict) String() string {
	switch v {
	case Proved:
		return "proved"
	case Unproven:
		return "unproven"
	default:
		return "violation"
	}
}

// RegionResult is one certificate's verification outcome.
type RegionResult struct {
	Region  *promote.Region
	Verdict Verdict
	// Diags carry the violations, in canonical [certify] form.
	Diags []ir.Diag
	// Notes name the obligations that could not be re-proved.
	Notes []string
}

// Summary aggregates a module's certificate verification.
type Summary struct {
	Regions, Proved, Unproven, Violations int
	// Diags are all violations, position-sorted.
	Diags []ir.Diag
}

// Verify re-proves every promotion certificate in regions against the
// module's current IL and reports the verdict counts plus all
// violation diagnostics. The proof never consults analysis/pointsto
// or analysis/modref: the obligations are discharged with CFG
// dataflow (availability of the landing pad, anticipated reads past
// dropped demotions) and the package's own syntactic alias oracle.
func Verify(m *ir.Module, regions []promote.Region) Summary {
	var sum Summary
	for _, rr := range VerifyRegions(m, regions) {
		sum.Regions++
		switch rr.Verdict {
		case Proved:
			sum.Proved++
		case Unproven:
			sum.Unproven++
		default:
			sum.Violations++
		}
		sum.Diags = append(sum.Diags, rr.Diags...)
	}
	ir.SortDiags(sum.Diags)
	return sum
}

// VerifyRegions verifies each certificate individually, in function
// order (region order within a function is the promoter's recording
// order, which is deterministic per function).
func VerifyRegions(m *ir.Module, regions []promote.Region) []RegionResult {
	if len(regions) == 0 {
		return nil
	}
	byFunc := make(map[string][]int)
	for i := range regions {
		byFunc[regions[i].Func] = append(byFunc[regions[i].Func], i)
	}
	oracle := NewOracle(m)
	var out []RegionResult
	for _, fn := range m.FuncsInOrder() {
		idx := byFunc[fn.Name]
		if len(idx) == 0 {
			continue
		}
		v := &verifier{m: m, fn: fn, oracle: oracle, tracer: newTracer(fn)}
		v.current = make(map[*ir.Block]bool, len(fn.Blocks))
		for _, b := range fn.Blocks {
			v.current[b] = true
		}
		for _, i := range idx {
			out = append(out, v.region(&regions[i]))
		}
	}
	return out
}

// verifier holds the per-function state shared across that function's
// certificates.
type verifier struct {
	m       *ir.Module
	fn      *ir.Func
	oracle  *Oracle
	tracer  *tracer
	current map[*ir.Block]bool

	// throughPad caches the R1 availability solution per landing pad
	// (many certificates share one loop's pad).
	throughPad map[*ir.Block][]bool
}

// region discharges the certificate's obligations:
//
//	R1 availability   — every path from entry to a region block passes
//	                    the landing pad, so the promoted register is
//	                    initialized before any rewritten use.
//	R2 non-interference — no surviving access in the region body can
//	                    touch the promoted location, by the oracle's
//	                    bounds or by the instruction's own IL facts,
//	                    and no promotion spill code for it sits there.
//	R3 summary consistency — each recorded call-summary claim contains
//	                    everything the oracle proves the callee does
//	                    to the promoted location.
//	R4 anticipated demotion — when the loop wrote the location, no
//	                    exit can reach a definite memory read of it
//	                    without an intervening store.
func (v *verifier) region(r *promote.Region) RegionResult {
	rr := RegionResult{Region: r}
	rset := r.Tags
	what := "pointer group " + rset.Format(&v.m.Tags)
	scalar := r.Tag != ir.TagInvalid
	if scalar {
		rset = ir.NewTagSet(r.Tag)
		what = fmt.Sprintf("tag %q", v.m.Tags.Get(r.Tag).Name)
	}

	// Surviving body blocks, deterministically ordered. Certificates
	// whose blocks later passes merged or deleted lose obligations,
	// not soundness: a vanished block holds no instructions to
	// misbehave, and R1/R4 note the staleness instead of guessing.
	body := currentBlocks(v.current, r.Body)
	if n := len(r.Body) - len(body); n > 0 {
		rr.Notes = append(rr.Notes, fmt.Sprintf("%d region block(s) no longer in the function", n))
	}

	v.checkAvailability(r, body, what, &rr)
	v.checkBody(r, body, rset, what, &rr)
	v.checkSummaries(r, rset, what, &rr)
	v.checkDemotion(r, what, scalar, &rr)

	switch {
	case len(rr.Diags) > 0:
		rr.Verdict = Violation
	case len(rr.Notes) > 0:
		rr.Verdict = Unproven
	}
	return rr
}

// checkAvailability is R1: a forward must-dataflow proving every path
// from the function entry to each surviving region block goes through
// the landing pad. The check is structural on the CFG, not on the pad
// instructions — value numbering may legally have folded the lifted
// load itself into an earlier equivalent.
func (v *verifier) checkAvailability(r *promote.Region, body []*ir.Block, what string, rr *RegionResult) {
	if r.Pad == nil || !v.current[r.Pad] {
		rr.Notes = append(rr.Notes, "landing pad no longer in the function")
		return
	}
	through, ok := v.throughPad[r.Pad]
	if !ok {
		through = solveThrough(v.fn, r.Pad)
		if v.throughPad == nil {
			v.throughPad = make(map[*ir.Block][]bool)
		}
		v.throughPad[r.Pad] = through
	}
	for _, b := range body {
		if int(b.ID) < len(through) && !through[b.ID] {
			rr.Diags = append(rr.Diags, ir.Diag{
				Check: "certify", Func: r.Func, Block: b.Label, Index: -1,
				Msg: fmt.Sprintf("region block for promoted %s is reachable without passing landing pad %q", what, r.Pad.Label),
			})
		}
	}
}

// solveThrough computes, for every block, whether all paths from the
// entry to it pass through pad: a forward must-problem initialized
// optimistically to true (greatest fixpoint; unreachable predecessors
// stay vacuously true, which is exact — they contribute no paths).
func solveThrough(fn *ir.Func, pad *ir.Block) []bool {
	through := make([]bool, len(fn.Blocks))
	for i := range through {
		through[i] = true
	}
	dataflow.SolveBlocks(fn, dataflow.Forward, func(b *ir.Block) bool {
		v := true
		switch {
		case b == pad:
		case b == fn.Entry:
			v = false
		default:
			for _, p := range b.Preds {
				if int(p.ID) < len(through) && !through[p.ID] {
					v = false
					break
				}
			}
		}
		if v != through[b.ID] {
			through[b.ID] = v
			return true
		}
		return false
	})
	return through
}

// checkBody is R2: no instruction surviving in the region body may
// touch the promoted location. A definite touch (oracle lower bound)
// is a violation; so is an instruction whose own IL facts — its tag,
// its pointer tag set, a call's MOD/REF summary — name the location,
// since promotion rewrote every such access into a register copy and
// the compiler's later passes trust those facts. A possible touch by
// the oracle's upper bound alone is merely unprovable: the sharper
// analyses may legitimately have excluded it. Oracle reads matter
// only for regions that wrote the location, since with memory
// unmodified a stray read still sees the current value. Synthesized
// instructions are promotion's spill code: a nested region's may sit
// in the body, but spill code for this region's own location belongs
// at its boundaries.
func (v *verifier) checkBody(r *promote.Region, body []*ir.Block, rset ir.TagSet, what string, rr *RegionResult) {
	unproven := 0
	for _, b := range body {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			diag := func(format string) {
				rr.Diags = append(rr.Diags, ir.Diag{
					Check: "certify", Func: r.Func, Block: b.Label, Index: i, Op: in.Op,
					Msg: fmt.Sprintf(format, what),
				})
			}
			if in.Synth {
				if namesLocation(in, rset) {
					diag("promotion spill code for %s inside the region body (boundaries only)")
				}
				continue
			}
			fx := v.oracle.instrEffects(v.tracer, in)
			switch {
			case fx.lowerMod.Intersects(rset):
				diag("instruction provably writes promoted %s inside its region")
			case r.Stored && fx.lowerRef.Intersects(rset):
				diag("instruction provably reads promoted %s from memory inside its region (register holds a newer value)")
			case namesLocation(in, rset):
				if in.Op == ir.OpJsr {
					diag("call may touch promoted %s inside its region")
				} else {
					diag("access to promoted %s survives inside its region")
				}
			case fx.upperMod.Intersects(rset) || (r.Stored && fx.upperRef.Intersects(rset)):
				unproven++
			}
		}
	}
	if unproven > 0 {
		rr.Notes = append(rr.Notes, fmt.Sprintf("%d instruction(s) whose independent effect bound may overlap %s", unproven, what))
	}
}

// namesLocation reports whether in's own IL facts say it may touch
// rset: a scalar access's tag, a pointer access's tag set, or a
// call's MOD or REF summary.
func namesLocation(in *ir.Instr, rset ir.TagSet) bool {
	switch in.Op {
	case ir.OpSLoad, ir.OpCLoad, ir.OpSStore:
		return rset.Has(in.Tag)
	case ir.OpPLoad, ir.OpPStore:
		return in.Tags().Intersects(rset)
	case ir.OpJsr:
		return in.Mods().Intersects(rset) || in.Refs().Intersects(rset)
	}
	return false
}

// checkSummaries is R3: every call-summary fact the promotion relied
// on must contain what the oracle proves the callee does to the
// promoted location. The comparison is deliberately restricted to the
// region's own tags — summaries may legitimately be narrower than the
// oracle elsewhere (that is the whole point of the sharper analyses).
func (v *verifier) checkSummaries(r *promote.Region, rset ir.TagSet, what string, rr *RegionResult) {
	for i := range r.Calls {
		f := &r.Calls[i]
		if f.Callee == "" {
			continue // indirect: the oracle proves no single callee
		}
		lowerMod, lowerRef, _, _, ok := v.oracle.Effects(f.Callee)
		if !ok {
			continue
		}
		if missing := lowerMod.Intersect(rset).Minus(f.Mods); !missing.IsEmpty() {
			rr.Diags = append(rr.Diags, ir.Diag{
				Check: "certify", Func: r.Func, Block: f.Block, Index: f.Index, Op: ir.OpJsr,
				Msg: fmt.Sprintf("MOD summary of call to %q omits promoted %s, which the callee provably modifies", f.Callee, what),
			})
		}
		if missing := lowerRef.Intersect(rset).Minus(f.Refs); !missing.IsEmpty() {
			rr.Diags = append(rr.Diags, ir.Diag{
				Check: "certify", Func: r.Func, Block: f.Block, Index: f.Index, Op: ir.OpJsr,
				Msg: fmt.Sprintf("REF summary of call to %q omits promoted %s, which the callee provably references", f.Callee, what),
			})
		}
	}
}

// checkDemotion is R4: for a scalar region that wrote the promoted
// tag, no exit may reach a definite memory read of the tag without an
// intervening store — otherwise the demotion store was lost and the
// read observes the stale pre-loop value. The proof is a backward
// exists-path dataflow: anticipated[b] holds when some path from b's
// entry reaches a definite read of the tag with no possible write
// before it (a possible write conservatively ends the path — the
// stale value may be overwritten, so nothing is provable beyond it).
func (v *verifier) checkDemotion(r *promote.Region, what string, scalar bool, rr *RegionResult) {
	if !scalar || !r.Stored {
		return
	}
	anticipated := v.solveAnticipated(r.Tag)
	stale := 0
	for _, x := range r.Exits {
		if x == nil || !v.current[x] {
			stale++
			continue
		}
		if int(x.ID) < len(anticipated) && anticipated[x.ID] {
			rr.Diags = append(rr.Diags, ir.Diag{
				Check: "certify", Func: r.Func, Block: x.Label, Index: -1,
				Msg: fmt.Sprintf("demotion store for promoted %s is missing at region exit, and memory is definitely read downstream", what),
			})
		}
	}
	if stale > 0 {
		rr.Notes = append(rr.Notes, fmt.Sprintf("%d region exit(s) no longer in the function", stale))
	}
}

// solveAnticipated computes the R4 predicate for one tag over the
// whole function. Synthesized instructions count here — a sibling
// region's lifted load really does read memory at run time.
func (v *verifier) solveAnticipated(tag ir.TagID) []bool {
	fn := v.fn
	anticipated := make([]bool, len(fn.Blocks))
	target := ir.NewTagSet(tag)
	dataflow.SolveBlocks(fn, dataflow.Backward, func(b *ir.Block) bool {
		val, decided := false, false
	scan:
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// A possible write ends the path before a read does: if
			// one instruction could do both (a call), the internal
			// order is unknowable, so nothing is provable.
			if in.Op == ir.OpSStore && in.Tag == tag {
				decided = true
				break scan
			}
			fx := v.oracle.instrEffects(v.tracer, in)
			if fx.upperMod.Intersects(target) {
				decided = true
				break scan
			}
			if (in.Op == ir.OpSLoad || in.Op == ir.OpCLoad) && in.Tag == tag {
				val, decided = true, true
				break scan
			}
		}
		if !decided {
			for _, s := range b.Succs {
				if int(s.ID) < len(anticipated) && anticipated[s.ID] {
					val = true
					break
				}
			}
		}
		if val != anticipated[b.ID] {
			anticipated[b.ID] = val
			return true
		}
		return false
	})
	return anticipated
}

// currentBlocks filters a recorded block list down to blocks still in
// the function, ID-ordered.
func currentBlocks(current map[*ir.Block]bool, recorded []*ir.Block) []*ir.Block {
	out := make([]*ir.Block, 0, len(recorded))
	for _, b := range recorded {
		if current[b] {
			out = append(out, b)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
