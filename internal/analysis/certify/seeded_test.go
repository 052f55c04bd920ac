// Seeded-defect tests: each test injects one specific unsoundness bug
// into an otherwise-correct promotion — a forged call summary, an
// interfering store smuggled into the region body, a mis-drawn region
// boundary, a dropped demotion store — and proves the certificate
// verifier catches it with exact provenance (check name, function,
// block, and instruction index). The clean baselines in the same file
// prove the catches are not false positives.
package certify_test

import (
	"strings"
	"testing"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
	"regpromo/internal/testutil"
)

// loopSrc is the minimal promotable program: the global "total" is
// read and written on every iteration with no interfering calls, so
// scalar promotion lifts it into a register for the whole loop.
const loopSrc = `
int total;
int main(void) {
    int i;
    for (i = 0; i < 10; i = i + 1) {
        total = total + i;
    }
    print_int(total);
    return 0;
}
`

// callSrc adds a call whose callee provably writes the promoted
// global. With honest MOD/REF summaries the call makes "total"
// ambiguous and promotion skips it; the forged-summary test below
// erases the summaries to force the unsound promotion through.
const callSrc = `
int total;
void bump(void) { total = total + 1; }
int main(void) {
    int i;
    for (i = 0; i < 8; i = i + 1) {
        total = total + i;
        bump();
    }
    print_int(total);
    return 0;
}
`

func tagByName(t *testing.T, m *ir.Module, name string) ir.TagID {
	t.Helper()
	for _, tg := range m.Tags.All() {
		if tg.Name == name && tg.Func == "" {
			return tg.ID
		}
	}
	t.Fatalf("no global tag %q", name)
	return ir.TagInvalid
}

func promoteAll(t *testing.T, m *ir.Module) []promote.Region {
	t.Helper()
	st := promote.Run(m, promote.Options{})
	if len(st.Regions) == 0 {
		t.Fatalf("promotion produced no regions:\n%s", ir.FormatModule(m))
	}
	return st.Regions
}

func regionFor(t *testing.T, regions []promote.Region, fn string, tag ir.TagID) *promote.Region {
	t.Helper()
	for i := range regions {
		if regions[i].Func == fn && regions[i].Tag == tag {
			return &regions[i]
		}
	}
	t.Fatalf("no region for tag %d in %s", tag, fn)
	return nil
}

// wantViolation asserts that sum contains a [certify] diagnostic in
// fn/block matching msgPart, and returns it.
func wantViolation(t *testing.T, sum certify.Summary, fn, block, msgPart string) ir.Diag {
	t.Helper()
	for _, d := range sum.Diags {
		if d.Check == "certify" && d.Func == fn && d.Block == block && strings.Contains(d.Msg, msgPart) {
			return d
		}
	}
	t.Fatalf("no [certify] diag in %s/%s matching %q; got %v", fn, block, msgPart, sum.Diags)
	return ir.Diag{}
}

// TestCleanPromotionCertifies is the baseline: the untampered
// promotions of both fixture programs re-prove completely.
func TestCleanPromotionCertifies(t *testing.T) {
	for _, src := range []string{loopSrc, callSrc} {
		m := testutil.Compile(t, src)
		st := promote.Run(m, promote.Options{})
		sum := certify.Verify(m, st.Regions)
		if sum.Violations != 0 {
			t.Errorf("clean promotion has %d violations: %v", sum.Violations, sum.Diags)
		}
		if sum.Proved == 0 && sum.Regions > 0 {
			t.Errorf("clean promotion proved 0 of %d regions", sum.Regions)
		}
	}
}

// TestSeededForgedCallSummary erases the MOD/REF summaries on the
// call to bump() before promotion, simulating a pruned (unsound)
// interprocedural analysis. Promotion then wrongly lifts "total"
// across a call that writes it. The verifier must refute the
// certificate twice over: R2, because the call instruction provably
// writes the promoted tag inside the region, and R3, because the
// recorded summary fact omits a location the callee provably
// modifies — both anchored at the call site.
func TestSeededForgedCallSummary(t *testing.T) {
	m := testutil.Compile(t, callSrc)
	total := tagByName(t, m, "total")

	var callBlock string
	var callIndex int
	main := m.Funcs["main"]
	if main == nil {
		t.Fatal("no main")
	}
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpJsr && in.Callee() == "bump" {
				in.SetEffects(ir.TagSet{}, ir.TagSet{})
				callBlock, callIndex = b.Label, i
			}
		}
	}
	if callBlock == "" {
		t.Fatal("no call to bump in main")
	}

	regions := promoteAll(t, m)
	r := regionFor(t, regions, "main", total)
	if len(r.Calls) == 0 {
		t.Fatalf("certificate recorded no call facts; promotion did not cross the call")
	}

	sum := certify.Verify(m, regions)
	if sum.Violations == 0 {
		t.Fatalf("forged summary not refuted; diags: %v", sum.Diags)
	}
	d := wantViolation(t, sum, "main", callBlock, "provably writes promoted")
	if d.Index != callIndex || d.Op != ir.OpJsr {
		t.Errorf("R2 provenance: got %s #%d %v, want #%d %v", d.Block, d.Index, d.Op, callIndex, ir.OpJsr)
	}
	d = wantViolation(t, sum, "main", callBlock, `MOD summary of call to "bump" omits promoted`)
	if d.Index != callIndex {
		t.Errorf("R3 provenance: got index %d, want %d", d.Index, callIndex)
	}
	wantViolation(t, sum, "main", callBlock, `REF summary of call to "bump" omits promoted`)
}

// TestSeededInterferingStore plants a non-synthesized store to the
// promoted tag into a region body block after promotion, simulating a
// later pass that illegally re-materialized a memory access the
// certificate claims cannot exist. The verifier must flag exactly that
// instruction (R2).
func TestSeededInterferingStore(t *testing.T) {
	m := testutil.Compile(t, loopSrc)
	total := tagByName(t, m, "total")
	regions := promoteAll(t, m)
	r := regionFor(t, regions, "main", total)

	b := r.Body[0]
	store := ir.Instr{Op: ir.OpSStore, Tag: r.Tag, A: r.PromotedReg, Size: int32(r.Size)}
	b.Instrs = append([]ir.Instr{store}, b.Instrs...)

	sum := certify.Verify(m, regions)
	d := wantViolation(t, sum, "main", b.Label, "provably writes promoted")
	if d.Index != 0 || d.Op != ir.OpSStore {
		t.Errorf("R2 provenance: got #%d %v, want #0 %v", d.Index, d.Op, ir.OpSStore)
	}
}

// TestSeededMisdrawnBoundary rewrites the certificate's landing pad to
// the loop exit, simulating a promoter that recorded the region
// boundary at the wrong block. Every body block is then reachable from
// the entry without passing the claimed pad, so the lifted load would
// not dominate the rewritten uses — the verifier's R1 availability
// dataflow must refute it.
func TestSeededMisdrawnBoundary(t *testing.T) {
	m := testutil.Compile(t, loopSrc)
	total := tagByName(t, m, "total")
	regions := promoteAll(t, m)
	r := regionFor(t, regions, "main", total)
	if len(r.Exits) == 0 {
		t.Fatal("region has no exits")
	}

	r.Pad = r.Exits[0]

	sum := certify.Verify(m, regions)
	d := wantViolation(t, sum, "main", r.Body[0].Label, "reachable without passing landing pad")
	if d.Index != -1 {
		t.Errorf("R1 provenance: got index %d, want -1", d.Index)
	}
}

// TestSeededDroppedDemotion deletes the synthesized demotion store at
// the region exit after promotion. The downstream print_int(total)
// definitely reads the stale memory value, so the verifier's R4
// backward anticipation dataflow must flag the exit.
func TestSeededDroppedDemotion(t *testing.T) {
	m := testutil.Compile(t, loopSrc)
	total := tagByName(t, m, "total")
	regions := promoteAll(t, m)
	r := regionFor(t, regions, "main", total)
	if !r.Stored || !r.Demoted || len(r.Exits) == 0 {
		t.Fatalf("fixture region not stored+demoted with exits: %+v", r)
	}

	dropped := false
	for _, x := range r.Exits {
		kept := x.Instrs[:0]
		for i := range x.Instrs {
			in := x.Instrs[i]
			if in.Synth && in.Op == ir.OpSStore && in.Tag == r.Tag {
				dropped = true
				continue
			}
			kept = append(kept, in)
		}
		x.Instrs = kept
	}
	if !dropped {
		t.Fatal("no synthesized demotion store found at the exits")
	}

	sum := certify.Verify(m, regions)
	d := wantViolation(t, sum, "main", r.Exits[0].Label, "demotion store for promoted")
	if d.Index != -1 {
		t.Errorf("R4 provenance: got index %d, want -1", d.Index)
	}
}
