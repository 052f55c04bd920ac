package bench

import (
	"encoding/json"
	"testing"
)

// TestRunScaleSmall runs the scale tier at a reduced size and gates on
// its quantities: the warm recompile must replay most components from
// the cache, re-solve strictly fewer than cold, and produce IL
// byte-identical to an uncached compile of the same edited source.
func TestRunScaleSmall(t *testing.T) {
	r, err := RunScale(ScaleOptions{Seed: 5, Funcs: 80, Edit: 33, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("warm compile IL differs from uncached compile of the same source")
	}
	if r.SCCs == 0 {
		t.Fatal("scale report recorded no callgraph components")
	}
	// A cold compile may still hit within itself — the second MOD/REF
	// pass re-keys every component, and one the narrowing left
	// untouched replays its own first-pass summary — but the bulk of
	// cold work must be genuine solves, while warm flips the ratio.
	if r.Cold.SCCsSolved <= r.Cold.SCCsCached {
		t.Fatalf("cold run mostly hit a fresh cache (%d solved, %d cached)",
			r.Cold.SCCsSolved, r.Cold.SCCsCached)
	}
	if r.Warm.SCCsCached <= r.Cold.SCCsCached {
		t.Fatalf("warm run cached no more than cold (%d vs %d); the cache is not keying stably",
			r.Warm.SCCsCached, r.Cold.SCCsCached)
	}
	if r.Warm.SCCsSolved >= r.Cold.SCCsSolved {
		t.Fatalf("warm run solved %d components, cold solved %d; edit did not localize",
			r.Warm.SCCsSolved, r.Cold.SCCsSolved)
	}
	// The one-function edit should dirty a path through the
	// condensation, not a constant fraction of the module: at 80
	// helpers the warm solve must touch well under half of cold's
	// work.
	if r.Warm.SCCsSolved*2 >= r.Cold.SCCsSolved {
		t.Fatalf("warm run re-solved %d of %d components — dirty set is not narrow",
			r.Warm.SCCsSolved, r.Cold.SCCsSolved)
	}
}

// TestScaleReportRoundTrip: the scale cell survives the report's JSON
// encoding and Compare gates its quantities.
func TestScaleReportRoundTrip(t *testing.T) {
	r, err := RunScale(ScaleOptions{Seed: 2, Funcs: 40})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Schema: SchemaVersion, Scale: r}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scale == nil || back.Scale.Functions != r.Functions || back.Scale.SCCs != r.SCCs {
		t.Fatalf("scale cell did not round-trip: %+v", back.Scale)
	}

	// Same-code comparison: no gated regression.
	cr := Compare(rep, &back, 1.0)
	if !cr.OK() {
		t.Fatalf("identical reports compare as regressed: %s", cr.Format())
	}
	// An incremental-analysis regression — warm path solving more —
	// must gate.
	worse := *r
	worse.Warm.SCCsSolved = r.Warm.SCCsSolved * 3
	worseRep := &Report{Schema: SchemaVersion, Scale: &worse}
	if cr := Compare(rep, worseRep, 1.0); cr.OK() {
		t.Fatal("tripled warm sccs_solved did not register as a regression")
	}
	// Losing bit-identity must gate.
	broken := *r
	broken.Identical = false
	brokenRep := &Report{Schema: SchemaVersion, Scale: &broken}
	if cr := Compare(rep, brokenRep, 1.0); cr.OK() {
		t.Fatal("identical=false did not register as a regression")
	}
}
