package difftest

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

// TestDiffSeedAgreesOnMain: a handful of seeds through the full
// matrix; any divergence is a miscompilation in the tree.
func TestDiffSeedAgreesOnMain(t *testing.T) {
	matrix := driver.DifferentialConfigurations(false)
	for seed := int64(1); seed <= 5; seed++ {
		r := DiffSeedMode(seed, matrix, Mode{})
		if d := r.Divergence(); d != "" {
			t.Errorf("seed %d diverges:\n%s\n%s", seed, d, r.Source)
		}
	}
}

// TestExecsFollowMatrixOrder checks that DiffSourceMode, which runs
// the distinct executions concurrently when the CPU budget has room
// and shares one between configurations with identical modules, still
// reports them in matrix order: each execution names its own
// configuration and carries exactly the behaviour and counts of that
// configuration compiled alone on one worker.
func TestExecsFollowMatrixOrder(t *testing.T) {
	matrix := driver.DifferentialConfigurations(false)
	mode := Mode{BothEngines: true}
	executed := 0
	for seed := int64(1); seed <= 10; seed++ {
		r := DiffSeedMode(seed, matrix, mode)
		if len(r.Execs) != len(matrix) {
			t.Fatalf("seed %d: %d executions for %d configurations", seed, len(r.Execs), len(matrix))
		}
		if r.Executed < 1 || r.Executed > len(matrix) {
			t.Errorf("seed %d: executed %d of %d", seed, r.Executed, len(matrix))
		}
		executed += r.Executed
		for i, nc := range matrix {
			got := &r.Execs[i]
			cfg := nc.Config
			cfg.Workers = 1
			c, err := driver.CompileSource(fmt.Sprintf("seed%d.c", seed), r.Source, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, nc.Name, err)
			}
			want := execute(c, nc, mode)
			if got.Config.Name != nc.Name || got.Behaviour() != want.Behaviour() || got.Counts != want.Counts {
				t.Errorf("seed %d execution %d: %s %s %+v, want %s %s %+v", seed, i,
					got.Config.Name, got.Behaviour(), got.Counts, nc.Name, want.Behaviour(), want.Counts)
			}
		}
	}
	if executed >= 10*len(matrix) {
		t.Errorf("executed all %d configurations: no two ever shared a module", executed)
	}
}

// tagTable renders every field of every tag in m's table.
func tagTable(m *ir.Module) string {
	var sb strings.Builder
	for _, tag := range m.Tags.All() {
		fmt.Fprintf(&sb, "%+v\n", *tag)
	}
	return sb.String()
}

// TestContentKeyMeansSameModule: over testgen seeds 1–200 under the
// full differential matrix (certify on, as the fuzz workload runs it),
// configurations whose compilations share a ContentKey must print the
// same IL over the same tag table — which is what lets DiffSourceMode
// execute them once.
func TestContentKeyMeansSameModule(t *testing.T) {
	matrix := driver.DifferentialConfigurations(false)
	shared := 0
	for seed := int64(1); seed <= 200; seed++ {
		cs, errs := compileMatrix(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed), matrix, true)
		first := map[cache.Key]int{}
		for i, c := range cs {
			if errs[i] != nil {
				t.Fatalf("seed %d %s: %v", seed, matrix[i].Name, errs[i])
			}
			k := c.ContentKey()
			j, ok := first[k]
			if !ok {
				first[k] = i
				continue
			}
			shared++
			if ir.FormatModule(c.Module) != ir.FormatModule(cs[j].Module) {
				t.Errorf("seed %d: %s and %s share a content key but not their IL", seed, matrix[i].Name, matrix[j].Name)
			}
			if tagTable(c.Module) != tagTable(cs[j].Module) {
				t.Errorf("seed %d: %s and %s share a content key but not their tag tables", seed, matrix[i].Name, matrix[j].Name)
			}
		}
	}
	if shared == 0 {
		t.Error("no two configurations ever shared a content key")
	}
}

// TestSharedExecutionsKeepTheirNames seeds a divergence every
// optimizing configuration shares: a dead division by zero faults in
// the unoptimized reference and is deleted everywhere else. Several
// of those configurations compile to the same module and share one
// execution, yet the divergence must still name each of them, and
// every execution must carry its own configuration.
func TestSharedExecutionsKeepTheirNames(t *testing.T) {
	const src = `
int main() {
	int z;
	int d;
	z = 0;
	d = 5 / z;
	print_int(7);
	return 0;
}
`
	matrix := driver.DifferentialConfigurations(false)
	r := DiffSourceMode("dead_div.c", src, matrix, Mode{BothEngines: true})
	if r.Executed >= len(matrix) || r.Executed < 2 {
		t.Errorf("executed %d of %d configurations, want some shared and the reference apart", r.Executed, len(matrix))
	}
	div := r.Divergence()
	for i, nc := range matrix {
		if r.Execs[i].Config.Name != nc.Name {
			t.Errorf("execution %d names %s, want %s", i, r.Execs[i].Config.Name, nc.Name)
		}
		if i == 0 {
			continue
		}
		if want := nc.Name + ": exit=0 output=\"7\\n\""; !strings.Contains(div, want) {
			t.Errorf("divergence does not report %q:\n%s", want, div)
		}
	}
	if !strings.Contains(r.Execs[0].Behaviour(), "division by zero") {
		t.Errorf("reference behaviour %s, want the division fault", r.Execs[0].Behaviour())
	}
}

// TestFuzzCleanOnMain drives the whole Fuzz loop (parallel, short
// matrix) and expects a clean report.
func TestFuzzCleanOnMain(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	rep, err := Fuzz(FuzzOptions{Start: 1000, Seeds: seeds, Parallel: 4, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("fuzzing found %d divergences: %+v", len(rep.Failures), rep.Failures)
	}
}

// unitText recovers the text of one removable unit by rendering the
// program with only that unit kept and subtracting the never-pruned
// scaffolding around it.
func unitText(seed int64, u int) string {
	with := testgen.ProgramKeep(seed, func(i int) bool { return i == u })
	without := testgen.ProgramKeep(seed, func(i int) bool { return false })
	lo := 0
	for lo < len(without) && lo < len(with) && with[lo] == without[lo] {
		lo++
	}
	hi := 0
	for hi < len(without)-lo && hi < len(with)-lo && with[len(with)-1-hi] == without[len(without)-1-hi] {
		hi++
	}
	return with[lo : len(with)-hi]
}

// lastMainUnit returns the index and text of the seed's final
// main-body statement — a unit that survives on its own (units inside
// helper functions disappear when the helper itself is pruned, so
// they make poor reduction targets for this test).
func lastMainUnit(t *testing.T, seed int64) (int, string) {
	t.Helper()
	u := testgen.Units(seed) - 1
	text := unitText(seed, u)
	if text == "" {
		t.Fatalf("seed %d: unit %d has no text", seed, u)
	}
	return u, text
}

// TestReduceShrinksToMarker: with an oracle that "fails" whenever a
// marker statement is present, the reducer must strip essentially
// everything else. Each seeded fixture must shrink to at most two
// kept units (the marker plus, at worst, one unremovable companion).
func TestReduceShrinksToMarker(t *testing.T) {
	for _, seed := range []int64{3, 42, 777, 90210} {
		_, marker := lastMainUnit(t, seed)
		checks := 0
		reduced, kept := Reduce(seed, func(src string) bool {
			checks++
			return strings.Contains(src, marker)
		})
		if !strings.Contains(reduced, marker) {
			t.Errorf("seed %d: reduction lost the marker", seed)
		}
		if kept > 2 {
			t.Errorf("seed %d: reduced to %d units, want <= 2 (of %d)\n%s",
				seed, kept, testgen.Units(seed), reduced)
		}
		if full := testgen.Program(seed); len(reduced) >= len(full) {
			t.Errorf("seed %d: reduced program (%d bytes) not smaller than original (%d)", seed, len(reduced), len(full))
		}
		if checks == 0 {
			t.Errorf("seed %d: oracle never consulted", seed)
		}
	}
}

// TestReduceIrreproducible: when the oracle rejects even the full
// program, Reduce must hand it back untouched.
func TestReduceIrreproducible(t *testing.T) {
	seed := int64(11)
	src, kept := Reduce(seed, func(string) bool { return false })
	if src != testgen.Program(seed) || kept != testgen.Units(seed) {
		t.Fatal("irreproducible failure should return the full program")
	}
}

// TestReducedCandidatesStayWellFormed: every candidate the reducer
// proposes against a real differential oracle must at minimum keep
// the reference configuration compiling and running — pruning only
// removes whole generated units, never scaffolding.
func TestReducedCandidatesStayWellFormed(t *testing.T) {
	ref := driver.DifferentialConfigurations(true)[:1]
	seed := int64(1234)
	_, marker := lastMainUnit(t, seed)
	probes := 0
	Reduce(seed, func(src string) bool {
		probes++
		r := DiffSourceMode("cand.c", src, ref, Mode{})
		// Compile errors are legitimate rejected trials (e.g. a
		// pruned helper that is still called); runtime faults are
		// not — pruning whole units must never corrupt the program.
		if err := r.Execs[0].Err; err != nil && strings.Contains(err.Error(), "execute:") {
			t.Fatalf("candidate faults at runtime: %v\n%s", err, src)
		}
		return strings.Contains(src, marker)
	})
	if probes < 3 {
		t.Fatalf("reducer probed only %d candidates, expected a real search", probes)
	}
}

// TestWriteArtifacts archives a (non-divergent) result and checks the
// corpus layout.
func TestWriteArtifacts(t *testing.T) {
	matrix := driver.DifferentialConfigurations(true)
	r := DiffSeedMode(7, matrix, Mode{})
	dir := t.TempDir()
	sub, err := WriteArtifacts(dir, r, r.Source)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"prog.c", "reduced.c", "repro.txt"}
	for _, nc := range matrix {
		want = append(want, "il-"+nc.Name+".txt")
	}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(sub, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// The archived IL is each configuration's own final IL.
	for _, nc := range matrix {
		c, err := driver.CompileSource("seed7.c", r.Source, nc.Config)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := os.ReadFile(filepath.Join(sub, "il-"+nc.Name+".txt"))
		if string(data) != ir.FormatModule(c.Module) {
			t.Errorf("il-%s.txt is not the configuration's IL", nc.Name)
		}
	}
	repro, _ := os.ReadFile(filepath.Join(sub, "repro.txt"))
	if !strings.Contains(string(repro), "rpfuzz -start 7 -seeds 1") {
		t.Error("repro.txt lacks the repro command")
	}
}

// TestParseOracles pins the -oracles spec: each name sets its Mode
// field, repeats count once, and an unknown name gets the canonical
// diagnostic.
func TestParseOracles(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    Mode
		wantErr string
	}{
		{spec: "", want: Mode{}},
		{spec: "sanitize", want: Mode{Sanitize: true}},
		{spec: "certify", want: Mode{Certify: true}},
		{spec: "incremental", want: Mode{Incremental: true}},
		{spec: "certify, sanitize", want: Mode{Sanitize: true, Certify: true}},
		{spec: "incremental,sanitize,incremental,certify,sanitize", want: Mode{Sanitize: true, Certify: true, Incremental: true}},
		{spec: "bogus", wantErr: `[oracle] unknown oracle "bogus" (want sanitize, certify, or incremental)`},
		{spec: "sanitize,", wantErr: `[oracle] unknown oracle "" (want sanitize, certify, or incremental)`},
	} {
		got, err := ParseOracles(tc.spec)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ParseOracles(%q) error = %v, want %s", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseOracles(%q): %v", tc.spec, err)
			continue
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", tc.want) {
			t.Errorf("ParseOracles(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// TestReproCommandRoundTrips: the repro command WriteArtifacts writes
// carries the run's engines and oracles, and parsing its flags back the
// way rpfuzz does yields the same engine matrix and oracles.
func TestReproCommandRoundTrips(t *testing.T) {
	r := DiffSeedMode(7, driver.DifferentialConfigurations(true)[:1], Mode{})
	for _, m := range []Mode{
		{},
		{Sanitize: true},
		{BothEngines: true, Sanitize: true, Certify: true},
		{Engines: []interp.Engine{interp.EngineFlat, interp.EngineNative}, Incremental: true},
		{Engines: []interp.Engine{interp.EngineFlat, interp.EngineSwitch, interp.EngineNative}, Certify: true},
	} {
		r.Mode = m
		sub, err := WriteArtifacts(t.TempDir(), r, r.Source)
		if err != nil {
			t.Fatal(err)
		}
		repro, err := os.ReadFile(filepath.Join(sub, "repro.txt"))
		if err != nil {
			t.Fatal(err)
		}
		var args []string
		for _, line := range strings.Split(string(repro), "\n") {
			if f := strings.Fields(line); len(f) > 3 && strings.Join(f[:3], " ") == "go run ./cmd/rpfuzz" {
				args = f[3:]
			}
		}
		fs := flag.NewFlagSet("rpfuzz", flag.ContinueOnError)
		start := fs.Int64("start", 1, "")
		seeds := fs.Int64("seeds", 100, "")
		engines := fs.String("engines", "flat", "")
		oracles := fs.String("oracles", "", "")
		if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
			t.Fatalf("%+v: repro flags %q do not parse: %v", m, args, err)
		}
		got, err := ParseOracles(*oracles)
		if err != nil {
			t.Fatal(err)
		}
		if got.Engines, err = driver.ParseEngines(*engines); err != nil {
			t.Fatal(err)
		}
		if *start != 7 || *seeds != 1 {
			t.Errorf("%+v: repro runs -start %d -seeds %d, want 7 and 1", m, *start, *seeds)
		}
		if fmt.Sprint(got.EngineMatrix()) != fmt.Sprint(m.EngineMatrix()) || fmt.Sprint(got.Oracles()) != fmt.Sprint(m.Oracles()) {
			t.Errorf("%+v: repro %q parses to engines %v oracles %v, want %v and %v",
				m, args, got.EngineMatrix(), got.Oracles(), m.EngineMatrix(), m.Oracles())
		}
	}
}

// TestCertifyRefutationIsAttributed: a compile refuted by certify is
// that oracle's verdict, and a divergence it causes is counted for
// certify alone; any other compile failure belongs to no oracle.
func TestCertifyRefutationIsAttributed(t *testing.T) {
	refuted := &driver.CheckError{Pass: driver.PassCertify, Diags: []ir.Diag{{Check: "certify", Index: -1, Msg: "refuted"}}}
	nc := driver.NamedConfig{Name: "promote-modref"}
	if e := compileFailure(nc, refuted); e.Oracle != OracleCertify {
		t.Errorf("certify refutation: oracle %q, want %q", e.Oracle, OracleCertify)
	}
	for _, err := range []error{errors.New("parse error"), &driver.CheckError{Pass: "module", Diags: refuted.Diags}} {
		if e := compileFailure(nc, err); e.Oracle != "" {
			t.Errorf("%v: oracle %q, want none", err, e.Oracle)
		}
	}
	r := &Result{Execs: []Execution{{Config: driver.NamedConfig{Name: "ref-noopt"}}, compileFailure(nc, refuted)}}
	if got := r.Oracles(); fmt.Sprint(got) != "[certify]" {
		t.Errorf("oracles = %v, want [certify]", got)
	}
}
