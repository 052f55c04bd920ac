package driver_test

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/testgen"
)

// matrixProgram is one source the matrix tests compile.
type matrixProgram struct{ name, src string }

// matrixPrograms is the suite followed by testgen seeds 1–40.
func matrixPrograms() []matrixProgram {
	var ps []matrixProgram
	for _, p := range bench.Suite() {
		ps = append(ps, matrixProgram{"suite/" + p.Name, bench.Source(p)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		ps = append(ps, matrixProgram{"testgen/" + strconv.FormatInt(seed, 10), testgen.Program(seed)})
	}
	return ps
}

// matrixCompile is a matrix compile: Frontend.CompileMatrix, or the
// narrowed-key variant.
type matrixCompile func(fe *driver.Frontend, cfgs []driver.Config, tr *obs.Tracer) ([]*driver.Compilation, error)

func fullMatrix(fe *driver.Frontend, cfgs []driver.Config, tr *obs.Tracer) ([]*driver.Compilation, error) {
	return fe.CompileMatrix(cfgs, tr)
}

// matrixMismatches compiles p under every configuration alone, each
// from its own front end on one worker (Workers: 1, so wholly on the
// calling goroutine), and all together through compile with the
// configurations' own worker counts, so the matrix's branches and
// groups run concurrently when the CPU budget has room. It lists every
// difference between the two: the IL bytes, the pass records in order
// with time excluded, the promotion, allocation and analysis
// statistics, and the pressure reports. newTracer makes each compile's
// tracer.
func matrixMismatches(t *testing.T, p matrixProgram, cfgs []driver.Config, compile matrixCompile, newTracer func() *obs.Tracer) []string {
	t.Helper()
	parse := func() *driver.Frontend {
		fe, err := driver.ParseSource(p.name+".c", p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		return fe
	}
	fe := parse()
	got, err := compile(fe, cfgs, newTracer())
	if err != nil {
		t.Fatalf("%s: matrix: %v", p.name, err)
	}
	if n := fe.Clones(); n != int64(len(cfgs)) {
		t.Errorf("%s: matrix forked %d modules, want %d", p.name, n, len(cfgs))
	}
	var diffs []string
	for i, cfg := range cfgs {
		serial := cfg
		serial.Workers = 1
		want, err := parse().Compile(serial, newTracer())
		if err != nil {
			t.Fatalf("%s config %d: alone: %v", p.name, i, err)
		}
		for _, d := range compilationDiffs(want, got[i]) {
			diffs = append(diffs, fmt.Sprintf("%s config %d (%+v): %s", p.name, i, cfg, d))
		}
	}
	return diffs
}

// compilationDiffs lists how got differs from want: the IL, the
// statistics, the pressure reports, where each promotion region's
// blocks sit in the final functions, and the pass records with their
// censuses and extras.
func compilationDiffs(want, got *driver.Compilation) []string {
	var ds []string
	if ir.FormatModule(want.Module) != ir.FormatModule(got.Module) {
		ds = append(ds, "IL differs")
	}
	if w, g := regionPlaces(want), regionPlaces(got); !reflect.DeepEqual(w, g) {
		ds = append(ds, fmt.Sprintf("region blocks at %v, alone %v", g, w))
	}
	if w, g := want.Promote.Counters(), got.Promote.Counters(); w != g {
		ds = append(ds, fmt.Sprintf("promote stats %+v, alone %+v", g, w))
	}
	if want.Alloc != got.Alloc {
		ds = append(ds, fmt.Sprintf("alloc stats %+v, alone %+v", got.Alloc, want.Alloc))
	}
	if want.Analysis != got.Analysis {
		ds = append(ds, fmt.Sprintf("analysis stats %+v, alone %+v", got.Analysis, want.Analysis))
	}
	if w, g := want.Pressure(), got.Pressure(); !reflect.DeepEqual(w, g) {
		ds = append(ds, fmt.Sprintf("pressure %+v, alone %+v", g, w))
	}
	if len(want.Passes) != len(got.Passes) {
		return append(ds, fmt.Sprintf("%d pass records, alone %d", len(got.Passes), len(want.Passes)))
	}
	for j, w := range want.Passes {
		g := *got.Passes[j]
		g.DurationNS = w.DurationNS
		if !reflect.DeepEqual(*w, g) {
			ds = append(ds, fmt.Sprintf("pass record %d (%s) differs: %+v, alone %+v", j, w.Name, g, *w))
		}
	}
	return ds
}

// regionPlaces lists, per promotion region, the positions its Body,
// Exits and Pad blocks hold in the final function (-1 for a block a
// later pass removed).
func regionPlaces(c *driver.Compilation) [][]int {
	var out [][]int
	for _, r := range c.Promote.Regions {
		fn := c.Module.Funcs[r.Func]
		var at []int
		for _, b := range r.Body {
			at = append(at, fn.BlockIndex(b))
		}
		at = append(at, -2)
		for _, b := range r.Exits {
			at = append(at, fn.BlockIndex(b))
		}
		out = append(out, append(at, -2, fn.BlockIndex(r.Pad)))
	}
	return out
}

// matrixConfigLists are the configuration lists the equivalence tests
// compile as one matrix each.
func matrixConfigLists() map[string][]driver.Config {
	var diff []driver.Config
	for _, nc := range driver.DifferentialConfigurations(false) {
		diff = append(diff, nc.Config)
	}
	return map[string][]driver.Config{
		"paper":        driver.Configurations(),
		"differential": diff,
	}
}

// TestCompileMatrixMatchesSeparate holds CompileMatrix to compiling
// each configuration alone: for the suite and testgen seeds 1–40,
// under the paper's four configurations and the full differential
// matrix, every configuration's IL, pass records (time aside),
// statistics and pressure reports must be the same either way. The
// matrix runs at the default worker count, its branches in parallel,
// and each configuration alone on one worker.
func TestCompileMatrixMatchesSeparate(t *testing.T) {
	for list, cfgs := range matrixConfigLists() {
		for _, p := range matrixPrograms() {
			for _, d := range matrixMismatches(t, p, cfgs, fullMatrix, obs.NewTracer) {
				t.Errorf("%s: %s", list, d)
			}
		}
	}
}

// TestCompileMatrixSharesPassRecords checks that a pass the matrix ran
// once is one record in every configuration that shares it.
func TestCompileMatrixSharesPassRecords(t *testing.T) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := driver.Configurations()
	cs, err := fe.CompileMatrix(cfgs, obs.NewTracer())
	if err != nil {
		t.Fatal(err)
	}
	// Every configuration shares the clone and the first MOD/REF run;
	// each analysis pair shares the classical passes before promote,
	// and nothing from promote on.
	for i, c := range cs {
		for j := 0; j < 2; j++ {
			if c.Passes[j] != cs[0].Passes[j] {
				t.Errorf("config %d: record %d (%s) is not the shared one", i, j, c.Passes[j].Name)
			}
		}
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		a, b := cs[pair[0]].Passes, cs[pair[1]].Passes
		licm := indexOf(a, driver.PassLICM)
		for j := 0; j <= licm+1; j++ {
			if shared, want := a[j] == b[j], j <= licm; shared != want {
				t.Errorf("configs %v: record %d (%s) shared = %v, want %v", pair, j, a[j].Name, shared, want)
			}
		}
	}
	if cs[1].Passes[len(cs[1].Passes)-1] == cs[3].Passes[len(cs[3].Passes)-1] {
		t.Error("the two analyses share their last record")
	}
}

// indexOf returns the index of the first record named name, or -1.
func indexOf(recs []*obs.PassEvent, name string) int {
	for i, r := range recs {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// TestCompileMatrixNarrowedKeyIsCaught drops each declared key field in
// turn and checks that the comparison behind
// TestCompileMatrixMatchesSeparate reports the configurations the
// narrowed key shares wrongly: the declarations are what keeps the
// matrix sound, and the comparison is what would notice one missing.
// Each case pairs two configurations that differ in that field alone.
func TestCompileMatrixNarrowedKeyIsCaught(t *testing.T) {
	cases := []struct {
		field string
		cfgs  []driver.Config
	}{
		{"PointerPromote", []driver.Config{
			{Analysis: driver.PointsTo, Promote: true},
			{Analysis: driver.PointsTo, Promote: true, PointerPromote: true},
		}},
		{"SkipUnwrittenStores", []driver.Config{
			{Analysis: driver.PointsTo, Promote: true, PointerPromote: true},
			{Analysis: driver.PointsTo, Promote: true, PointerPromote: true, SkipUnwrittenStores: true},
		}},
		{"Throttle", []driver.Config{
			{Analysis: driver.ModRef, Promote: true},
			{Analysis: driver.ModRef, Promote: true, Throttle: 2},
		}},
		{"K", []driver.Config{
			{Analysis: driver.ModRef},
			{Analysis: driver.ModRef, K: 6},
		}},
	}
	for _, tc := range cases {
		narrowed := func(fe *driver.Frontend, cfgs []driver.Config, tr *obs.Tracer) ([]*driver.Compilation, error) {
			return fe.CompileMatrixWithout(tc.field, cfgs, tr)
		}
		caught := false
		for _, p := range matrixPrograms() {
			if len(matrixMismatches(t, p, tc.cfgs, fullMatrix, obs.NewTracer)) > 0 {
				t.Fatalf("%s: %s: the full key already mismatches", tc.field, p.name)
			}
			if len(matrixMismatches(t, p, tc.cfgs, narrowed, obs.NewTracer)) > 0 {
				caught = true
				break
			}
		}
		if !caught {
			t.Errorf("dropping %s from the trie key went unnoticed", tc.field)
		}
	}
}

// TestCompileMatrixPerPassModes runs the matrix under the two modes
// that split every per-function pass into its own group — a lint check
// after every pass and an IL dump after every pass — and holds each
// to compiling alone, dumps included.
func TestCompileMatrixPerPassModes(t *testing.T) {
	progs := matrixPrograms()
	progs = append(progs[:4], progs[len(progs)-4:]...)
	diff := matrixConfigLists()["differential"]
	checked := make([]driver.Config, len(diff))
	for i, cfg := range diff {
		cfg.Check = driver.CheckEveryPass
		checked[i] = cfg
	}
	dumpAll := func() *obs.Tracer {
		tr := obs.NewTracer()
		tr.DumpPass = obs.DumpAll
		return tr
	}
	for _, p := range progs {
		for _, d := range matrixMismatches(t, p, checked, fullMatrix, obs.NewTracer) {
			t.Errorf("check=pass: %s", d)
		}
		for _, d := range matrixMismatches(t, p, diff, fullMatrix, dumpAll) {
			t.Errorf("dump-ir=all: %s", d)
		}
	}
}

// TestCompileMatrixErrors checks how a matrix reports failures: per
// configuration, with the failing ones nil and the rest compiled, and
// an error at a shared pass reported for every configuration below it.
func TestCompileMatrixErrors(t *testing.T) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	// A dump of promote is an error for the configurations without it.
	tr := obs.NewTracer()
	tr.DumpPass = driver.PassPromote
	cs, err := fe.CompileMatrix(driver.Configurations(), tr)
	var merr *driver.MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error %v is not a *MatrixError", err)
	}
	for i, c := range cs {
		promotes := driver.Configurations()[i].Promote
		if (c != nil) != promotes || (merr.Errs[i] == nil) != promotes {
			t.Errorf("config %d: compilation %v, error %v", i, c != nil, merr.Errs[i])
		}
	}

	// Two identical one-register configurations share the allocation
	// that fails; both report it, and so does the compile alone.
	cfg := driver.Config{Analysis: driver.ModRef, K: 1}
	alone, aloneErr := fe.Compile(cfg, nil)
	if aloneErr == nil || alone != nil {
		t.Fatalf("K=1 compiled alone: %v", aloneErr)
	}
	cs, err = fe.CompileMatrix([]driver.Config{cfg, cfg, {Analysis: driver.ModRef}}, nil)
	if !errors.As(err, &merr) {
		t.Fatalf("error %v is not a *MatrixError", err)
	}
	for i := 0; i < 2; i++ {
		if cs[i] != nil || merr.Errs[i] == nil || merr.Errs[i].Error() != aloneErr.Error() {
			t.Errorf("config %d: error %v, want %v", i, merr.Errs[i], aloneErr)
		}
	}
	if cs[2] == nil || merr.Errs[2] != nil {
		t.Errorf("config 2: error %v", merr.Errs[2])
	}
	if !strings.Contains(err.Error(), "config 1:") {
		t.Errorf("error %q does not name config 1", err)
	}
}

// TestCompileMatrixConcurrent runs matrices over one Frontend from
// several goroutines at once (run it under -race): each must compile
// exactly what a lone call does.
func TestCompileMatrixConcurrent(t *testing.T) {
	p := matrixPrograms()[len(matrixPrograms())-1]
	fe, err := driver.ParseSource(p.name+".c", p.src)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := matrixConfigLists()["differential"]
	want, err := fe.CompileMatrix(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	got := make([][]*driver.Compilation, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = fe.CompileMatrix(cfgs, nil)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for j, c := range got[i] {
			if ir.FormatModule(c.Module) != ir.FormatModule(want[j].Module) {
				t.Errorf("caller %d config %d: IL differs from a lone call", i, j)
			}
		}
	}
	if n := fe.Clones(); n != int64((callers+1)*len(cfgs)) {
		t.Errorf("%d clones, want %d", n, (callers+1)*len(cfgs))
	}
}

// memoCounts compiles seeds start..start+n-1 under the differential
// matrix with the given worker count, traced, and sums the memo
// lookups and hits the compile spans report.
func memoCounts(t *testing.T, start, n int64, workers int) (lookups, hits int64) {
	t.Helper()
	cfgs := matrixConfigLists()["differential"]
	for i := range cfgs {
		cfgs[i].Workers = workers
	}
	for seed := start; seed < start+n; seed++ {
		fe, err := driver.ParseSource("seed.c", testgen.Program(seed))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		if _, err := fe.CompileMatrix(cfgs, tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "compile" && sp.Cat == "compile" {
				lookups += sp.Args["memo.lookups"]
				hits += sp.Args["memo.hits"]
			}
		}
	}
	return lookups, hits
}

// TestMemoHitsAreDeterministic holds the final-segment memo's counts
// to the schedule: one worker and four must look up and hit the same
// number of times (the entries are singleflight).
func TestMemoHitsAreDeterministic(t *testing.T) {
	l1, h1 := memoCounts(t, 1, 16, 1)
	l4, h4 := memoCounts(t, 1, 16, 4)
	if l1 != l4 || h1 != h4 {
		t.Errorf("Workers 1: %d hits of %d lookups; Workers 4: %d of %d", h1, l1, h4, l4)
	}
	if l1 == 0 {
		t.Error("the differential matrix never consulted the memo")
	}
}

// TestMemoHitFloor: over testgen seeds 1–32 under the differential
// matrix, at least 45% of the final segments must be copies. Most
// functions leave promotion unchanged in several configurations; a
// key that folded in something configuration-specific beyond the
// segment's passes would lose those hits.
func TestMemoHitFloor(t *testing.T) {
	lookups, hits := memoCounts(t, 1, 32, 0)
	if lookups == 0 || float64(hits) < 0.45*float64(lookups) {
		t.Errorf("%d hits of %d final segments, want at least 45%%", hits, lookups)
	}
}

// TestOneConfigCompileHasNoMemo: a lone compile consults no memo.
func TestOneConfigCompileHasNoMemo(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := driver.Compile("seed.c", testgen.Program(1), driver.Configurations()[3], tr); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Cat == "memo" || sp.Args["memo.lookups"] != 0 {
			t.Errorf("span %s: a one-configuration compile used the memo", sp.Name)
		}
	}
}
