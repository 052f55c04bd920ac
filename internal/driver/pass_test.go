package driver

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"regpromo/internal/ir"
	"regpromo/internal/obs"
)

const passTestSrc = `
int total;
int hits;
void record(int v) { hits += v; }
int main(void) {
	int i;
	for (i = 0; i < 100; i++) {
		total += i;
		if (i % 10 == 0) record(i);
	}
	print_int(total);
	print_int(hits);
	return 0;
}`

// passNames lists a traced compile's records in order.
func passNames(c *Compilation) []string {
	names := make([]string, len(c.Passes))
	for i, e := range c.Passes {
		names[i] = e.Name
	}
	return names
}

// passRecord returns the first record with the given pass name, or nil.
func passRecord(c *Compilation, name string) *obs.PassEvent {
	for _, e := range c.Passes {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// TestEveryPassFiresOncePerConfig compiles under each paper
// configuration with a tracer attached and checks the recorded pass
// list is exactly the configuration's pass list (front end first),
// with no pass repeated or skipped.
func TestEveryPassFiresOncePerConfig(t *testing.T) {
	for _, cfg := range Configurations() {
		c, err := Compile("t.c", passTestSrc, cfg, obs.NewTracer())
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		want := append([]string{PassFrontend}, cfg.Passes()...)
		got := passNames(c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: pass stream = %v, want %v", cfg, got, want)
		}
		// The pointer pipeline runs MOD/REF twice by design (§4: the
		// analysis is repeated over the refined module), so multiplicity
		// is checked against the configuration's own pass list rather
		// than a flat once-each rule.
		wantCount := map[string]int{}
		for _, n := range want {
			wantCount[n]++
		}
		seen := map[string]int{}
		for _, n := range got {
			seen[n]++
		}
		for n, c := range seen {
			if c != wantCount[n] {
				t.Errorf("%+v: pass %s fired %d times, want %d", cfg, n, c, wantCount[n])
			}
		}
		for i, e := range c.Passes {
			if e.Index != i {
				t.Errorf("%+v: event %s has index %d, want %d", cfg, e.Name, e.Index, i)
			}
		}
	}
}

// TestPassDeltasChain checks internal consistency of the recorded IR
// snapshots: pass N's after-state is pass N+1's before-state, and the
// final state matches a fresh measurement of the compiled module.
func TestPassDeltasChain(t *testing.T) {
	for _, cfg := range Configurations() {
		c, err := Compile("t.c", passTestSrc, cfg, obs.NewTracer())
		if err != nil {
			t.Fatal(err)
		}
		evs := c.Passes
		for i := 1; i < len(evs); i++ {
			if evs[i].Before != evs[i-1].After {
				t.Errorf("%+v: %s.Before = %+v, want previous pass %s.After = %+v",
					cfg, evs[i].Name, evs[i].Before, evs[i-1].Name, evs[i-1].After)
			}
		}
		final := evs[len(evs)-1].After
		if got := obs.Measure(c.Module); got != final {
			t.Errorf("%+v: final snapshot %+v != measured module %+v", cfg, final, got)
		}
	}
}

// TestPromotionPassVisibleInTrace is the acceptance check: with
// promotion on, the promote pass's delta must show a nonzero
// reduction in in-loop tagged (scalar) loads and stores — the lifted
// load/store pair keeps module totals flat, but the loop census must
// drop — and its extra stats must carry the promotion counters.
func TestPromotionPassVisibleInTrace(t *testing.T) {
	c, err := Compile("t.c", passTestSrc, modRefPromote(), obs.NewTracer())
	if err != nil {
		t.Fatal(err)
	}
	ev := passRecord(c, PassPromote)
	if ev == nil {
		t.Fatal("no promote event recorded")
	}
	d := ev.Delta()
	if d.Loop.ScalarLoads >= 0 || d.Loop.ScalarStores >= 0 {
		t.Fatalf("promotion should reduce in-loop tagged loads and stores, delta = %+v", d.Loop)
	}
	if ev.Extra["scalar_promotions"] <= 0 {
		t.Fatalf("promote extras missing scalar_promotions: %v", ev.Extra)
	}
}

// TestObservedCompileMatchesUnobserved: tracing must not change what
// the compiler produces, whichever walk it selects. Under every
// differential configuration the optimized IL of a one-worker compile,
// a per-pass-checked compile, an all-pass IL dump and a plain traced
// compile must equal the untraced compile's byte for byte.
func TestObservedCompileMatchesUnobserved(t *testing.T) {
	for _, nc := range DifferentialConfigurations(false) {
		plain, err := CompileSource("t.c", passTestSrc, nc.Config)
		if err != nil {
			t.Fatal(err)
		}
		want := ir.FormatModule(plain.Module)
		oneWorker, checked := nc.Config, nc.Config
		oneWorker.Workers = 1
		checked.Check = CheckEveryPass
		dumpAll := obs.NewTracer()
		dumpAll.DumpPass = obs.DumpAll
		for _, v := range []struct {
			name string
			cfg  Config
			tr   *obs.Tracer
		}{
			{"workers=1", oneWorker, nil},
			{"check=pass", checked, nil},
			{"dump=all", nc.Config, dumpAll},
			{"traced", nc.Config, obs.NewTracer()},
		} {
			c, err := Compile("t.c", passTestSrc, v.cfg, v.tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", nc.Name, v.name, err)
			}
			if got := ir.FormatModule(c.Module); got != want {
				t.Fatalf("%s/%s: IL differs from the untraced compile:\n--- untraced\n%s\n--- %s\n%s", nc.Name, v.name, want, v.name, got)
			}
			if plain.Promote.Counters() != c.Promote.Counters() || plain.Alloc != c.Alloc {
				t.Fatalf("%s/%s: statistics differ from the untraced compile", nc.Name, v.name)
			}
			if (v.tr != nil) != (c.Passes != nil) {
				t.Fatalf("%s/%s: %d pass records with tracer %v", nc.Name, v.name, len(c.Passes), v.tr != nil)
			}
		}
	}
}

// TestDriverEventsRoundTripJSON serializes a real compilation's pass
// records and checks they survive a JSON round trip intact.
func TestDriverEventsRoundTripJSON(t *testing.T) {
	tr := obs.NewTracer()
	tr.DumpPass = PassPromote
	c, err := Compile("t.c", passTestSrc, modRefPromote(), tr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(c.Passes)
	if err != nil {
		t.Fatal(err)
	}
	var back []*obs.PassEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c.Passes) {
		t.Fatal("driver pass records do not round-trip through JSON")
	}
	for _, e := range c.Passes {
		if (e.IRDump != "") != (e.Name == PassPromote) {
			t.Errorf("pass %s: IR dump present = %v, want only on %s", e.Name, e.IRDump != "", PassPromote)
		}
	}
}

// TestRecordTimesComeFromSpans checks each record's duration is its
// pass's span time: a barrier's record equals its tid-0 pass span, and
// a per-function pass's record equals the sum of its per-function
// spans.
func TestRecordTimesComeFromSpans(t *testing.T) {
	tr := obs.NewTracer()
	cfg := Config{Analysis: PointsTo, Promote: true, Workers: 2}
	c, err := Compile("t.c", passTestSrc, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The pointer pipeline runs MOD/REF twice; sum both sides per name.
	spanNS := map[string]int64{}
	for _, sp := range tr.Spans() {
		if sp.Cat == "pass" {
			spanNS[sp.Name] += sp.DurNS
		}
	}
	recNS := map[string]int64{}
	for _, e := range c.Passes {
		recNS[e.Name] += e.DurationNS
	}
	if fmt.Sprint(spanNS) != fmt.Sprint(recNS) {
		t.Fatalf("record times %v differ from pass span times %v", recNS, spanNS)
	}
}

// TestRejectsUnknownDumpPass checks a dump request naming no stage of
// the compile fails before the front end runs, with the stage list in
// the error, and that both front-end stage names are accepted where
// they run.
func TestRejectsUnknownDumpPass(t *testing.T) {
	cfg := modRefPromote()
	tr := obs.NewTracer()
	tr.DumpPass = "typo"
	// Unparsable source: a request that reached the front end would
	// report a parse error instead.
	_, err := Compile("t.c", "int main( {", cfg, tr)
	if err == nil || !strings.Contains(err.Error(), `"typo"`) {
		t.Fatalf("err = %v, want an unknown-pass error naming \"typo\"", err)
	}
	if want := strings.Join(append([]string{PassFrontend}, cfg.Passes()...), " "); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want the stage list %q", err, want)
	}
	if len(tr.Spans()) != 0 {
		t.Errorf("rejected request still ran %d spans", len(tr.Spans()))
	}
	fe, err := ParseSource("t.c", passTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr.DumpPass = PassFrontend
	if _, err := fe.Compile(cfg, tr); err == nil {
		t.Errorf("a forked compile accepted a dump of %q, which it does not run", PassFrontend)
	}
	for _, name := range []string{PassFrontendReuse, PassRegalloc, obs.DumpAll} {
		tr.DumpPass = name
		c, err := fe.Compile(cfg, tr)
		if err != nil {
			t.Fatalf("dump %q: %v", name, err)
		}
		if name != obs.DumpAll && passRecord(c, name).IRDump == "" {
			t.Errorf("dump %q: no IL captured", name)
		}
	}
	tr.DumpPass = PassFrontend
	if _, err := Compile("t.c", passTestSrc, cfg, tr); err != nil {
		t.Errorf("dump %q: %v", PassFrontend, err)
	}
}

// modRefPromote is the paper's principal configuration, shared by the
// observability tests.
func modRefPromote() Config {
	return Config{Analysis: ModRef, Promote: true}
}
