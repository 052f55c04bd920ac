package driver_test

import (
	"reflect"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/regalloc"
)

// TestParallelMatchesSerial checks the worker pool's core contract:
// for every suite program under every differential configuration, a
// reference compile that runs pass-major on one worker — every
// function through one pass before the next pass starts, because an
// all-pass IL dump runs each per-function pass as its own one-pass
// group — and a function-major compile on four workers produce
// byte-identical IL and pass records that agree on every field except
// duration_ns.
func TestParallelMatchesSerial(t *testing.T) {
	for _, p := range bench.Suite() {
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		for _, nc := range driver.DifferentialConfigurations(false) {
			t.Run(p.Name+"/"+nc.Name, func(t *testing.T) {
				refCfg, parallelCfg := nc.Config, nc.Config
				refCfg.Workers = 1
				// An explicit worker count forces the multi-worker
				// pool even on single-CPU hosts, where the default
				// (0, one worker per CPU) would degenerate to one
				// worker and test nothing.
				parallelCfg.Workers = 4

				refTr, parallelTr := obs.NewTracer(), obs.NewTracer()
				refTr.DumpPass = obs.DumpAll
				rc, err := fe.Compile(refCfg, refTr)
				if err != nil {
					t.Fatalf("reference compile: %v", err)
				}
				pc, err := fe.Compile(parallelCfg, parallelTr)
				if err != nil {
					t.Fatalf("parallel compile: %v", err)
				}

				rIL, pIL := ir.FormatModule(rc.Module), ir.FormatModule(pc.Module)
				if rIL != pIL {
					t.Fatalf("IL differs between reference and parallel compiles:\n--- reference ---\n%s\n--- parallel ---\n%s", rIL, pIL)
				}
				if rc.Promote.Counters() != pc.Promote.Counters() {
					t.Errorf("promote stats differ: reference %+v, parallel %+v", rc.Promote, pc.Promote)
				}
				if rc.Alloc != pc.Alloc {
					t.Errorf("alloc stats differ: reference %+v, parallel %+v", rc.Alloc, pc.Alloc)
				}

				if len(rc.Passes) != len(pc.Passes) {
					t.Fatalf("record counts differ: reference %d, parallel %d", len(rc.Passes), len(pc.Passes))
				}
				for i, re := range rc.Passes {
					pe := pc.Passes[i]
					if re.IRDump == "" || pe.IRDump != "" {
						t.Errorf("%s: IL dumps on the wrong side: reference %d bytes, parallel %d bytes", re.Name, len(re.IRDump), len(pe.IRDump))
					}
					r, q := *re, *pe
					r.DurationNS, q.DurationNS = 0, 0
					r.IRDump = ""
					// The front-end records count cumulative clone
					// reuse on the shared Frontend, which moves
					// between the two compiles by construction.
					if strings.HasPrefix(r.Name, driver.PassFrontend) {
						r.Extra, q.Extra = nil, nil
					}
					if !reflect.DeepEqual(r, q) {
						t.Errorf("record %d differs:\nreference %+v\nparallel  %+v", i, r, q)
					}
				}
				if last := rc.Passes[len(rc.Passes)-1]; last.IRDump != pIL {
					t.Errorf("reference dump after %s differs from the final IL", last.Name)
				}
				if len(refTr.Spans()) == 0 || len(parallelTr.Spans()) == 0 {
					t.Error("a tracer recorded no spans")
				}
			})
		}
	}
}

// TestDumpPassRunsPassMajor checks that an IL-dump request on a
// multi-worker compile gets one dump per pass, taken with the whole
// module at that pass's boundary: every per-function pass runs as its
// own one-pass group, so all of one pass's per-function spans end
// before any span of the next per-function pass starts.
func TestDumpPassRunsPassMajor(t *testing.T) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	tr.DumpPass = obs.DumpAll
	cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, Workers: 4}
	c, err := fe.Compile(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Passes) == 0 {
		t.Fatal("no records")
	}
	for _, ev := range c.Passes {
		if ev.IRDump == "" {
			t.Errorf("pass %s: missing IL dump", ev.Name)
		}
	}

	type window struct{ start, end int64 }
	windows := map[string]*window{}
	var order []string
	for _, sp := range tr.Spans() {
		if sp.Cat != "pass" || sp.Labels["func"] == "" {
			continue
		}
		w := windows[sp.Name]
		if w == nil {
			w = &window{start: sp.StartNS, end: sp.StartNS + sp.DurNS}
			windows[sp.Name] = w
			order = append(order, sp.Name)
		}
		w.start = min(w.start, sp.StartNS)
		w.end = max(w.end, sp.StartNS+sp.DurNS)
	}
	if len(order) < 2 {
		t.Fatalf("per-function passes traced: %v", order)
	}
	for i := 1; i < len(order); i++ {
		prev, next := windows[order[i-1]], windows[order[i]]
		if prev.end > next.start {
			t.Errorf("pass %s started before pass %s finished on every function", order[i], order[i-1])
		}
	}
}

// TestAllocWorkCountsMatchAcrossWorkers holds the allocator's work
// counts (interference edges added, conservative coalescing tests run)
// equal between a one-worker and a four-worker compile of every suite
// program under each paper configuration, both in Compilation.Alloc and
// in the regalloc pass record's edges and probes extras.
func TestAllocWorkCountsMatchAcrossWorkers(t *testing.T) {
	var edges, probes int64
	for _, p := range bench.Suite() {
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		for _, cfg := range driver.Configurations() {
			var extra [2]map[string]int64
			var alloc [2]regalloc.Stats
			for i, workers := range []int{1, 4} {
				cfg.Workers = workers
				c, err := fe.Compile(cfg, obs.NewTracer())
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				alloc[i] = c.Alloc
				for _, ev := range c.Passes {
					if ev.Name == driver.PassRegalloc {
						extra[i] = ev.Extra
					}
				}
			}
			if alloc[0] != alloc[1] {
				t.Errorf("%s %+v: alloc stats differ: one worker %+v, four %+v", p.Name, cfg, alloc[0], alloc[1])
			}
			want := map[string]int64{"edges": int64(alloc[0].Edges), "probes": int64(alloc[0].Probes)}
			for key, n := range want {
				if extra[0][key] != n || extra[1][key] != n {
					t.Errorf("%s %+v: regalloc %s: one worker %d, four %d, stats %d", p.Name, cfg, key, extra[0][key], extra[1][key], n)
				}
			}
			edges += extra[0]["edges"]
			probes += extra[0]["probes"]
		}
	}
	if edges == 0 || probes == 0 {
		t.Fatalf("the suite added %d edges and ran %d probes", edges, probes)
	}
}
