package driver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/obs"
	"regpromo/internal/testgen"
)

// TestTracedParallelCompile compiles with the parallel middle end
// under a tracer and checks the structure of the Chrome export: valid
// JSON, a root compile span on tid 0, and middle-end function spans
// attributed to worker threads (tid >= 1) carrying their worker id.
func TestTracedParallelCompile(t *testing.T) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, Workers: 4}
	if _, err := fe.Compile(cfg, tr); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}

	var sawCompile, sawWorkerSpan, sawThreadName bool
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				sawThreadName = true
			}
		case "X":
			if ev.PID != 1 {
				t.Errorf("span %q: pid = %d, want 1", ev.Name, ev.PID)
			}
			if ev.Dur == nil {
				t.Errorf("span %q: missing dur", ev.Name)
			}
			if ev.Name == "compile" && ev.TID == 0 {
				sawCompile = true
			}
			if ev.Cat == "middleend" {
				if ev.TID < 1 {
					t.Errorf("middle-end span %q on tid %d, want >= 1", ev.Name, ev.TID)
				}
				if _, ok := ev.Args["worker"]; !ok {
					t.Errorf("middle-end span %q: no worker attribute", ev.Name)
				}
				sawWorkerSpan = true
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if !sawCompile {
		t.Error("no root compile span on tid 0")
	}
	if !sawWorkerSpan {
		t.Error("no worker-attributed middle-end span")
	}
	if !sawThreadName {
		t.Error("no thread_name metadata")
	}

	// The span stream must include the analysis fixpoints the driver
	// wraps.
	var sawFixpoint bool
	for _, sp := range tr.Spans() {
		if sp.Cat == "analysis" {
			sawFixpoint = true
		}
	}
	if !sawFixpoint {
		t.Error("no analysis fixpoint span recorded")
	}
}

// laneOverlap names two spans on one tid that overlap without one
// containing the other, or returns "" when every tid's spans nest.
func laneOverlap(spans []obs.SpanEvent) string {
	// Outer spans first where two start together.
	spans = slices.Clone(spans)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].DurNS > spans[j].DurNS
	})
	end := func(sp obs.SpanEvent) int64 { return sp.StartNS + sp.DurNS }
	open := map[int][]obs.SpanEvent{} // per tid, the spans enclosing the current one
	for _, sp := range spans {
		stack := open[sp.TID]
		for len(stack) > 0 && end(stack[len(stack)-1]) <= sp.StartNS {
			stack = stack[:len(stack)-1]
		}
		if n := len(stack); n > 0 && end(stack[n-1]) < end(sp) {
			return fmt.Sprintf("tid %d: %s [%d,%d] overlaps %s [%d,%d]", sp.TID,
				stack[n-1].Name, stack[n-1].StartNS, end(stack[n-1]), sp.Name, sp.StartNS, end(sp))
		}
		open[sp.TID] = append(stack, sp)
	}
	return ""
}

// TestConcurrentBranchesTraceOnOwnLanes compiles the full differential
// matrix of testgen seeds 1–10 at the default worker count, so the
// trie's branches (and any group that finds free CPU slots) run
// concurrently, and checks that the trace still nests on every tid:
// each concurrent branch must trace on lanes of its own.
func TestConcurrentBranchesTraceOnOwnLanes(t *testing.T) {
	cfgs := matrixConfigLists()["differential"]
	for seed := int64(1); seed <= 10; seed++ {
		fe, err := driver.ParseSource(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		if _, err := fe.CompileMatrix(cfgs, tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if o := laneOverlap(tr.Spans()); o != "" {
			t.Errorf("seed %d: %s", seed, o)
		}
	}
}

// TestOneWorkerMatrixStaysOnCaller compiles the differential matrix
// with Workers: 1. Every branch and group then runs on the calling
// goroutine, so no branch claims a lane of its own: the trace holds
// tid 0 (the compile and its barriers) and tid 1 (the groups, as
// worker 0) alone, and still nests.
func TestOneWorkerMatrixStaysOnCaller(t *testing.T) {
	cfgs := matrixConfigLists()["differential"]
	for i := range cfgs {
		cfgs[i].Workers = 1
	}
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	if _, err := fe.CompileMatrix(cfgs, tr); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.TID > 1 || (sp.Cat == "middleend" && sp.Args["worker"] != 0) {
			t.Errorf("span %s on tid %d, worker %d", sp.Name, sp.TID, sp.Args["worker"])
		}
	}
	if o := laneOverlap(tr.Spans()); o != "" {
		t.Error(o)
	}
}

// benchCompileExecute is one compile+execute of the first suite
// program, the unit BenchmarkObsOverhead compares with observability
// off and on.
func benchCompileExecute(b *testing.B, fe *driver.Frontend, tr *obs.Tracer) {
	cfg := driver.Config{Analysis: driver.ModRef, Promote: true}
	c, err := fe.Compile(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Execute(interp.Options{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObsOverhead quantifies the observability tax on one
// compile and run. The "off" variant is the default state, with no
// tracer: it reads no clock and measures nothing. The "spans" variant
// pays for full tracing, every span plus every pass record's census;
// the gap between the two is the tracer's cost.
func BenchmarkObsOverhead(b *testing.B) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchCompileExecute(b, fe, nil)
		}
	})
	b.Run("spans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchCompileExecute(b, fe, obs.NewTracer())
		}
	})
}
