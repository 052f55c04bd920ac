package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a clock advancing stepNS per reading, starting at
// stepNS. With newTracerClock the first reading becomes the epoch, so
// span times are deterministic.
func fakeClock(stepNS int64) func() time.Time {
	var t int64
	return func() time.Time {
		t += stepNS
		return time.Unix(0, t)
	}
}

// TestChromeTraceGolden pins the Chrome trace_event encoding: metadata
// thread_name events first (sorted by tid), then complete "X" events
// with microsecond ts/dur, pid 1, and the span's args and labels
// merged into the event args.
func TestChromeTraceGolden(t *testing.T) {
	tr := newTracerClock(fakeClock(1000)) // epoch = 1µs
	tr.NameThread(0, "main")
	tr.NameThread(1, "worker 0")
	outer := tr.Start("compile", "compile", 0)                                      // start 2µs → ts 1
	inner := tr.Start("promote", "pass", 1).Arg("promotions", 3).Label("f", "main") // start 3µs → ts 2
	// inner ends at 4µs → dur 1, then outer at 5µs → dur 3.
	if d := inner.End(); d != 1000 {
		t.Errorf("inner End() = %dns, want 1000", d)
	}
	if d := outer.End(); d != 3000 {
		t.Errorf("outer End() = %dns, want 3000", d)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"main"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"worker 0"}},` +
		`{"name":"compile","cat":"compile","ph":"X","ts":1,"dur":3,"pid":1,"tid":0},` +
		`{"name":"promote","cat":"pass","ph":"X","ts":2,"dur":1,"pid":1,"tid":1,"args":{"f":"main","promotions":3}}` +
		`],"displayTimeUnit":"ms"}`
	if got := compact.String(); got != want {
		t.Errorf("Chrome trace mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestChromeTraceZeroDuration checks that a zero-length span still
// carries an explicit "dur":0 — trace viewers drop events without a
// dur field entirely.
func TestChromeTraceZeroDuration(t *testing.T) {
	tr := newTracerClock(func() time.Time { return time.Unix(0, 0) })
	tr.Start("instant", "pass", 0).End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[{"name":"instant","cat":"pass","ph":"X","ts":0,"dur":0,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`
	if got := compact.String(); got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
}

// TestSpanJSONRoundTrip checks that the plain span-list encoding
// decodes back to the exact spans the tracer recorded.
func TestSpanJSONRoundTrip(t *testing.T) {
	tr := newTracerClock(fakeClock(1000))
	tr.Start("a", "pass", 0).Arg("n", 7).End()
	tr.Start("b", "analysis", 2).Label("engine", "flat").AddArgs(map[string]int64{"x": 1, "y": 2}).End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []SpanEvent
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if want := tr.Spans(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed spans:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSpansSorted checks the deterministic ordering contract: spans
// come back sorted by start time, ties broken by TID then name,
// whatever order they were completed in.
func TestSpansSorted(t *testing.T) {
	// A frozen clock makes every span start at 0, so ordering falls
	// entirely to the TID/name tie-breaks.
	tr := newTracerClock(func() time.Time { return time.Unix(0, 0) })
	tr.Start("z", "", 2).End()
	tr.Start("a", "", 2).End()
	tr.Start("m", "", 1).End()
	var got []string
	for _, sp := range tr.Spans() {
		got = append(got, sp.Name)
	}
	want := []string{"m", "a", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("span order = %v, want %v", got, want)
	}
}

// TestNilTracerNoOps checks the zero-cost-when-disabled contract: a
// nil tracer hands out inert spans and ignores every call.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("compile", "compile", 0)
	sp = sp.Arg("n", 1).AddArgs(map[string]int64{"m": 2}).Label("k", "v")
	if d := sp.End(); d != 0 {
		t.Errorf("inert span End() = %d, want 0", d)
	}
	tr.NameThread(0, "main")
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer recorded spans: %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestTracerConcurrent checks that spans can start and end on many
// goroutines at once (the parallel middle end's usage) without losing
// any.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr.NameThread(w, "worker")
			for i := 0; i < per; i++ {
				tr.Start("fn", "middleend", w).Arg("i", int64(i)).End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*per {
		t.Errorf("recorded %d spans, want %d", got, workers*per)
	}
}
