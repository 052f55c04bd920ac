package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCollectReport runs the report on a small subset and checks it
// carries all four configurations per program with their counts, and
// figure rows equal to RunFigures' over the same subset.
func TestCollectReport(t *testing.T) {
	r, err := CollectReport(Options{Programs: []string{"tsp", "dhrystone"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion {
		t.Fatalf("schema = %q", r.Schema)
	}
	if len(r.Programs) != 2 {
		t.Fatalf("got %d programs", len(r.Programs))
	}
	for _, p := range r.Programs {
		if len(p.Configs) != 4 {
			t.Fatalf("%s: got %d configs, want the paper's 4", p.Name, len(p.Configs))
		}
		if p.Lines <= 0 {
			t.Fatalf("%s: missing line count", p.Name)
		}
		for _, c := range p.Configs {
			if c.Counts.Ops <= 0 {
				t.Fatalf("%s/%s: no dynamic counts", p.Name, configKey(&c))
			}
			if !c.Promote && (c.Promotions != 0 || len(c.Pressure) != 0) {
				t.Fatalf("%s/%s: promotion diagnostics without promotion", p.Name, configKey(&c))
			}
		}
	}
	fr, err := RunFigures(Options{Programs: []string{"tsp", "dhrystone"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != len(figureMetrics) {
		t.Fatalf("got %d figures", len(r.Figures))
	}
	for i, fig := range r.Figures {
		want := fr.Rows[figureMetrics[i]]
		if fig.Figure != 5+i || len(fig.Rows) != len(want) || len(want) != 4 {
			t.Fatalf("figure %d: %d rows, RunFigures has %d", fig.Figure, len(fig.Rows), len(want))
		}
		for k, w := range want {
			g := fig.Rows[k]
			if g.Program != w.Program || g.Analysis != w.Analysis || g.Without != w.Without ||
				g.With != w.With || g.Difference != w.Difference() || g.PercentRemoved != w.PercentRemoved() {
				t.Fatalf("figure %d row %d disagrees with RunFigures: %+v vs %+v", fig.Figure, k, g, w)
			}
		}
	}
}

// TestReportJSONRoundTripAndBaseline writes a report to a BENCH_*.json
// file, reloads it through the baseline loader, and checks nothing is
// lost.
func TestReportJSONRoundTripAndBaseline(t *testing.T) {
	r, err := CollectReport(Options{Programs: []string{"tsp"}})
	if err != nil {
		t.Fatal(err)
	}
	r.Timestamp = "2026-08-06T00:00:00Z"

	dir := t.TempDir()
	if _, _, err := BaselineBefore(dir, ""); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir should report ErrNotExist, got %v", err)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Two baselines: the loader must pick the newer one.
	old := filepath.Join(dir, "BENCH_20250101T000000.json")
	if err := os.WriteFile(old, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	newer := filepath.Join(dir, "BENCH_20260806T120000.json")
	if err := os.WriteFile(newer, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	back, path, err := BaselineBefore(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if path != newer {
		t.Fatalf("loaded %s, want %s", path, newer)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatal("report does not round-trip through BENCH_*.json")
	}
	p, ok := back.Program("tsp")
	if !ok {
		t.Fatal("tsp missing after reload")
	}
	if c, ok := p.Config("modref", true); !ok || c.Counts.Ops <= 0 {
		t.Fatal("config lookup broken after reload")
	}
}

// TestLoadReportRejectsGarbage: schema and syntax failures are
// reported, not silently accepted. A report at an older schema is an
// error naming both versions, not a read with its missing fields
// zero-filled.
func TestLoadReportRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "BENCH_bad.json")
	for _, c := range []struct{ data, want string }{
		{`{"schema":"other/1"}`, `"other/1"`},
		{`{"schema":"regpromo-bench/6","programs":[]}`, `schema "regpromo-bench/6", want "` + SchemaVersion + `"`},
		{`{`, "unexpected end"},
		{`{"schema":"` + SchemaVersion + `","programs":[{"name":"a","configs":[{"compile_ns":1}]}]}`, "compile_ns"},
		{`{"schema":"` + SchemaVersion + `","programs":[{"name":"a"},{"name":"a"}]}`, "listed twice"},
		{`{"schema":"` + SchemaVersion + `","programs":[{"name":"a","configs":[{"analysis":"modref"},{"analysis":"modref"}]}]}`, "listed twice"},
	} {
		if err := os.WriteFile(bad, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadReport(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), bad) {
			t.Errorf("LoadReport(%s) = %v, want an error naming the file and %s", c.data, err, c.want)
		}
	}
}

// poolPrograms is a small, cheap subset used by the determinism tests.
var poolPrograms = []string{"allroots", "dhrystone", "tsp"}

// TestRunFiguresParallelDeterminism: the parallel measurement matrix
// must render byte-identical tables to the serial one.
func TestRunFiguresParallelDeterminism(t *testing.T) {
	serial, err := RunFigures(Options{Programs: poolPrograms})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFigures(Options{Programs: poolPrograms, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{TotalOps, Stores, Loads, WeightedCycles} {
		s, p := FormatTable(m, serial.Rows[m]), FormatTable(m, par.Rows[m])
		if s != p {
			t.Errorf("%s: parallel table differs from serial\nserial:\n%s\nparallel:\n%s", m, s, p)
		}
	}
	if !reflect.DeepEqual(serial.Promotions, par.Promotions) || !reflect.DeepEqual(serial.Spills, par.Spills) {
		t.Error("diagnostic maps differ between serial and parallel runs")
	}
}

// TestCollectReportParallelDeterminism: the JSON report must be
// byte-identical however the programs were scheduled.
func TestCollectReportParallelDeterminism(t *testing.T) {
	render := func(parallel int) []byte {
		r, err := CollectReport(Options{Programs: poolPrograms, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if s, p := render(1), render(4); !bytes.Equal(s, p) {
		t.Error("parallel report differs from serial report")
	}
}
