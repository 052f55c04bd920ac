package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) *Report {
	t.Helper()
	r, err := LoadReport(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCompareDetectsRegression checks the gate on the committed
// fixture pair: the regressed report grew dynamic ops by 3.75% and
// loads by 12.5%, lost two promotions, spilled once, and pushed a
// promotion site over the register budget, all past the default 1%
// threshold.
func TestCompareDetectsRegression(t *testing.T) {
	old := loadFixture(t, "trend_old.json")
	cur := loadFixture(t, "trend_regressed.json")
	cr := Compare(old, cur, 1.0)
	if cr.OK() {
		t.Fatal("regressed report passed the gate")
	}
	regs := cr.Regressions()
	byMetric := map[string]Delta{}
	for _, d := range regs {
		byMetric[d.Metric] = d
	}
	ops, ok := byMetric["ops"]
	if !ok {
		t.Fatalf("ops regression not flagged; got %v", regs)
	}
	if ops.Old != 80000 || ops.New != 83000 || ops.Percent != 3.75 || !ops.Worse {
		t.Errorf("ops delta = %+v", ops)
	}
	for _, m := range []string{"loads", "promotions", "spilled", "pressure/over_budget", "pressure/max_live"} {
		if _, ok := byMetric[m]; !ok {
			t.Errorf("%s regression not flagged; got %v", m, regs)
		}
	}
	out := cr.Format()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "matmul/modref+promote ops") {
		t.Errorf("format missing regression row:\n%s", out)
	}
}

// TestCompareImprovementDirection swaps the fixture pair: the same
// deltas read as improvements, and the gate passes.
func TestCompareImprovementDirection(t *testing.T) {
	old := loadFixture(t, "trend_regressed.json")
	cur := loadFixture(t, "trend_old.json")
	cr := Compare(old, cur, 1.0)
	if !cr.OK() {
		t.Fatalf("improving report failed the gate: %v", cr.Regressions())
	}
	imps := cr.Improvements()
	var sawOps, sawPromos bool
	for _, d := range imps {
		switch d.Metric {
		case "ops":
			sawOps = true
		case "promotions":
			sawPromos = true
			if d.Worse {
				t.Error("more promotions marked worse")
			}
		}
	}
	if !sawOps || !sawPromos {
		t.Errorf("improvements missing ops/promotions: %v", imps)
	}
}

// TestCompareIdenticalReports: a self-compare finds deltas (every
// metric is reported) but no change past the threshold.
func TestCompareIdenticalReports(t *testing.T) {
	r := loadFixture(t, "trend_old.json")
	cr := Compare(r, r, 1.0)
	if !cr.OK() {
		t.Fatalf("self-compare regressed: %v", cr.Regressions())
	}
	if len(cr.Deltas) == 0 {
		t.Fatal("self-compare produced no deltas")
	}
	if len(cr.Improvements()) != 0 {
		t.Errorf("self-compare improved: %v", cr.Improvements())
	}
	if out := cr.Format(); !strings.Contains(out, "no change past threshold") {
		t.Errorf("format:\n%s", out)
	}
}

// TestCompareThreshold checks that raising the threshold releases the
// gate: every fixture regression is under 200%.
func TestCompareThreshold(t *testing.T) {
	old := loadFixture(t, "trend_old.json")
	cur := loadFixture(t, "trend_regressed.json")
	if cr := Compare(old, cur, 200); !cr.OK() {
		t.Errorf("threshold 200%% still gated: %v", cr.Regressions())
	}
}

// TestCompareSkippedCells: cells present in only one report are
// counted, not silently dropped.
func TestCompareSkippedCells(t *testing.T) {
	old := loadFixture(t, "trend_old.json")
	cur := loadFixture(t, "trend_regressed.json")
	cur.Programs = append(cur.Programs, ProgramReport{
		Name:    "extra",
		Configs: []ConfigReport{{Analysis: "modref"}},
	})
	cr := Compare(old, cur, 1.0)
	if cr.SkippedCells != 1 {
		t.Errorf("SkippedCells = %d, want 1", cr.SkippedCells)
	}
	if out := cr.Format(); !strings.Contains(out, "skipped") {
		t.Errorf("format does not mention skipped cells:\n%s", out)
	}
}

// copyFixture installs a fixture under a BENCH_*.json name in dir.
func copyFixture(t *testing.T, dir, fixture, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBaselineBefore: the newest report other than the excluded one.
func TestBaselineBefore(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, dir, "trend_old.json", "BENCH_20260801T000000.json")
	newest := copyFixture(t, dir, "trend_regressed.json", "BENCH_20260802T000000.json")
	r, path, err := BaselineBefore(dir, newest)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_20260801T000000.json" {
		t.Errorf("baseline = %s", path)
	}
	if r.Timestamp != "2026-08-01T00:00:00Z" {
		t.Errorf("loaded wrong report: %s", r.Timestamp)
	}
	// Excluding the only other file leaves nothing.
	if _, _, err := BaselineBefore(t.TempDir(), "x.json"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty dir: err = %v, want ErrNotExist", err)
	}
}

// TestPct pins the relative-change corner cases.
func TestPct(t *testing.T) {
	cases := []struct {
		old, cur int64
		want     float64
	}{
		{0, 0, 0},
		{0, 5, 100},
		{100, 150, 50},
		{200, 100, -50},
	}
	for _, c := range cases {
		if got := pct(c.old, c.cur); got != c.want {
			t.Errorf("pct(%d, %d) = %v, want %v", c.old, c.cur, got, c.want)
		}
	}
}

// FuzzLoadReport feeds arbitrary bytes through the loader's decoder.
// It must not panic; a report it accepts must compare clean against
// itself and survive a re-encode and decode byte for byte.
func FuzzLoadReport(f *testing.F) {
	for _, name := range []string{"trend_old.json", "trend_regressed.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeReport(data)
		if err != nil {
			return
		}
		cr := Compare(r, r, 1)
		if !cr.OK() || len(cr.Improvements()) != 0 {
			t.Fatalf("self-compare not clean:\n%s", cr.Format())
		}
		var first, second bytes.Buffer
		if err := r.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := decodeReport(first.Bytes())
		if err != nil {
			t.Fatalf("re-encoded report does not load: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("report does not round-trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
