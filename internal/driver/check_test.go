package driver_test

import (
	"reflect"
	"strings"
	"testing"

	"regpromo/internal/driver"
)

// TestParseCheck covers the extended -check grammar: the three level
// keywords (and every CheckLevel's String) still parse as levels with
// no pass selection, while any
// other spelling is a comma list of lint-pass names — validated
// against the registry, deduplicated in first-mention order, and
// rejected with the canonical [check] diagnostic otherwise.
func TestParseCheck(t *testing.T) {
	cases := []struct {
		in        string
		wantLevel driver.CheckLevel
		wantPass  []string
		wantErr   string
	}{
		{"", driver.CheckOff, nil, ""},
		{"off", driver.CheckOff, nil, ""},
		{"module", driver.CheckModule, nil, ""},
		{"pass", driver.CheckEveryPass, nil, ""},
		{"after-every-pass", driver.CheckEveryPass, nil, ""},
		{"verify", driver.CheckModule, []string{"verify"}, ""},
		{"certify", driver.CheckModule, []string{"certify"}, ""},
		{"pressure", driver.CheckModule, []string{"pressure"}, ""},
		{"tags,certify", driver.CheckModule, []string{"tags", "certify"}, ""},
		{" verify , verify ,cfg", driver.CheckModule, []string{"verify", "cfg"}, ""},
		{"bogus", driver.CheckOff, nil, `unknown check pass "bogus"`},
		{"verify,bogus", driver.CheckOff, nil, `unknown check pass "bogus"`},
	}
	for _, c := range cases {
		level, passes, err := driver.ParseCheck(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseCheck(%q) err = %v, want containing %q", c.in, err, c.wantErr)
			} else if !strings.Contains(err.Error(), "[check]") {
				t.Errorf("ParseCheck(%q) err = %v, want canonical [check] diagnostic", c.in, err)
			}
			continue
		}
		if err != nil || level != c.wantLevel || !reflect.DeepEqual(passes, c.wantPass) {
			t.Errorf("ParseCheck(%q) = %v, %v, %v; want %v, %v", c.in, level, passes, err, c.wantLevel, c.wantPass)
		}
	}
	for _, l := range []driver.CheckLevel{driver.CheckOff, driver.CheckModule, driver.CheckEveryPass} {
		if back, passes, err := driver.ParseCheck(l.String()); err != nil || back != l || passes != nil {
			t.Errorf("CheckLevel %v does not round-trip through String: %v, %v, %v", l, back, passes, err)
		}
	}
}

// TestCheckModuleLevelClean: a module-level check on a normal
// compilation must pass and must not change the compiled output.
func TestCheckModuleLevelClean(t *testing.T) {
	const src = `
int g;
int f(int x) { g = g + x; return g; }
int main(void) { return f(3) + f(4); }
`
	cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, Check: driver.CheckModule}
	if _, err := driver.CompileSource("check_clean.c", src, cfg); err != nil {
		t.Fatalf("clean compilation failed the module check: %v", err)
	}
}
