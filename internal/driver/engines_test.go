package driver

import (
	"reflect"
	"testing"

	"regpromo/internal/interp"
)

// TestParseEngines is the table over every engine-list spelling the
// CLI accepts. The list-valued flag (`rpfuzz -engines`) routes
// through ParseEngines: names resolve in first-mention order, the "both"
// and "all" shorthands expand, duplicates collapse, and an unknown
// name is rejected with the canonical [engine] diagnostic instead of
// failing deep in execution.
func TestParseEngines(t *testing.T) {
	flat, sw, nat := interp.EngineFlat, interp.EngineSwitch, interp.EngineNative
	cases := []struct {
		spec    string
		want    []interp.Engine
		wantErr string
	}{
		{spec: "", want: []interp.Engine{flat}},
		{spec: "flat", want: []interp.Engine{flat}},
		{spec: "switch", want: []interp.Engine{sw}},
		{spec: "native", want: []interp.Engine{nat}},
		{spec: "both", want: []interp.Engine{flat, sw}},
		{spec: "all", want: []interp.Engine{flat, sw, nat}},
		{spec: "flat,native", want: []interp.Engine{flat, nat}},
		// First-mention order is preserved, not canonicalized.
		{spec: "native,flat", want: []interp.Engine{nat, flat}},
		// Spaces around commas are tolerated (shell quoting habits).
		{spec: " flat , native ", want: []interp.Engine{flat, nat}},
		// Duplicates and overlapping shorthands collapse.
		{spec: "flat,flat,both", want: []interp.Engine{flat, sw}},
		{spec: "all,native", want: []interp.Engine{flat, sw, nat}},
		{spec: "native,both", want: []interp.Engine{nat, flat, sw}},
		// Unknown names fail with the canonical diagnostic — same
		// line for the same typo from every binary.
		{spec: "bogus", wantErr: `[engine] unknown engine "bogus" (want flat, switch, native, both, or all)`},
		{spec: "flat,bogus", wantErr: `[engine] unknown engine "bogus" (want flat, switch, native, both, or all)`},
		// Case matters: engine names are exact.
		{spec: "Flat", wantErr: `[engine] unknown engine "Flat" (want flat, switch, native, both, or all)`},
		{spec: "flat native", wantErr: `[engine] unknown engine "flat native" (want flat, switch, native, both, or all)`},
	}
	for _, c := range cases {
		got, err := ParseEngines(c.spec)
		if c.wantErr != "" {
			if err == nil {
				t.Errorf("ParseEngines(%q) = %v, want error", c.spec, got)
			} else if err.Error() != c.wantErr {
				t.Errorf("ParseEngines(%q) error = %q, want %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEngines(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseEngines(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

// TestParseEngine covers the single-engine flag (`rpexec -engine`):
// the three engine names and the empty default resolve, while the
// list spellings ParseEngines accepts are rejected here — a flag that
// selects exactly one engine must not silently take the first of a
// list.
func TestParseEngine(t *testing.T) {
	cases := []struct {
		spec    string
		want    interp.Engine
		wantErr string
	}{
		{spec: "", want: interp.EngineFlat},
		{spec: "flat", want: interp.EngineFlat},
		{spec: "switch", want: interp.EngineSwitch},
		{spec: "native", want: interp.EngineNative},
		{spec: "bogus", wantErr: `[engine] unknown engine "bogus" (want flat, switch, or native)`},
		{spec: "both", wantErr: `[engine] unknown engine "both" (want flat, switch, or native)`},
		{spec: "all", wantErr: `[engine] unknown engine "all" (want flat, switch, or native)`},
		{spec: "flat,native", wantErr: `[engine] unknown engine "flat,native" (want flat, switch, or native)`},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.spec)
		if c.wantErr != "" {
			if err == nil {
				t.Errorf("ParseEngine(%q) = %v, want error", c.spec, got)
			} else if err.Error() != c.wantErr {
				t.Errorf("ParseEngine(%q) error = %q, want %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}
