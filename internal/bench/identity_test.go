package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regpromo/internal/driver"
	"regpromo/internal/interp"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/identity.txt from the current compiler and engines")

const identityFile = "testdata/identity.txt"

// identityOptions are the rpbench flag sets the identity gate pins:
// the default tables, -k 8, -certify and -pointerpromo.
var identityOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"k8", Options{K: 8}},
	{"certify", Options{Certify: true}},
	{"pointerpromo", Options{PointerPromotion: true}},
}

// identityReport renders everything the gate pins: Figures 5–8 as
// FormatTable prints them under each of identityOptions, then the
// counts line rpexec -q prints for every suite program under each of
// driver.Configurations(), on the flat and on the switch engine.
func identityReport(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, io := range identityOptions {
		fr, err := RunFigures(io.opts)
		if err != nil {
			t.Fatalf("figures %s: %v", io.name, err)
		}
		fmt.Fprintf(&sb, "== figures %s\n", io.name)
		for _, m := range figureMetrics {
			sb.WriteString(FormatTable(m, fr.Rows[m]))
		}
	}
	engines := []interp.Engine{interp.EngineFlat, interp.EngineSwitch}
	for _, p := range Suite() {
		for _, cfg := range driver.Configurations() {
			c, err := driver.Compile(p.Name+".c", Source(p), cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			name := cfg.Analysis.String()
			if cfg.Promote {
				name += "+promote"
			}
			for _, e := range engines {
				res, err := c.Execute(interp.Options{MaxSteps: 1 << 33, Engine: e})
				if err != nil {
					t.Fatalf("%s %s %s: %v", p.Name, name, e, err)
				}
				fmt.Fprintf(&sb, "== rpexec %s %s %s\nexit=%d ops=%d loads=%d stores=%d copies=%d calls=%d\n",
					p.Name, name, e, res.Exit, res.Counts.Ops, res.Counts.Loads, res.Counts.Stores,
					res.Counts.Copies, res.Counts.Calls)
			}
		}
	}
	return sb.String()
}

// TestIdentityGate holds the figure tables and the per-program counts
// byte-equal to testdata/identity.txt. A change meant to keep every
// count must pass it untouched; a change that means to alter counts
// regenerates the file with -update and lists the diff. The gate adds
// to the driver's IL fingerprints and to the root baseline test and
// replaces neither.
func TestIdentityGate(t *testing.T) {
	got := identityReport(t)
	path := filepath.FromSlash(identityFile)
	if *updateIdentity {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if want := string(data); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
	}
}
