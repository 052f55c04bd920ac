package driver_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/il_fingerprints.txt from the current compiler")

const fingerprintFile = "testdata/il_fingerprints.txt"

// fingerprintConfigs is the configuration matrix the IL fingerprints
// cover: the paper's four measurement configurations followed by the
// full differential matrix.
func fingerprintConfigs() []driver.NamedConfig {
	var out []driver.NamedConfig
	for _, cfg := range driver.Configurations() {
		name := cfg.Analysis.String()
		if cfg.Promote {
			name += "+promote"
		}
		out = append(out, driver.NamedConfig{Name: name, Config: cfg})
	}
	return append(out, driver.DifferentialConfigurations(false)...)
}

// ilFingerprints compiles every covered (program, configuration) pair
// and returns one "program config sha256" line per compile, in a fixed
// order.
func ilFingerprints(t *testing.T) []string {
	t.Helper()
	type prog struct{ name, src string }
	var progs []prog
	for _, p := range bench.Suite() {
		progs = append(progs, prog{"suite/" + p.Name, bench.Source(p)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs = append(progs, prog{"testgen/" + strconv.FormatInt(seed, 10), testgen.Program(seed)})
	}
	var lines []string
	compile := func(name, src string, nc driver.NamedConfig, fe *driver.Frontend) {
		c, err := fe.Compile(nc.Config, nil)
		if err != nil {
			t.Fatalf("%s under %s: %v", name, nc.Name, err)
		}
		sum := sha256.Sum256([]byte(ir.FormatModule(c.Module)))
		lines = append(lines, fmt.Sprintf("%s %s %x", name, nc.Name, sum))
	}
	parse := func(name, src string) *driver.Frontend {
		fe, err := driver.ParseSource(name+".c", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fe
	}
	for _, p := range progs {
		fe := parse(p.name, p.src)
		for _, nc := range fingerprintConfigs() {
			compile(p.name, p.src, nc, fe)
		}
	}
	scaleCfg := driver.NamedConfig{Name: "pointer+promote", Config: driver.Config{Analysis: driver.PointsTo, Promote: true}}
	for _, seed := range []int64{1, 7} {
		name := "scale60/" + strconv.FormatInt(seed, 10)
		src := testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: 60, Edit: -1})
		compile(name, src, scaleCfg, parse(name, src))
	}
	return lines
}

// TestILFingerprints pins the optimized IL, byte for byte, of the suite
// programs, testgen seeds 1-40 and two small scale-profile modules under
// every measured and differential configuration. A change to a pass's
// data structures must leave every fingerprint as it is; a change that
// means to alter the IL regenerates the file with -update.
func TestILFingerprints(t *testing.T) {
	got := ilFingerprints(t)
	path := filepath.FromSlash(fingerprintFile)
	if *updateFingerprints {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d fingerprints, want %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("IL changed:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d mismatches in all", bad)
	}
}
