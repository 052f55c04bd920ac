package regalloc_test

import (
	"fmt"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/regalloc"
	"regpromo/internal/testgen"
)

// TestCoalescedRowsHoldUsedRepresentatives checks, on every suite
// program under each paper configuration and K=8 (which spills), that
// coalescing leaves the interference rows in the shape color reads
// them in place.
func TestCoalescedRowsHoldUsedRepresentatives(t *testing.T) {
	spilled := 0
	for _, p := range bench.Suite() {
		for _, cfg := range driver.Configurations() {
			cfg.NoAlloc = true
			c, err := driver.Compile(p.Name+".c", bench.Source(p), cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, fn := range c.Module.FuncsInOrder() {
				rounds, err := regalloc.CheckCoalescedRows(fn, 8, &c.Module.Tags)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if rounds > 1 {
					spilled++
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no function spilled at K=8, so no spill round was checked")
	}
}

// TestConservativeTestsMatchReference holds coalescing's early-exit
// Briggs and George tests and its pending-move sweeps to the full-scan
// reference: the same verdict at every probe and the same merges, on
// every suite program and testgen seeds 1–40 under each paper
// configuration, at K=8 (which spills) and at DefaultK.
func TestConservativeTestsMatchReference(t *testing.T) {
	type unit struct{ name, src string }
	var units []unit
	for _, p := range bench.Suite() {
		units = append(units, unit{p.Name, bench.Source(p)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		units = append(units, unit{fmt.Sprintf("seed%d", seed), testgen.Program(seed)})
	}
	probes := 0
	for _, u := range units {
		for _, cfg := range driver.Configurations() {
			for _, k := range []int{8, regalloc.DefaultK} {
				cfg.NoAlloc = true
				c, err := driver.Compile(u.name+".c", u.src, cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", u.name, err)
				}
				for _, fn := range c.Module.FuncsInOrder() {
					n, err := regalloc.CheckConservativeTests(fn, k, &c.Module.Tags)
					if err != nil {
						t.Fatalf("%s K=%d: %v", u.name, k, err)
					}
					probes += n
				}
			}
		}
	}
	if probes == 0 {
		t.Fatal("coalescing ran no conservative test")
	}
	t.Logf("%d probes checked", probes)
}
