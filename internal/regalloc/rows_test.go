package regalloc_test

import (
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/regalloc"
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
