package regalloc

import (
	"fmt"

	"regpromo/internal/ir"
)

// CheckCoalescedRows allocates fn under k registers round by round, as
// Func does, and after each round's coalescing checks the invariant
// color reads the graph under: every row holds only representatives of
// registers fn defines or uses, never its own register, and deg is the
// row's popcount. It returns the number of rounds allocation took.
func CheckCoalescedRows(fn *ir.Func, k int, tags ir.TagAlloc) (int, error) {
	firstTemp := ir.Reg(fn.NumRegs)
	sc := new(scratch)
	for round := 1; round <= 100; round++ {
		sc.reset()
		g := build(fn, sc)
		coalesce(g, k)
		reps := usedReps(g, fn)
		for r, row := range g.adj {
			if got := row.count(); int32(got) != g.deg[r] {
				return round, fmt.Errorf("%s round %d: deg[r%d] = %d, row holds %d", fn.Name, round, r, g.deg[r], got)
			}
			var bad error
			row.forEach(func(n ir.Reg) {
				switch {
				case bad != nil:
				case n == ir.Reg(r):
					bad = fmt.Errorf("%s round %d: row r%d holds itself", fn.Name, round, r)
				case !reps.has(n) || g.find(n) != n:
					bad = fmt.Errorf("%s round %d: row r%d holds r%d, not a used representative", fn.Name, round, r, n)
				}
			})
			if bad != nil {
				return round, bad
			}
		}
		colors, spills := color(g, fn, k, firstTemp)
		if len(spills) == 0 {
			rewrite(fn, g, colors)
			return round, nil
		}
		insertSpills(fn, spills, g, tags)
	}
	return 100, fmt.Errorf("%s did not converge (K=%d)", fn.Name, k)
}
