package certify

import (
	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
	"regpromo/internal/regalloc"
)

// Pressure is the static register-pressure report for one promotion
// site (all regions sharing a landing pad — typically one loop).
// MaxLive counts how many promoted values are simultaneously live at
// some block boundary inside the site's body; MaxLiveAll counts all
// live virtual registers at the worst such boundary, promoted or not.
// A site is over budget when the worst boundary demands more values
// than the K physical registers can hold — the allocator must then
// spill, and since the promoted values are precisely the ones live
// across the whole loop, they are prime spill candidates: promotion
// degenerates into the paper's water scenario (§5).
type Pressure struct {
	Func       string `json:"func"`
	Pad        string `json:"pad"`
	Values     int    `json:"values"`
	MaxLive    int    `json:"max_live"`
	MaxLiveAll int    `json:"max_live_all"`
	Limit      int    `json:"limit"`
	OverBudget bool   `json:"over_budget"`
}

// MeasurePressure reports the promoted-value pressure of each
// promotion site in fn. It must run after promotion but before
// register allocation: the regions' PromotedReg names are virtual
// registers, which allocation renames. k is the physical register
// budget (regalloc.DefaultK when 0).
func MeasurePressure(fn *ir.Func, regions []promote.Region, k int) []Pressure {
	if k <= 0 {
		k = regalloc.DefaultK
	}
	var mine []int
	for i := range regions {
		if regions[i].Func == fn.Name {
			mine = append(mine, i)
		}
	}
	if len(mine) == 0 {
		return nil
	}
	current := make(map[*ir.Block]bool, len(fn.Blocks))
	for _, b := range fn.Blocks {
		current[b] = true
	}
	// All promoted values of the function, not just one site's: an
	// inner loop's boundary also carries every enclosing loop's
	// promoted values, and sites in disjoint loops simply aren't live
	// into each other, so counting the full set is exact.
	promoted := make(map[ir.Reg]bool, len(mine))
	for _, i := range mine {
		promoted[regions[i].PromotedReg] = true
	}
	lv := regalloc.ComputeLiveness(fn)

	// Group regions by landing pad, preserving first-seen (promotion)
	// order.
	type site struct {
		pad    *ir.Block
		values int
		body   []*ir.Block
	}
	var sites []*site
	byPad := make(map[*ir.Block]*site)
	for _, i := range mine {
		r := &regions[i]
		s := byPad[r.Pad]
		if s == nil {
			s = &site{pad: r.Pad, body: currentBlocks(current, r.Body)}
			byPad[r.Pad] = s
			sites = append(sites, s)
		}
		s.values++
	}

	countPromoted := func(b ir.BlockID, out bool) int {
		n := 0
		for r := range promoted {
			if out && lv.LiveOutHas(b, r) || !out && lv.LiveInHas(b, r) {
				n++
			}
		}
		return n
	}

	reports := make([]Pressure, 0, len(sites))
	for _, s := range sites {
		p := Pressure{Func: fn.Name, Values: s.values, Limit: k}
		if s.pad != nil {
			p.Pad = s.pad.Label
		}
		for _, b := range s.body {
			for _, out := range []bool{false, true} {
				live := countPromoted(b.ID, out)
				all := lv.LiveInCount(b.ID)
				if out {
					all = lv.LiveOutCount(b.ID)
				}
				if live > p.MaxLive {
					p.MaxLive = live
				}
				if all > p.MaxLiveAll {
					p.MaxLiveAll = all
				}
			}
		}
		// Over budget when the site's worst boundary exceeds the
		// machine (the allocator must spill somewhere in the loop) AND
		// the promoted values themselves occupy more than half the
		// budget — then they are both the cause of the overflow and,
		// being live across the whole region, the prime spill
		// candidates: promotion degenerates into store/reload traffic.
		// A hot loop that merely runs rich in temporaries (MaxLiveAll
		// high, few promoted values) spills those temporaries locally
		// and keeps the promotion win, so it does not flag.
		p.OverBudget = p.MaxLiveAll > k && 2*p.MaxLive > k
		reports = append(reports, p)
	}
	return reports
}
