package check

import (
	"fmt"

	"regpromo/internal/analysis/certify"
)

// runCertify re-proves every promotion certificate in the context
// with the independent verifier. Only refuted obligations become
// diagnostics; certificates the oracle merely cannot re-establish
// (Unproven) are counted in certify.Summary but stay silent — the
// sharper interprocedural analyses may legitimately know more.
func runCertify(c *Context) []Diag {
	if len(c.Regions) == 0 {
		return nil
	}
	return certify.Verify(c.Module, c.Regions).Diags
}

// runPressure reports the promotion sites the driver's static
// pressure measurement found over budget. Advisory: the IL is
// correct, but the allocator will have to spill inside the loop, so
// the promotion is likely a pessimization (the paper's water case).
func runPressure(c *Context) []Diag {
	var ds []Diag
	for i := range c.Pressure {
		p := &c.Pressure[i]
		if !p.OverBudget {
			continue
		}
		ds = append(ds, Diag{
			Check: "pressure", Func: p.Func, Block: p.Pad, Index: -1,
			Msg: fmt.Sprintf("promotion site holds %d promoted value(s) and its worst boundary has %d live registers against a budget of %d — expect spilling in the loop", p.Values, p.MaxLiveAll, p.Limit),
		})
	}
	return ds
}
