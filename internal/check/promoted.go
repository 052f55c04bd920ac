package check

import (
	"fmt"
	"sort"

	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
)

// runPromoted enforces the promotion invariant over the regions the
// promote pass recorded: inside a promoted region's body no memory
// operation or call may still touch the promoted location — every
// reference was rewritten into a register copy, and the only accesses
// promotion itself synthesized (the lifted load, the demotion stores)
// sit at the region boundary, outside the body. A violation means a
// later pass reintroduced an access, or promotion's rewrite missed
// one, either of which silently breaks the value-in-register
// assumption.
func runPromoted(c *Context) []Diag {
	if len(c.Regions) == 0 {
		return nil
	}
	byFunc := make(map[string][]promote.Region)
	for _, r := range c.Regions {
		byFunc[r.Func] = append(byFunc[r.Func], r)
	}
	var ds []Diag
	for _, fn := range c.Module.FuncsInOrder() {
		regions := byFunc[fn.Name]
		if len(regions) == 0 {
			continue
		}
		current := make(map[*ir.Block]bool, len(fn.Blocks))
		for _, b := range fn.Blocks {
			current[b] = true
		}
		for _, r := range regions {
			// The promoted location as a set: the single scalar tag,
			// or the pointer group's may-set.
			rset := r.Tags
			what := "pointer group " + setNames(&c.Module.Tags, rset)
			if r.Tag != ir.TagInvalid {
				rset = ir.NewTagSet(r.Tag)
				what = fmt.Sprintf("tag %q", c.Module.Tags.Get(r.Tag).Name)
			}
			// Later passes may merge or delete body blocks; only
			// blocks still in the function count, in a deterministic
			// order.
			body := make([]*ir.Block, 0, len(r.Body))
			for _, b := range r.Body {
				if current[b] {
					body = append(body, b)
				}
			}
			sort.Slice(body, func(i, j int) bool { return body[i].ID < body[j].ID })
			for _, b := range body {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					touches := false
					switch in.Op {
					case ir.OpSLoad, ir.OpCLoad, ir.OpSStore:
						touches = rset.Has(in.Tag)
					case ir.OpPLoad, ir.OpPStore:
						touches = in.Tags().Intersects(rset)
					case ir.OpJsr:
						touches = in.Mods().Intersects(rset) || in.Refs().Intersects(rset)
					}
					if !touches {
						continue
					}
					msg := fmt.Sprintf("access to promoted %s survives inside its region", what)
					if in.Synth {
						msg = fmt.Sprintf("promotion spill code for %s inside the region body (boundaries only)", what)
					} else if in.Op == ir.OpJsr {
						msg = fmt.Sprintf("call may touch promoted %s inside its region", what)
					}
					ds = append(ds, Diag{Check: "promoted", Func: fn.Name, Block: b.Label, Index: i, Op: in.Op, Msg: msg})
				}
			}
		}
	}
	return ds
}
