package check

import (
	"fmt"
	"strings"

	"regpromo/internal/analysis/pointsto"
	"regpromo/internal/ir"
)

// runTags enforces the Table-1 tag discipline: every memory operation
// names tags valid in the TagTable, scalar operations never touch
// heap storage (which has no static address), local and spill tags
// are only accessed by their owning function, allocation sites carry
// heap tags, and ⊤ appears only where the hierarchy permits — after
// interprocedural analysis, a pointer operation's tag set must have
// been limited to the visible set (⊤ may survive only in call
// summaries that absorb an unknown external), and every member of a
// limited set must be address-taken storage.
func runTags(c *Context) []Diag {
	m := c.Module
	tt := &m.Tags
	var ds []Diag
	var addrTaken ir.TagSet
	if c.AnalysisDone {
		addrTaken = pointsto.AddrTakenSet(m)
	}
	valid := func(t ir.TagID) bool { return t >= 0 && int(t) < tt.Len() }
	for _, fn := range m.FuncsInOrder() {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				diag := func(msg string, args ...any) {
					ds = append(ds, Diag{Check: "tags", Func: fn.Name, Block: b.Label, Index: i, Op: in.Op,
						Msg: fmt.Sprintf(msg, args...)})
				}
				// checkSet validates the members of a may-set
				// (pointer op Tags, call Mods/Refs).
				checkSet := func(what string, s ir.TagSet) {
					if s.IsTop() {
						return
					}
					s.ForEach(func(t ir.TagID) {
						if !valid(t) {
							diag("%s names tag %d outside the TagTable", what, t)
						}
					})
				}
				switch in.Op {
				case ir.OpCLoad, ir.OpSLoad, ir.OpSStore:
					if !valid(in.Tag) {
						break // verify reports the range violation
					}
					tag := tt.Get(in.Tag)
					if tag.Kind == ir.TagHeap {
						diag("scalar access to heap tag %q (heap storage has no static address)", tag.Name)
					}
					if (tag.Kind == ir.TagLocal || tag.Kind == ir.TagSpill) && tag.Func != fn.Name {
						diag("access to %s tag %q owned by %q", tag.Kind, tag.Name, tag.Func)
					}
				case ir.OpAddrOf:
					if in.Callee() != "" || !valid(in.Tag) {
						break
					}
					tag := tt.Get(in.Tag)
					if tag.Kind == ir.TagHeap || tag.Kind == ir.TagSpill {
						diag("address of %s tag %q", tag.Kind, tag.Name)
					}
					if tag.Kind == ir.TagLocal && tag.Func != fn.Name {
						diag("address of local tag %q owned by %q", tag.Name, tag.Func)
					}
					if !tag.AddrTaken {
						diag("address of tag %q not marked AddrTaken", tag.Name)
					}
				case ir.OpPLoad, ir.OpPStore:
					if c.AnalysisDone {
						if in.Tags().IsTop() {
							diag("⊤ tag set survives interprocedural analysis")
						} else if !in.Tags().SubsetOf(addrTaken) {
							extra := in.Tags().Minus(addrTaken)
							diag("tag set includes storage whose address is never taken: %s", setNames(tt, extra))
						}
					}
					checkSet("pointer tag set", in.Tags())
				case ir.OpJsr:
					if in.Site() != ir.TagInvalid {
						if !valid(in.Site()) {
							diag("allocation site tag %d outside the TagTable", in.Site())
						} else if k := tt.Get(in.Site()).Kind; k != ir.TagHeap {
							diag("allocation site carries %s tag %q, want heap", k, tt.Get(in.Site()).Name)
						}
					}
					checkSet("MOD summary", in.Mods())
					checkSet("REF summary", in.Refs())
				}
			}
		}
	}
	return ds
}

// setNames renders a small tag set's member names for a diagnostic,
// truncating long sets.
func setNames(tt *ir.TagTable, s ir.TagSet) string {
	var names []string
	s.ForEach(func(t ir.TagID) {
		if len(names) >= 5 {
			return
		}
		if t >= 0 && int(t) < tt.Len() {
			names = append(names, tt.Get(t).Name)
		} else {
			names = append(names, fmt.Sprintf("#%d", t))
		}
	})
	out := strings.Join(names, ", ")
	if s.Len() > len(names) {
		out += ", …"
	}
	return out
}
