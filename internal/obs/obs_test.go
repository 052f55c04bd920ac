package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"regpromo/internal/ir"
)

// testModule builds a one-function module with a known instruction
// census: 2 immediate loads, 1 scalar load, 1 scalar store, 1 pointer
// load, 1 pointer store, 1 constant load, and a return.
func testModule() *ir.Module {
	m := ir.NewModule()
	g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
	fn := &ir.Func{Name: "main", NumRegs: 4}
	b := fn.NewBlock("B0")
	fn.Entry = b
	b.Instrs = []ir.Instr{
		{Op: ir.OpLoadI, Dst: 0, Imm: 1},
		ir.Instr{Op: ir.OpLoadF, Dst: 1, Imm: ir.FloatImm(2.5)},
		{Op: ir.OpSLoad, Dst: 2, Tag: g.ID, Size: 8},
		{Op: ir.OpSStore, A: 2, Tag: g.ID, Size: 8},
		{Op: ir.OpCLoad, Dst: 3, Tag: g.ID, Size: 8},
		ir.Instr{Op: ir.OpPLoad, Dst: 2, A: 0, Size: 8}.WithAux(ir.Aux{Tags: ir.NewTagSet(g.ID)}),
		ir.Instr{Op: ir.OpPStore, A: 0, B: 2, Size: 8}.WithAux(ir.Aux{Tags: ir.NewTagSet(g.ID)}),
		{Op: ir.OpRet},
	}
	m.AddFunc(fn)
	return m
}

func TestMeasureCensus(t *testing.T) {
	s := Measure(testModule())
	want := Snapshot{
		Funcs:  1,
		Blocks: 1,
		Instrs: 8,
		Mem: MemOps{
			ImmLoads:     2,
			ConstLoads:   1,
			ScalarLoads:  1,
			ScalarStores: 1,
			PtrLoads:     1,
			PtrStores:    1,
		},
	}
	if s != want {
		t.Fatalf("Measure = %+v, want %+v", s, want)
	}
	if got := s.Mem.Loads(); got != 3 {
		t.Errorf("Loads() = %d, want 3", got)
	}
	if got := s.Mem.Stores(); got != 2 {
		t.Errorf("Stores() = %d, want 2", got)
	}
}

// TestLoopCensus checks that memory ops in blocks on a CFG cycle are
// tallied into Snapshot.Loop, and straight-line ops are not.
func TestLoopCensus(t *testing.T) {
	m := ir.NewModule()
	g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
	fn := &ir.Func{Name: "f", NumRegs: 2}
	entry := fn.NewBlock("entry")
	head := fn.NewBlock("head")
	body := fn.NewBlock("body")
	exit := fn.NewBlock("exit")
	fn.Entry = entry
	entry.Instrs = []ir.Instr{
		{Op: ir.OpSLoad, Dst: 0, Tag: g.ID, Size: 8}, // outside the loop
		{Op: ir.OpBr},
	}
	head.Instrs = []ir.Instr{{Op: ir.OpCBr, A: 0}}
	body.Instrs = []ir.Instr{
		{Op: ir.OpSLoad, Dst: 1, Tag: g.ID, Size: 8}, // in the loop
		{Op: ir.OpSStore, A: 1, Tag: g.ID, Size: 8},  // in the loop
		{Op: ir.OpBr},
	}
	exit.Instrs = []ir.Instr{{Op: ir.OpRet}}
	ir.AddEdge(entry, head)
	ir.AddEdge(head, body)
	ir.AddEdge(head, exit)
	ir.AddEdge(body, head)
	m.AddFunc(fn)

	s := Measure(m)
	if s.Mem.ScalarLoads != 2 || s.Mem.ScalarStores != 1 {
		t.Fatalf("module census wrong: %+v", s.Mem)
	}
	if s.Loop.ScalarLoads != 1 || s.Loop.ScalarStores != 1 {
		t.Fatalf("loop census wrong: %+v", s.Loop)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	m := testModule()
	snap := Measure(m)
	events := []*PassEvent{
		{Index: 0, Name: "constprop", DurationNS: 10, Before: snap, After: snap},
		{Index: 1, Name: "promote", DurationNS: 20, Before: snap, After: snap,
			Extra: map[string]int64{"scalar_promotions": 2}, IRDump: ir.FormatModule(m)},
	}
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []*PassEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", back[0], events[0])
	}
	if back[1].IRDump == "" || !strings.Contains(back[1].IRDump, "func main") {
		t.Fatal("IR dump lost in round trip")
	}
}

func TestFormatTable(t *testing.T) {
	after := Measure(testModule())
	before := after
	before.Mem.ScalarStores++
	table := FormatTable([]*PassEvent{{
		Name: "promote", Before: before, After: after,
		Extra: map[string]int64{"scalar_promotions": 1},
	}}, time.Millisecond)
	for _, want := range []string{"pass", "promote", "ΔsStore", "scalar_promotions=1", "total"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
