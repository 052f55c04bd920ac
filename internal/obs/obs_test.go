package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

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

func TestObserveRecordsDeltaAndExtra(t *testing.T) {
	m := testModule()
	p := &Pipeline{}
	err := p.Observe("strip-stores", m, func() (map[string]int64, error) {
		// Delete the scalar store, as promotion would.
		b := m.Funcs["main"].Entry
		var kept []ir.Instr
		for _, in := range b.Instrs {
			if in.Op != ir.OpSStore {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
		return map[string]int64{"removed": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(p.Events))
	}
	e := p.Events[0]
	d := e.Delta()
	if d.Instrs != -1 || d.Mem.ScalarStores != -1 {
		t.Fatalf("delta = %+v, want Δinstrs=-1 ΔsStore=-1", d)
	}
	if d.Mem.ScalarLoads != 0 || d.Mem.PtrStores != 0 {
		t.Fatalf("unrelated classes moved: %+v", d)
	}
	if e.Extra["removed"] != 1 {
		t.Fatalf("extra = %v", e.Extra)
	}
	if e.DurationNS < 0 {
		t.Fatalf("negative duration %d", e.DurationNS)
	}
	if p.Event("strip-stores") != e || p.Event("nope") != nil {
		t.Fatal("Event lookup broken")
	}
}

func TestObserveNilPipelineAndErrors(t *testing.T) {
	var p *Pipeline
	ran := false
	if err := p.Observe("x", nil, func() (map[string]int64, error) { ran = true; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("nil pipeline must still run the pass")
	}
	if p.FormatTable() != "" || p.Total() != 0 || p.PassNames() != nil || p.Event("x") != nil {
		t.Fatal("nil pipeline accessors must be no-ops")
	}

	q := &Pipeline{}
	wantErr := errors.New("pass failed")
	if err := q.Observe("bad", testModule(), func() (map[string]int64, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if len(q.Events) != 0 {
		t.Fatal("failed pass must not record an event")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	m := testModule()
	p := &Pipeline{DumpPass: DumpAll}
	for _, name := range []string{"constprop", "promote"} {
		if err := p.Observe(name, m, func() (map[string]int64, error) {
			return map[string]int64{"scalar_promotions": 2}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []*PassEvent
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p.Events) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", back[0], p.Events[0])
	}
	if back[1].IRDump == "" || !strings.Contains(back[1].IRDump, "func main") {
		t.Fatal("IR dump lost in round trip")
	}
	if got := p.PassNames(); !reflect.DeepEqual(got, []string{"constprop", "promote"}) {
		t.Fatalf("PassNames = %v", got)
	}
}

func TestFormatTable(t *testing.T) {
	m := testModule()
	p := &Pipeline{}
	if err := p.Observe("promote", m, func() (map[string]int64, error) {
		return map[string]int64{"scalar_promotions": 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	table := p.FormatTable()
	for _, want := range []string{"pass", "promote", "ΔsStore", "scalar_promotions=1", "total"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
