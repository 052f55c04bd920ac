// Package obs is the compiler's observability layer: one record,
// viewed two ways. A Tracer (span.go) collects hierarchical wall-clock
// spans — compile → passes → per-function middle-end work items →
// analysis fixpoints — and exports them as JSON or Chrome trace_event
// files.
//
// Pass records are the second view of the same trace, not a second
// channel: when the driver (internal/driver) compiles under a tracer it
// fills one PassEvent per pass, whose duration is the pass's own span,
// whose Extra holds the pass's statistics (the span's arguments), and
// whose static IR census (function/block/instruction counts plus the
// Table-1 memory-op census: immediate and constant loads, scalar
// ("tagged") loads and stores, general pointer-based loads and stores)
// is measured after the pass. FormatTable renders them as the -trace
// table rpcc and rpexec print. An untraced compile reads no clock and
// records nothing; there is no process-wide state.
//
// The paper's evaluation (§5) is measurement end to end; this package
// makes the pipeline itself measurable, pass by pass.
package obs

import (
	"time"

	"regpromo/internal/ir"
)

// MemOps is a static census of memory operations by Table-1 class.
type MemOps struct {
	// ImmLoads counts loadI/loadF immediate loads.
	ImmLoads int `json:"imm_loads"`
	// ConstLoads counts cLoad constant (invariant-value) loads.
	ConstLoads int `json:"const_loads"`
	// ScalarLoads and ScalarStores count the direct, single-tag
	// sLoad/sStore operations ("tagged" memory traffic — the class
	// promotion rewrites into register copies).
	ScalarLoads  int `json:"scalar_loads"`
	ScalarStores int `json:"scalar_stores"`
	// PtrLoads and PtrStores count the general pointer-based
	// pLoad/pStore operations with computed addresses.
	PtrLoads  int `json:"ptr_loads"`
	PtrStores int `json:"ptr_stores"`
}

// Loads is the total static load count across classes (immediate
// loads excluded: they touch no memory).
func (m MemOps) Loads() int { return m.ConstLoads + m.ScalarLoads + m.PtrLoads }

// Stores is the total static store count across classes.
func (m MemOps) Stores() int { return m.ScalarStores + m.PtrStores }

func (m MemOps) add(o MemOps) MemOps {
	return MemOps{
		ImmLoads:     m.ImmLoads + o.ImmLoads,
		ConstLoads:   m.ConstLoads + o.ConstLoads,
		ScalarLoads:  m.ScalarLoads + o.ScalarLoads,
		ScalarStores: m.ScalarStores + o.ScalarStores,
		PtrLoads:     m.PtrLoads + o.PtrLoads,
		PtrStores:    m.PtrStores + o.PtrStores,
	}
}

func (m MemOps) sub(o MemOps) MemOps {
	return MemOps{
		ImmLoads:     m.ImmLoads - o.ImmLoads,
		ConstLoads:   m.ConstLoads - o.ConstLoads,
		ScalarLoads:  m.ScalarLoads - o.ScalarLoads,
		ScalarStores: m.ScalarStores - o.ScalarStores,
		PtrLoads:     m.PtrLoads - o.PtrLoads,
		PtrStores:    m.PtrStores - o.PtrStores,
	}
}

// Snapshot is a static picture of a module at one pipeline point.
type Snapshot struct {
	Funcs  int `json:"funcs"`
	Blocks int `json:"blocks"`
	Instrs int `json:"instrs"`
	// Mem is the whole-module memory-op census.
	Mem MemOps `json:"mem"`
	// Loop restricts the census to blocks that lie on a CFG cycle.
	// Promotion's effect shows up here: it moves scalar references
	// out of loops, so in-loop tagged traffic drops even when the
	// lifted load/store pair keeps the module-wide totals flat.
	Loop MemOps `json:"loop"`
}

// Add returns the fieldwise sum s + o. Module snapshots decompose
// over functions: summing MeasureFunc over a module's functions gives
// exactly Measure of the module, which is what lets the parallel
// middle end assemble whole-module telemetry from per-function pieces.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Funcs:  s.Funcs + o.Funcs,
		Blocks: s.Blocks + o.Blocks,
		Instrs: s.Instrs + o.Instrs,
		Mem:    s.Mem.add(o.Mem),
		Loop:   s.Loop.add(o.Loop),
	}
}

// Sub returns the fieldwise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Funcs:  s.Funcs - o.Funcs,
		Blocks: s.Blocks - o.Blocks,
		Instrs: s.Instrs - o.Instrs,
		Mem:    s.Mem.sub(o.Mem),
		Loop:   s.Loop.sub(o.Loop),
	}
}

// Measure walks the module and produces its snapshot.
func Measure(m *ir.Module) Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	for _, fn := range m.FuncsInOrder() {
		s = s.Add(MeasureFunc(fn))
	}
	return s
}

// MeasureFunc produces the snapshot of a single function (Funcs is 1).
// Measure is the sum of MeasureFunc over FuncsInOrder, exactly.
func MeasureFunc(fn *ir.Func) Snapshot {
	s := Snapshot{Funcs: 1}
	inLoop := cyclicBlocks(fn)
	for _, b := range fn.Blocks {
		s.Blocks++
		s.Instrs += len(b.Instrs)
		census(b.Instrs, &s.Mem)
		if inLoop[b] {
			census(b.Instrs, &s.Loop)
		}
	}
	return s
}

// census tallies instrs into ops by Table-1 class.
func census(instrs []ir.Instr, ops *MemOps) {
	for i := range instrs {
		switch instrs[i].Op {
		case ir.OpLoadI, ir.OpLoadF:
			ops.ImmLoads++
		case ir.OpCLoad:
			ops.ConstLoads++
		case ir.OpSLoad:
			ops.ScalarLoads++
		case ir.OpSStore:
			ops.ScalarStores++
		case ir.OpPLoad:
			ops.PtrLoads++
		case ir.OpPStore:
			ops.PtrStores++
		}
	}
}

// cyclicBlocks returns the blocks of fn that belong to some CFG cycle
// (a strongly connected component of size > 1, or a self-loop) —
// a conservative, analysis-free notion of "inside a loop".
func cyclicBlocks(fn *ir.Func) map[*ir.Block]bool {
	// Iterative Tarjan SCC over the block graph.
	index := make(map[*ir.Block]int, len(fn.Blocks))
	low := make(map[*ir.Block]int, len(fn.Blocks))
	onStack := make(map[*ir.Block]bool, len(fn.Blocks))
	var stack []*ir.Block
	next := 0
	out := make(map[*ir.Block]bool)

	type frame struct {
		b *ir.Block
		i int // next successor to visit
	}
	for _, root := range fn.Blocks {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{b: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.i < len(f.b.Succs) {
				s := f.b.Succs[f.i]
				f.i++
				if _, seen := index[s]; !seen {
					index[s], low[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, frame{b: s})
				} else if onStack[s] && index[s] < low[f.b] {
					low[f.b] = index[s]
				}
				continue
			}
			// f.b is finished; pop its SCC if it is a root.
			if low[f.b] == index[f.b] {
				var scc []*ir.Block
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == f.b {
						break
					}
				}
				cyclic := len(scc) > 1
				if !cyclic {
					for _, s := range scc[0].Succs {
						if s == scc[0] {
							cyclic = true
						}
					}
				}
				if cyclic {
					for _, b := range scc {
						out[b] = true
					}
				}
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].b
				if low[f.b] < low[parent] {
					low[parent] = low[f.b]
				}
			}
		}
	}
	return out
}

// PassEvent is one pass's record in a traced compile.
type PassEvent struct {
	// Index is the pass's position in the pipeline, from 0.
	Index int `json:"index"`
	// Name identifies the pass ("promote", "regalloc", …).
	Name string `json:"name"`
	// DurationNS is the time of the pass's span in nanoseconds. A
	// per-function pass's time is its per-function spans summed, so it
	// is worker time, not wall time, when functions ran concurrently.
	DurationNS int64 `json:"duration_ns"`
	// Before and After are the static IR snapshots bracketing the
	// pass (Before is the previous pass's After).
	Before Snapshot `json:"before"`
	After  Snapshot `json:"after"`
	// Extra carries pass-specific statistics (promotion and
	// allocation counters, fold into the same stream here).
	Extra map[string]int64 `json:"extra,omitempty"`
	// IRDump is the post-pass IL listing when dumping was requested.
	IRDump string `json:"ir_dump,omitempty"`
}

// Delta returns After - Before.
func (e *PassEvent) Delta() Snapshot { return e.After.Sub(e.Before) }

// Duration returns the recorded pass time.
func (e *PassEvent) Duration() time.Duration { return time.Duration(e.DurationNS) }

// DumpAll, as Tracer.DumpPass, requests an IR dump after every pass.
const DumpAll = "all"
