package regalloc

import (
	"sync"

	"regpromo/internal/ir"
)

// scratch is the working storage of one function's allocation: a word
// buffer that a round's bitsets (the interference matrix, liveness
// sets, build's live and used sets, color's sets, select's color mask
// and insertSpills' spilled set) are carved from, and the graph's,
// color's and insertSpills' per-register arrays. Func takes a scratch
// from scratchPool and puts it back, so a worker allocating function
// after function reuses one; every part is bounded by the largest
// function it has served.
type scratch struct {
	words []uint64
	used  int // words handed out since the last reset
	need  int // words requested since the last reset, overflow included

	sets     []bitset // computeLiveness' per-block sets
	deg      []int32
	alias    []ir.Reg
	cost     []float64
	isParam  []bool
	remat    []*ir.Instr
	defs     []int
	moves    [][2]ir.Reg
	weights  []float64 // blockWeights' per-block spill weights, kept across rounds
	colorDeg []int
	colors   []int
	stack    []ir.Reg
	// insertSpills' per-class tables and the block it is building.
	spillDefs  []int
	spillRemat []*ir.Instr
	slots      []ir.TagID
	instrs     []ir.Instr
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset takes back every bitset handed out. A round whose sets
// overflowed the buffer grows it, so the next round this large is
// served from one buffer.
func (sc *scratch) reset() {
	if sc.need > len(sc.words) {
		sc.words = make([]uint64, sc.need)
	}
	sc.used, sc.need = 0, 0
}

// bitset returns a zeroed set of n bits, carved from the buffer when
// it has room and allocated on its own otherwise.
func (sc *scratch) bitset(n int) bitset {
	w := (n + 63) / 64
	sc.need += w
	if sc.used+w > len(sc.words) {
		return make(bitset, w)
	}
	s := bitset(sc.words[sc.used : sc.used+w : sc.used+w])
	sc.used += w
	clear(s)
	return s
}

// release drops the pointers the scratch holds into the function's IL
// and into overflow sets before it goes back to the pool.
func (sc *scratch) release() {
	clear(sc.sets)
	clear(sc.remat)
	clear(sc.spillRemat)
	clear(sc.instrs[:cap(sc.instrs)])
	scratchPool.Put(sc)
}

// resize returns *s resliced to n zeroed elements, reallocating it
// when its capacity is short.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}
