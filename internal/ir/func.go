package ir

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// BlockID numbers a basic block within its function.
type BlockID int32

// Block is a basic block: a straight-line instruction sequence ending
// in a terminator, plus explicit successor/predecessor edges.
type Block struct {
	ID     BlockID
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block

	// Label is a human-readable name for dumps ("B3", "B3.pad", …).
	Label string

	// mark is the reachability walk's visit stamp: the block was
	// reached by the walk that drew that epoch.
	mark uint64
}

// Terminator returns the block's final instruction, or nil for an
// empty block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	in := &b.Instrs[len(b.Instrs)-1]
	if !in.Op.IsTerminator() {
		return nil
	}
	return in
}

// HasSucc reports whether s is a successor of b.
func (b *Block) HasSucc(s *Block) bool {
	for _, t := range b.Succs {
		if t == s {
			return true
		}
	}
	return false
}

// ReplaceSucc redirects every edge b→from to b→to and fixes the
// predecessor lists of both ends.
func (b *Block) ReplaceSucc(from, to *Block) {
	for i, s := range b.Succs {
		if s == from {
			b.Succs[i] = to
			from.removePred(b)
			to.Preds = append(to.Preds, b)
		}
	}
}

func (b *Block) removePred(p *Block) {
	for i, q := range b.Preds {
		if q == p {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			return
		}
	}
}

// Func is one IL function.
type Func struct {
	Name string

	// Params are the registers that receive the arguments, in
	// order. Callees copy incoming values here on entry.
	Params []Reg

	// NumRegs is the number of virtual registers allocated so far;
	// register numbers are in [0, NumRegs).
	NumRegs int

	Entry  *Block
	Blocks []*Block

	// Locals lists the tags of stack-resident locals (address-taken
	// scalars, arrays, structs) owned by this function, in frame
	// layout order.
	Locals []TagID

	// HasVarRet records whether the function returns a value.
	HasVarRet bool

	// Allocated is set once physical register allocation has run;
	// NumRegs is then the physical register count actually used.
	Allocated bool
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewBlock allocates a new block, appends it to the function, and
// returns it.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{ID: BlockID(len(f.Blocks)), Label: label}
	if b.Label == "" {
		b.Label = fmt.Sprintf("B%d", b.ID)
	}
	f.Blocks = append(f.Blocks, b)
	return b
}

// BlockIndex returns b's position in f.Blocks, or -1 when b is not
// one of f's blocks. A block's ID is its position (NewBlock appends,
// Renumber restores it), so the ID is tried first; the scan only runs
// on a function whose IDs have drifted.
func (f *Func) BlockIndex(b *Block) int {
	if b == nil {
		return -1
	}
	if i := int(b.ID); i >= 0 && i < len(f.Blocks) && f.Blocks[i] == b {
		return i
	}
	for i, c := range f.Blocks {
		if c == b {
			return i
		}
	}
	return -1
}

// Renumber reassigns dense block ids in slice order and refreshes
// default labels of the form "B<n>".
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		if b.ID == BlockID(i) {
			continue
		}
		old := b.ID
		b.ID = BlockID(i)
		if b.Label == "B"+strconv.Itoa(int(old)) {
			b.Label = "B" + strconv.Itoa(i)
		}
	}
}

// AddEdge records a CFG edge from p to s.
func AddEdge(p, s *Block) {
	p.Succs = append(p.Succs, s)
	s.Preds = append(s.Preds, p)
}

// reachEpoch hands out the stamps reachability walks mark blocks with.
// It is global, so a stamp never repeats, whatever function a block
// was last walked in.
var reachEpoch atomic.Uint64

// ReachableBlocks returns the blocks reachable from the entry in
// depth-first preorder, successors in edge order. It stamps the blocks
// it visits, so like a mutation it must not run concurrently with
// other uses of f.
func (f *Func) ReachableBlocks() []*Block {
	if f.Entry == nil {
		return nil
	}
	epoch := reachEpoch.Add(1)
	type frame struct {
		b    *Block
		next int
	}
	order := make([]*Block, 1, len(f.Blocks))
	order[0] = f.Entry
	f.Entry.mark = epoch
	stack := []frame{{b: f.Entry}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(top.b.Succs) {
			stack = stack[:len(stack)-1]
			continue
		}
		s := top.b.Succs[top.next]
		top.next++
		if s == nil || s.mark == epoch {
			continue
		}
		s.mark = epoch
		order = append(order, s)
		stack = append(stack, frame{b: s})
	}
	return order
}

// markOnly stamps every block reachable from the entry with epoch. It
// records no order, unlike ReachableBlocks: its only state is a stack
// of blocks still to expand, which stays in the frame while the
// function is small.
func (f *Func) markOnly(epoch uint64) {
	if f.Entry == nil {
		return
	}
	var buf [32]*Block
	stack := append(buf[:0], f.Entry)
	f.Entry.mark = epoch
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s != nil && s.mark != epoch {
				s.mark = epoch
				stack = append(stack, s)
			}
		}
	}
}

// RemoveUnreachable drops blocks not reachable from the entry and
// fixes predecessor lists.
func (f *Func) RemoveUnreachable() {
	epoch := reachEpoch.Add(1)
	f.markOnly(epoch)
	f.Blocks = keepMarked(f.Blocks, epoch)
	for _, b := range f.Blocks {
		b.Preds = keepMarked(b.Preds, epoch)
	}
	f.Renumber()
}

// keepMarked returns bs without the blocks not stamped with epoch. It
// returns bs itself when nothing is dropped, so only lists that lose a
// block are rebuilt.
func keepMarked(bs []*Block, epoch uint64) []*Block {
	for i, b := range bs {
		if b.mark == epoch {
			continue
		}
		kept := append([]*Block(nil), bs[:i]...)
		for _, c := range bs[i+1:] {
			if c.mark == epoch {
				kept = append(kept, c)
			}
		}
		return kept
	}
	return bs
}

// Reloc records that the 8 bytes at Offset within an initialized
// global hold the run-time address of Target (plus Addend). The
// loader patches them once the memory layout is fixed.
type Reloc struct {
	Offset int
	Target TagID
	Addend int64
}

// GlobalInit describes one global variable's static initialization.
type GlobalInit struct {
	Tag TagID
	// Data holds the initial bytes (zero-filled to the tag's size
	// when shorter).
	Data []byte
	// Relocs are address patches applied at load time.
	Relocs []Reloc
}

// Module is a whole compiled program.
type Module struct {
	Funcs map[string]*Func
	// FuncOrder lists function names in source order, for
	// deterministic iteration.
	FuncOrder []string
	Tags      TagTable
	Inits     []GlobalInit

	// AddressedFuncs lists functions whose address is taken
	// (possible targets of indirect calls).
	AddressedFuncs []string
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{Funcs: make(map[string]*Func)}
}

// AddFunc registers fn in the module.
func (m *Module) AddFunc(fn *Func) {
	m.Funcs[fn.Name] = fn
	m.FuncOrder = append(m.FuncOrder, fn.Name)
}

// FuncsInOrder returns the functions in source order.
func (m *Module) FuncsInOrder() []*Func {
	out := make([]*Func, 0, len(m.FuncOrder))
	for _, name := range m.FuncOrder {
		out = append(out, m.Funcs[name])
	}
	return out
}
