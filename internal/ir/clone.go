package ir

// Clone returns a deep copy of the module: functions, blocks,
// instructions, the tag table, and global initializers are all
// duplicated, so passes run on the clone never disturb the original.
// This is what lets one front-end artifact fork many independent
// pipeline configurations (compile-once sharing): parse and generate
// IL once, then hand each configuration its own clone.
//
// TagSet values are shared between the copies — every TagSet operation
// allocates a fresh backing slice, so sharing is safe by construction.
func (m *Module) Clone() *Module {
	out := &Module{
		Funcs:          make(map[string]*Func, len(m.Funcs)),
		FuncOrder:      append([]string(nil), m.FuncOrder...),
		Tags:           m.Tags.Clone(),
		AddressedFuncs: append([]string(nil), m.AddressedFuncs...),
	}
	if m.Inits != nil {
		out.Inits = make([]GlobalInit, len(m.Inits))
		for i, init := range m.Inits {
			out.Inits[i] = GlobalInit{
				Tag:    init.Tag,
				Data:   append([]byte(nil), init.Data...),
				Relocs: append([]Reloc(nil), init.Relocs...),
			}
		}
	}
	for _, name := range m.FuncOrder {
		out.Funcs[name] = m.Funcs[name].Clone()
	}
	return out
}

// Clone returns a deep copy of the function. Blocks are duplicated and
// their successor/predecessor edges remapped onto the copies.
//
// The copies are carved from a few slabs (blocks, instructions, edge
// lists, side records and call arguments), each sub-slice capped at
// its length so a later append reallocates instead of running into a
// neighbour. Edges map by block ID, which is the block's position in
// f.Blocks (NewBlock appends, RemoveUnreachable renumbers).
func (f *Func) Clone() *Func {
	nf := &Func{}
	f.CloneOnto(nf, nil)
	return nf
}

// CloneOnto makes dst a deep copy of f, as Clone does, except that the
// copy of f's block at position i is the Block value reuse[i] when
// reuse has a non-nil entry there: that value is overwritten in full,
// so a pointer to it held elsewhere now names the copied block.
// Positions without one get a fresh Block.
func (f *Func) CloneOnto(dst *Func, reuse []*Block) {
	*dst = Func{
		Name:      f.Name,
		Params:    append([]Reg(nil), f.Params...),
		NumRegs:   f.NumRegs,
		Locals:    append([]TagID(nil), f.Locals...),
		HasVarRet: f.HasVarRet,
		Allocated: f.Allocated,
	}
	var nInstrs, nEdges, nAux, nArgs int
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Succs) + len(b.Preds)
		for i := range b.Instrs {
			if a := b.Instrs[i].aux; a != nil {
				nAux++
				nArgs += len(a.Args)
			}
		}
	}
	fresh := len(f.Blocks)
	for _, b := range reuse {
		if b != nil {
			fresh--
		}
	}
	blocks := make([]Block, fresh)
	instrs := make([]Instr, nInstrs)
	edges := make([]*Block, nEdges)
	auxes := make([]Aux, nAux)
	args := make([]Reg, nArgs)

	dst.Blocks = make([]*Block, len(f.Blocks))
	for bi, b := range f.Blocks {
		var nb *Block
		if bi < len(reuse) && reuse[bi] != nil {
			nb = reuse[bi]
			*nb = Block{}
		} else {
			nb = &blocks[0]
			blocks = blocks[1:]
		}
		nb.ID, nb.Label = b.ID, b.Label
		dst.Blocks[bi] = nb
		if len(b.Instrs) == 0 {
			continue
		}
		nb.Instrs = instrs[:len(b.Instrs):len(b.Instrs)]
		instrs = instrs[len(b.Instrs):]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			nb.Instrs[i] = *in
			if in.aux == nil {
				continue
			}
			a := &auxes[0]
			auxes = auxes[1:]
			*a = *in.aux
			if n := len(a.Args); n > 0 {
				a.Args = args[:n:n]
				args = args[n:]
				copy(a.Args, in.aux.Args)
			} else {
				a.Args = nil
			}
			if a.Targets != nil {
				a.Targets = append([]string(nil), a.Targets...)
			}
			nb.Instrs[i].aux = a
		}
	}
	copyOf := func(b *Block) *Block {
		if i := f.BlockIndex(b); i >= 0 {
			return dst.Blocks[i]
		}
		return nil
	}
	remap := func(bs []*Block) []*Block {
		if bs == nil {
			return nil
		}
		out := edges[:len(bs):len(bs)]
		edges = edges[len(bs):]
		for i, b := range bs {
			out[i] = copyOf(b)
		}
		return out
	}
	for bi, b := range f.Blocks {
		nb := dst.Blocks[bi]
		nb.Succs = remap(b.Succs)
		nb.Preds = remap(b.Preds)
	}
	dst.Entry = copyOf(f.Entry)
}

// Clone returns a deep copy of the table; the copies' tags can be
// mutated (or extended with spill slots) independently.
func (t *TagTable) Clone() TagTable {
	tags := make([]*Tag, len(t.tags))
	for i, tag := range t.tags {
		c := *tag
		tags[i] = &c
	}
	return TagTable{tags: tags}
}
