package cache

import (
	"testing"

	"regpromo/internal/ir"
)

func set(ids ...ir.TagID) ir.TagSet {
	var s ir.TagSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// TestHasherDeterministicAndSensitive: identical streams sum to
// identical keys; a one-word difference anywhere changes the key.
func TestHasherDeterministicAndSensitive(t *testing.T) {
	mk := func(v int64) Key {
		return NewHasher().Int(1).Str("alpha").Int(v).TagSet(set(3, 64)).Sum()
	}
	if mk(7) != mk(7) {
		t.Fatal("identical streams must hash identically")
	}
	if mk(7) == mk(8) {
		t.Fatal("differing streams must hash differently")
	}
}

// TestHasherStringBoundaries: length prefixes keep shifted
// concatenations apart — "ab"+"c" must not collide with "a"+"bc" —
// and string content past one word must still matter.
func TestHasherStringBoundaries(t *testing.T) {
	if NewHasher().Str("ab").Str("c").Sum() == NewHasher().Str("a").Str("bc").Sum() {
		t.Fatal("boundary shift collided")
	}
	long := "0123456789abcdef"
	if NewHasher().Str(long).Sum() == NewHasher().Str(long[:15]+"X").Sum() {
		t.Fatal("tail byte of a long string was ignored")
	}
}

// TestHasherOrderSensitive: the fold must not be commutative over the
// word stream.
func TestHasherOrderSensitive(t *testing.T) {
	if NewHasher().Int(1).Int(2).Sum() == NewHasher().Int(2).Int(1).Sum() {
		t.Fatal("hasher is order-insensitive")
	}
}

// TestHasherTagSetTop: the ⊤ set must hash unlike any finite set,
// including the empty one.
func TestHasherTagSetTop(t *testing.T) {
	top := NewHasher().TagSet(ir.TopSet()).Sum()
	if top == NewHasher().TagSet(ir.TagSet{}).Sum() || top == NewHasher().TagSet(set(0)).Sum() {
		t.Fatal("top set collided with a finite set")
	}
}

// TestStoreModRefRoundTrip: a put summary comes back equal, with the
// chained value key intact, and the returned sets are clones — a
// caller mutating its hit must not corrupt later hits.
func TestStoreModRefRoundTrip(t *testing.T) {
	s := NewStore()
	key := NewHasher().Int(1).Sum()
	mod, ref := set(1, 2), set(3)
	value := SummaryValue(mod, ref)
	s.PutModRef(key, mod, ref, value)

	e, ok := s.ModRef(key)
	if !ok || !e.Mod.Equal(mod) || !e.Ref.Equal(ref) || e.Value != value {
		t.Fatalf("round trip lost data: %+v ok=%v", e, ok)
	}
	e.Mod.Add(99)
	again, _ := s.ModRef(key)
	if again.Mod.Has(99) {
		t.Fatal("hit aliases the stored set")
	}
	if _, ok := s.ModRef(NewHasher().Int(2).Sum()); ok {
		t.Fatal("missing key reported present")
	}
}

// TestStoreFirstWriterWins: a second put under the same key must not
// replace the first — content addressing makes both writes equivalent,
// and keeping the first avoids churn under concurrent compiles.
func TestStoreFirstWriterWins(t *testing.T) {
	s := NewStore()
	key := NewHasher().Int(1).Sum()
	s.PutModRef(key, set(1), set(1), SummaryValue(set(1), set(1)))
	s.PutModRef(key, set(2), set(2), SummaryValue(set(2), set(2)))
	e, _ := s.ModRef(key)
	if !e.Mod.Equal(set(1)) {
		t.Fatalf("second writer replaced the first: %+v", e)
	}
	if mr, pts := s.Len(); mr != 1 || pts != 0 {
		t.Fatalf("Len = (%d, %d), want (1, 0)", mr, pts)
	}
}

// TestStoreNilSafe: every method on a nil store is a no-op miss, so
// uncached compiles need no branching at call sites.
func TestStoreNilSafe(t *testing.T) {
	var s *Store
	key := NewHasher().Int(1).Sum()
	s.PutModRef(key, set(1), set(1), key)
	s.PutPointsTo(key, &PointsToEntry{})
	if _, ok := s.ModRef(key); ok {
		t.Fatal("nil store hit")
	}
	if _, ok := s.PointsTo(key); ok {
		t.Fatal("nil store hit")
	}
	if mr, pts := s.Len(); mr != 0 || pts != 0 {
		t.Fatal("nil store non-empty")
	}
}

// TestStructuralHashIgnoresLiterals: the points-to projection must be
// blind to Imm (no pointer transfer reads it) but sensitive to
// every structural field the solver does read.
func TestStructuralHashIgnoresLiterals(t *testing.T) {
	base := ir.Instr{Op: ir.OpAdd, Dst: 1, A: 2, Imm: 10}
	hash := func(in ir.Instr) Key {
		h := NewHasher()
		HashInstrStructural(h, &in)
		return h.Sum()
	}
	edited := base
	edited.Imm = 999
	if hash(base) != hash(edited) {
		t.Fatal("structural hash must ignore literal operands")
	}
	for name, mut := range map[string]func(*ir.Instr){
		"op":  func(in *ir.Instr) { in.Op = ir.OpSub },
		"dst": func(in *ir.Instr) { in.Dst = 7 },
		"a":   func(in *ir.Instr) { in.A = 7 },
		"tag": func(in *ir.Instr) { in.Tag = 4 },
	} {
		in := base
		mut(&in)
		if hash(base) == hash(in) {
			t.Fatalf("structural hash must be sensitive to %s", name)
		}
	}
}

// TestFuncBodyHashSeesLiterals: the MOD/REF body hash, by contrast,
// must change on a constant-only edit — the edited function's own
// component is re-solved, which is what keeps the summary cache
// honest without reasoning about literal flow.
func TestFuncBodyHashSeesLiterals(t *testing.T) {
	mk := func(imm int64) *ir.Func {
		return &ir.Func{
			Name:   "f",
			Blocks: []*ir.Block{{Instrs: []ir.Instr{{Op: ir.OpAdd, Dst: 1, A: 1, Imm: imm}}}},
		}
	}
	if FuncBodyHash(mk(1)) == FuncBodyHash(mk(2)) {
		t.Fatal("body hash must see literal operands")
	}
	if FuncBodyHash(mk(1)) != FuncBodyHash(mk(1)) {
		t.Fatal("body hash must be deterministic")
	}
}

// TestFuncProjectionHashSkipsIrrelevantOps: instructions outside the
// solver's vocabulary contribute only position shifts; an edit that
// swaps one irrelevant opcode for another at the same position with
// the same fields is invisible, while moving a relevant instruction
// to a different position is not.
func TestFuncProjectionHashSkipsIrrelevantOps(t *testing.T) {
	mk := func(filler ir.Op, pad int) *ir.Func {
		instrs := make([]ir.Instr, 0, pad+1)
		for i := 0; i < pad; i++ {
			instrs = append(instrs, ir.Instr{Op: filler, Dst: 9})
		}
		instrs = append(instrs, ir.Instr{Op: ir.OpAddrOf, Dst: 1, Tag: 2})
		return &ir.Func{Name: "f", Blocks: []*ir.Block{{Instrs: instrs}}}
	}
	if FuncProjectionHash(mk(ir.OpMul, 1)) != FuncProjectionHash(mk(ir.OpDiv, 1)) {
		t.Fatal("projection must ignore the content of irrelevant instructions")
	}
	if FuncProjectionHash(mk(ir.OpMul, 1)) == FuncProjectionHash(mk(ir.OpMul, 2)) {
		t.Fatal("projection must see a relevant instruction's position shift")
	}
}
