// Package ir defines the intermediate language used throughout the
// compiler: an ILOC-style, register-based, three-address code in which
// every memory operation carries a list of "tags" naming the memory
// locations the operation may touch, following Cooper & Lu, "Register
// Promotion in C Programs" (PLDI 1997), §2.
//
// The opcode set realizes the paper's Table 1 hierarchy of memory
// operations: an immediate load (LoadI) for known constants, a constant
// load (CLoad) for invariant-but-unknown values, scalar loads and stores
// (SLoad/SStore) that reference a single named location directly, and
// general pointer-based loads and stores (PLoad/PStore) whose address is
// computed at run time and whose tag set records which locations they
// may reach.
package ir

import (
	"fmt"
	"math/bits"
	"strings"
)

// TagID names one abstract memory location (a "tag" in the paper's
// terminology). Tags are allocated per Module; TagInvalid is never a
// valid tag.
type TagID int32

// TagInvalid is the zero-signal tag id.
const TagInvalid TagID = -1

// TagKind classifies what a tag names.
type TagKind uint8

const (
	// TagGlobal names a global variable.
	TagGlobal TagKind = iota
	// TagLocal names a stack-allocated local (or parameter) whose
	// address is materialized in the frame (address-taken scalars,
	// arrays, structs).
	TagLocal
	// TagHeap names all storage allocated at one malloc call site
	// (the paper models the heap "with a single name for each
	// call-site that can generate a new heap address", §4).
	TagHeap
	// TagSpill names a register-allocator spill slot.
	TagSpill
)

func (k TagKind) String() string {
	switch k {
	case TagGlobal:
		return "global"
	case TagLocal:
		return "local"
	case TagHeap:
		return "heap"
	case TagSpill:
		return "spill"
	default:
		return fmt.Sprintf("TagKind(%d)", uint8(k))
	}
}

// Tag describes one abstract memory location.
type Tag struct {
	ID   TagID
	Name string
	Kind TagKind

	// Func is the name of the owning function for locals, heap site
	// tags and spill slots; empty for globals.
	Func string

	// Size is the size in bytes of the storage the tag names
	// (0 for heap tags, whose extent is dynamic).
	Size int

	// Elem is the access size in bytes for scalar loads/stores of
	// this tag (equal to Size for scalars).
	Elem int

	// AddrTaken records whether the program ever takes the address
	// of this location. The front end computes it (§4: "only tags
	// that have had their address taken are placed in the tag sets
	// of pointer-based memory operations").
	AddrTaken bool

	// Strong reports whether the tag names exactly one run-time
	// storage location per activation, so that a reference to the
	// tag can be rewritten to a register reference. Global scalars
	// and addressed locals of non-recursive functions are strong;
	// arrays, structs, heap site tags, and addressed locals of
	// recursive functions (one name for many locations, §4) are
	// weak.
	Strong bool

	// Recursive marks a local tag owned by a (possibly) recursive
	// function. Such tags are weak.
	Recursive bool
}

// TagTable allocates and resolves tags for one Module.
type TagTable struct {
	tags []*Tag
}

// TagAlloc abstracts tag allocation so a pass that creates tags (the
// register allocator's spill slots) can run either against the module
// table directly or against a per-function staging allocator while the
// table is frozen during the parallel middle-end.
type TagAlloc interface {
	NewTag(name string, kind TagKind, fn string, size, elem int) *Tag
}

// NewTag allocates a tag and returns it.
func (t *TagTable) NewTag(name string, kind TagKind, fn string, size, elem int) *Tag {
	tag := &Tag{
		ID:   TagID(len(t.tags)),
		Name: name,
		Kind: kind,
		Func: fn,
		Size: size,
		Elem: elem,
	}
	t.tags = append(t.tags, tag)
	return tag
}

// Get returns the tag with the given id. It panics on an invalid id:
// tag ids are internal invariants, not user input.
func (t *TagTable) Get(id TagID) *Tag {
	return t.tags[id]
}

// Len returns the number of allocated tags.
func (t *TagTable) Len() int { return len(t.tags) }

// All returns the backing slice of tags; callers must not mutate it.
func (t *TagTable) All() []*Tag { return t.tags }

// StagedTags is a TagAlloc that records tag creations without touching
// the module table. Staged tags carry provisional negative ids (so a
// staged id can never collide with a real one); Commit replays the
// creations against the real table in staging order and returns the
// provisional→real id mapping. The parallel middle-end gives every
// function its own stage and commits them in function order, which
// reproduces exactly the tag table a serial compile builds.
type StagedTags struct {
	tags []*Tag
}

// stagedBase is the first provisional id; staged ids descend from it.
// (-1 is TagInvalid and must stay unused.)
const stagedBase TagID = -2

// IsStagedTag reports whether id is a provisional id handed out by a
// StagedTags allocator.
func IsStagedTag(id TagID) bool { return id <= stagedBase }

// NewTag records one staged tag creation.
func (s *StagedTags) NewTag(name string, kind TagKind, fn string, size, elem int) *Tag {
	tag := &Tag{
		ID:   stagedBase - TagID(len(s.tags)),
		Name: name,
		Kind: kind,
		Func: fn,
		Size: size,
		Elem: elem,
	}
	s.tags = append(s.tags, tag)
	return tag
}

// Empty reports whether nothing was staged.
func (s *StagedTags) Empty() bool { return len(s.tags) == 0 }

// Snapshot returns copies of the staged tags, in staging order, for a
// later Replay.
func (s *StagedTags) Snapshot() []Tag {
	out := make([]Tag, len(s.tags))
	for i, t := range s.tags {
		out[i] = *t
	}
	return out
}

// Replay stages copies of tags, in order, as if each had been created
// through NewTag and then given its remaining fields. Replayed into an
// empty stage, a Snapshot's tags get back the provisional ids they had.
func (s *StagedTags) Replay(tags []Tag) {
	for _, t := range tags {
		c := t
		c.ID = stagedBase - TagID(len(s.tags))
		s.tags = append(s.tags, &c)
	}
}

// Commit replays the staged creations against tt in staging order. The
// returned map sends each provisional id to the real id it received;
// the staged Tag structs themselves are re-identified in place, so
// pointers handed out by NewTag stay valid.
func (s *StagedTags) Commit(tt *TagTable) map[TagID]TagID {
	if len(s.tags) == 0 {
		return nil
	}
	remap := make(map[TagID]TagID, len(s.tags))
	for _, tag := range s.tags {
		old := tag.ID
		tag.ID = TagID(len(tt.tags))
		tt.tags = append(tt.tags, tag)
		remap[old] = tag.ID
	}
	s.tags = nil
	return remap
}

// A TagSet is a set of tags, with a distinguished "all memory" top
// element used before analysis has run. The zero value is the empty
// set.
//
// The representation is a dense bit vector (one bit per TagID, words
// trimmed of trailing zeros), following the Cooper–Torczon bit-vector
// dataflow tradition: union, intersection, and subset queries run a
// word at a time, and the trimmed-words invariant makes Equal a plain
// word comparison. Values are immutable and may share backing words —
// every exported method returns a new set or a scalar. The *Into
// variants mutate their receiver in place for fixpoint accumulators;
// callers own such receivers (start from the zero value or Clone) and
// must never mutate a set read out of an instruction.
type TagSet struct {
	// all marks the ⊤ set: the operation may touch any location.
	all bool
	// words is the bit vector; bit id%64 of words[id/64] is set when
	// id is a member. Invariant: the last word is non-zero (no
	// trailing zero words), so IsEmpty and Equal are O(1) and O(words)
	// respectively.
	words []uint64
}

// TopSet returns the ⊤ tag set ("may touch anything").
func TopSet() TagSet { return TagSet{all: true} }

// NewTagSet builds a set from the given ids. An empty input allocates
// nothing.
func NewTagSet(ids ...TagID) TagSet {
	if len(ids) == 0 {
		return TagSet{}
	}
	max := ids[0]
	for _, id := range ids[1:] {
		if id > max {
			max = id
		}
	}
	s := TagSet{words: make([]uint64, int(max)/64+1)}
	for _, id := range ids {
		s.words[id/64] |= 1 << (uint(id) % 64)
	}
	return s
}

// trim restores the no-trailing-zero-words invariant after an
// operation that may have cleared high bits.
func (s *TagSet) trim() {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	s.words = s.words[:n]
}

// Clone returns a copy with its own backing words, safe to mutate with
// the *Into methods.
func (s TagSet) Clone() TagSet {
	if s.all || len(s.words) == 0 {
		return TagSet{all: s.all}
	}
	return TagSet{words: append(make([]uint64, 0, len(s.words)), s.words...)}
}

// IsTop reports whether the set is the ⊤ ("all memory") set.
func (s TagSet) IsTop() bool { return s.all }

// IsEmpty reports whether the set is empty (and not ⊤).
func (s TagSet) IsEmpty() bool { return !s.all && len(s.words) == 0 }

// Len returns the number of explicit members; it is meaningless for ⊤.
func (s TagSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Singleton returns the sole member, if the set has exactly one
// explicit member.
func (s TagSet) Singleton() (TagID, bool) {
	if s.all {
		return TagInvalid, false
	}
	found := TagInvalid
	for i, w := range s.words {
		switch bits.OnesCount64(w) {
		case 0:
		case 1:
			if found != TagInvalid {
				return TagInvalid, false
			}
			found = TagID(i*64 + bits.TrailingZeros64(w))
		default:
			return TagInvalid, false
		}
	}
	if found == TagInvalid {
		return TagInvalid, false
	}
	return found, true
}

// Has reports whether id is a member (always true for ⊤).
func (s TagSet) Has(id TagID) bool {
	if s.all {
		return true
	}
	if id < 0 || int(id)/64 >= len(s.words) {
		return false
	}
	return s.words[id/64]&(1<<(uint(id)%64)) != 0
}

// IDs returns the explicit members in ascending order; it returns nil
// for ⊤ and for the empty set. Each call allocates a fresh slice; hot
// loops should prefer ForEach.
func (s TagSet) IDs() []TagID {
	if s.all || len(s.words) == 0 {
		return nil
	}
	out := make([]TagID, 0, s.Len())
	s.ForEach(func(id TagID) { out = append(out, id) })
	return out
}

// Words exposes the trimmed backing bit vector (bit id%64 of word
// id/64 is set for each member id); callers must not mutate it. The
// no-trailing-zero-words invariant makes the slice a canonical value
// representation — equal sets always expose equal words — so hashing
// it hashes the set. Empty and ⊤ both expose nil; distinguish ⊤ with
// IsTop.
func (s TagSet) Words() []uint64 { return s.words }

// TagSetOfWords is the inverse of Words: it views a bit vector as a
// set, trimming trailing zero words. The set shares words, so the
// caller must not mutate them afterwards.
func TagSetOfWords(words []uint64) TagSet {
	s := TagSet{words: words}
	s.trim()
	if len(s.words) == 0 {
		s.words = nil
	}
	return s
}

// ForEach calls f for every member in ascending order, without
// allocating. It does nothing for ⊤ (its membership is not
// enumerable).
func (s TagSet) ForEach(f func(TagID)) {
	for i, w := range s.words {
		for w != 0 {
			f(TagID(i*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Union returns s ∪ o.
func (s TagSet) Union(o TagSet) TagSet {
	if s.all || o.all {
		return TopSet()
	}
	// Empty operands return the other set unchanged (sharing its
	// backing words — safe under the immutability convention) so that
	// the common grow-from-empty case allocates nothing.
	if len(s.words) == 0 {
		return o
	}
	if len(o.words) == 0 {
		return s
	}
	long, short := s.words, o.words
	if len(long) < len(short) {
		long, short = short, long
	}
	out := make([]uint64, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return TagSet{words: out}
}

// UnionInto adds o's members into dst in place, returning whether dst
// grew. dst must own its backing words.
func (o TagSet) UnionInto(dst *TagSet) bool {
	if dst.all {
		return false
	}
	if o.all {
		dst.all, dst.words = true, nil
		return true
	}
	if len(o.words) > len(dst.words) {
		if cap(dst.words) >= len(o.words) {
			grown := dst.words[:len(o.words)]
			for i := len(dst.words); i < len(grown); i++ {
				grown[i] = 0
			}
			dst.words = grown
		} else {
			grown := make([]uint64, len(o.words), cap(o.words))
			copy(grown, dst.words)
			dst.words = grown
		}
	}
	changed := false
	for i, w := range o.words {
		if n := dst.words[i] | w; n != dst.words[i] {
			dst.words[i] = n
			changed = true
		}
	}
	return changed
}

// Add inserts id into dst in place, returning whether it was new. dst
// must own its backing words.
func (dst *TagSet) Add(id TagID) bool {
	if dst.all || dst.Has(id) {
		return false
	}
	wi := int(id) / 64
	if wi >= len(dst.words) {
		if cap(dst.words) > wi {
			grown := dst.words[:wi+1]
			for i := len(dst.words); i < len(grown); i++ {
				grown[i] = 0
			}
			dst.words = grown
		} else {
			grown := make([]uint64, wi+1)
			copy(grown, dst.words)
			dst.words = grown
		}
	}
	dst.words[wi] |= 1 << (uint(id) % 64)
	return true
}

// Remove deletes id from dst in place, returning whether it was a
// member. Removing from ⊤ is a no-op (⊤ has no explicit members to
// drop); callers tracking precise sets never hold ⊤. dst must own its
// backing words.
func (dst *TagSet) Remove(id TagID) bool {
	if dst.all || id < 0 {
		return false
	}
	wi := int(id) / 64
	if wi >= len(dst.words) {
		return false
	}
	bit := uint64(1) << (uint(id) % 64)
	if dst.words[wi]&bit == 0 {
		return false
	}
	dst.words[wi] &^= bit
	dst.trim()
	return true
}

// SubtractInto removes o's members from dst in place (dst = dst \ o),
// returning whether dst shrank. Mirrors Minus: subtracting from ⊤
// leaves ⊤; subtracting ⊤ empties dst. dst must own its backing
// words.
func (o TagSet) SubtractInto(dst *TagSet) bool {
	if dst.all {
		return false
	}
	if o.all {
		changed := len(dst.words) > 0
		dst.words = nil
		return changed
	}
	n := len(dst.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	changed := false
	for i := 0; i < n; i++ {
		if m := dst.words[i] &^ o.words[i]; m != dst.words[i] {
			dst.words[i] = m
			changed = true
		}
	}
	dst.trim()
	return changed
}

// Intersect returns s ∩ o. Intersecting with ⊤ yields the other set.
func (s TagSet) Intersect(o TagSet) TagSet {
	if s.all {
		return o
	}
	if o.all {
		return s
	}
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := TagSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & o.words[i]
	}
	out.trim()
	if len(out.words) == 0 {
		out.words = nil
	}
	return out
}

// IntersectInto narrows dst to dst ∩ o in place, returning whether dst
// shrank. dst must own its backing words.
func (o TagSet) IntersectInto(dst *TagSet) bool {
	if o.all {
		return false
	}
	if dst.all {
		*dst = o.Clone()
		return true
	}
	changed := false
	n := len(dst.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if m := dst.words[i] & o.words[i]; m != dst.words[i] {
			dst.words[i] = m
			changed = true
		}
	}
	for i := n; i < len(dst.words); i++ {
		if dst.words[i] != 0 {
			dst.words[i] = 0
			changed = true
		}
	}
	dst.words = dst.words[:n]
	dst.trim()
	return changed
}

// Minus returns s \ o. The result of subtracting from ⊤ is ⊤ (we never
// need precise complements).
func (s TagSet) Minus(o TagSet) TagSet {
	if o.all {
		return TagSet{}
	}
	if s.all {
		return TopSet()
	}
	if len(s.words) == 0 || len(o.words) == 0 {
		return s
	}
	out := TagSet{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		out.words[i] &^= o.words[i]
	}
	out.trim()
	if len(out.words) == 0 {
		out.words = nil
	}
	return out
}

// Intersects reports whether s ∩ o is non-empty. ⊤ intersects every
// non-empty set and, conservatively, every ⊤.
func (s TagSet) Intersects(o TagSet) bool {
	if s.all {
		return o.all || len(o.words) > 0
	}
	if o.all {
		return len(s.words) > 0
	}
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports set equality. Thanks to the trimmed-words invariant
// this is a single backing-word comparison.
func (s TagSet) Equal(o TagSet) bool {
	if s.all != o.all || len(s.words) != len(o.words) {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ o.
func (s TagSet) SubsetOf(o TagSet) bool {
	if o.all {
		return true
	}
	if s.all {
		return false
	}
	if len(s.words) > len(o.words) {
		return false
	}
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// With returns s ∪ {id}.
func (s TagSet) With(id TagID) TagSet {
	if s.all || s.Has(id) {
		return s
	}
	wi := int(id) / 64
	n := len(s.words)
	if wi+1 > n {
		n = wi + 1
	}
	out := TagSet{words: make([]uint64, n)}
	copy(out.words, s.words)
	out.words[wi] |= 1 << (uint(id) % 64)
	return out
}

// String formats the set using the module-independent tag ids.
func (s TagSet) String() string {
	if s.all {
		return "[*]"
	}
	var parts []string
	s.ForEach(func(id TagID) { parts = append(parts, fmt.Sprintf("t%d", id)) })
	return "[" + strings.Join(parts, ",") + "]"
}

// Format formats the set using tag names from the table.
func (s TagSet) Format(tt *TagTable) string {
	if s.all {
		return "[*]"
	}
	var parts []string
	s.ForEach(func(id TagID) { parts = append(parts, tt.Get(id).Name) })
	return "[" + strings.Join(parts, ",") + "]"
}
