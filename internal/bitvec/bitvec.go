// Package bitvec provides dense bit vectors sized to a fixed universe.
//
// All dataflow analyses in this module are bit-vector problems over the
// assignment- or expression-pattern universe of a flow graph (cf. Tables 1–3
// of the paper). Vector length is fixed at creation; operations panic on
// length mismatch, which in this code base always indicates a programming
// error (mixing vectors from different pattern universes), never bad input.
package bitvec

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New for a sized vector.
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed vector with n bits.
func New(n int) Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vec{n: n, words: make([]uint64, WordsFor(n))}
}

// WordsFor returns the number of 64-bit words backing an n-bit vector.
func WordsFor(n int) int {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return (n + wordBits - 1) / wordBits
}

// Wrap returns an n-bit vector backed by words, which must have exactly
// WordsFor(n) elements. The contents are used as-is and the storage is
// shared with the caller — this is how the solver arena carves vectors out
// of one flat allocation.
func Wrap(n int, words []uint64) Vec {
	if len(words) != WordsFor(n) {
		panic("bitvec: Wrap with wrong word count")
	}
	return Vec{n: n, words: words}
}

// NewFull returns a vector with all n bits set.
func NewFull(n int) Vec {
	v := New(n)
	v.SetAll()
	return v
}

// Len reports the number of bits in v.
func (v Vec) Len() int { return v.n }

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic("bitvec: index out of range")
	}
}

func (v Vec) checkLen(o Vec) {
	if v.n != o.n {
		panic("bitvec: length mismatch")
	}
}

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Set sets bit i.
func (v Vec) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (i % wordBits)
}

// Clear clears bit i.
func (v Vec) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (i % wordBits)
}

// SetTo sets bit i to b.
func (v Vec) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// SetAll sets every bit.
func (v Vec) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit.
func (v Vec) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that Equal and
// PopCount stay exact after SetAll/Not.
func (v Vec) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// Copy returns an independent copy of v.
func (v Vec) Copy() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of o.
func (v Vec) CopyFrom(o Vec) {
	v.checkLen(o)
	copy(v.words, o.words)
}

// And sets v = v ∧ o and reports whether v changed.
func (v Vec) And(o Vec) bool {
	v.checkLen(o)
	changed := false
	for i := range v.words {
		next := v.words[i] & o.words[i]
		if next != v.words[i] {
			changed = true
			v.words[i] = next
		}
	}
	return changed
}

// Or sets v = v ∨ o and reports whether v changed.
func (v Vec) Or(o Vec) bool {
	v.checkLen(o)
	changed := false
	for i := range v.words {
		next := v.words[i] | o.words[i]
		if next != v.words[i] {
			changed = true
			v.words[i] = next
		}
	}
	return changed
}

// AndNot sets v = v ∧ ¬o and reports whether v changed.
func (v Vec) AndNot(o Vec) bool {
	v.checkLen(o)
	changed := false
	for i := range v.words {
		next := v.words[i] &^ o.words[i]
		if next != v.words[i] {
			changed = true
			v.words[i] = next
		}
	}
	return changed
}

// CopyAnd sets v = a ∧ b in one fused pass — the two-operand meet
// kernel: a confluence node's first two incoming facts combine without an
// intermediate CopyFrom sweep.
func (v Vec) CopyAnd(a, b Vec) {
	v.checkLen(a)
	v.checkLen(b)
	vw := v.words
	for i := range vw {
		vw[i] = a.words[i] & b.words[i]
	}
}

// CopyOr sets v = a ∨ b in one fused pass (see CopyAnd).
func (v Vec) CopyOr(a, b Vec) {
	v.checkLen(a)
	v.checkLen(b)
	vw := v.words
	for i := range vw {
		vw[i] = a.words[i] | b.words[i]
	}
}

// GenKillUpdate sets v = gen ∨ (in ∧ ¬kill) and reports whether v
// changed. This is the entire transfer function of a gen/kill dataflow
// problem fused into one word-parallel pass — 64 patterns per machine
// word, no intermediate vector, change detection folded into the same
// sweep. It is the hot loop of dataflow.Solve's dense path; v may alias
// none of the operands' storage regions except bitwise-identically (the
// solver passes v = out[i], which is disjoint from gen/kill/in).
func (v Vec) GenKillUpdate(gen, in, kill Vec) bool {
	v.checkLen(gen)
	v.checkLen(in)
	v.checkLen(kill)
	changed := false
	vw := v.words
	for i := range vw {
		next := gen.words[i] | (in.words[i] &^ kill.words[i])
		if next != vw[i] {
			changed = true
			vw[i] = next
		}
	}
	return changed
}

// OrAndNot sets v = v ∨ (a ∧ ¬b) and reports whether v changed — the
// three-operand accumulation kernel (for example, frontier computations
// of the form ⋃ ¬X accumulate full ∧ ¬X without materializing the
// complement).
func (v Vec) OrAndNot(a, b Vec) bool {
	v.checkLen(a)
	v.checkLen(b)
	changed := false
	vw := v.words
	for i := range vw {
		next := vw[i] | (a.words[i] &^ b.words[i])
		if next != vw[i] {
			changed = true
			vw[i] = next
		}
	}
	return changed
}

// MeetGenKillUpdate fuses a dataflow node's entire visit into one
// word-parallel pass: the meet of the upstream facts
//
//	m = ⋀_{u ∈ ups} outs[u]   (all=true)   or   ⋁_{u ∈ ups} outs[u]
//
// is stored into in, and out is updated to gen ∨ (m ∧ ¬kill) with change
// detection folded into the same sweep. ups must be non-empty. Compared
// to a separate meet and transfer this touches every word exactly once,
// with no intermediate vector and no per-operation length checks — it is
// the inner loop of dataflow.Solve's dense gen/kill path. out may appear
// among the sources (a flow self-loop): for each word the sources are
// read before out is written, which is exactly the serial meet-then-
// transfer order.
func MeetGenKillUpdate(out, gen, kill, in Vec, outs []Vec, ups []int, all bool) bool {
	out.checkLen(gen)
	out.checkLen(kill)
	out.checkLen(in)
	for _, u := range ups {
		out.checkLen(outs[u])
	}
	n := len(out.words)
	if n == 0 {
		return false
	}
	// One and two upstream neighbours cover almost every CFG node; those
	// cases get dedicated loops with the slices resliced to a common
	// length so the compiler can eliminate the bounds checks. Wider joins
	// fall back to sequential meet passes plus one fused update.
	ow, iw, gw, kw := out.words[:n], in.words[:n], gen.words[:n], kill.words[:n]
	changed := false
	switch len(ups) {
	case 1:
		s0 := outs[ups[0]].words[:n]
		for w := 0; w < n; w++ {
			m := s0[w]
			iw[w] = m
			next := gw[w] | (m &^ kw[w])
			if next != ow[w] {
				changed = true
				ow[w] = next
			}
		}
	case 2:
		s0, s1 := outs[ups[0]].words[:n], outs[ups[1]].words[:n]
		if all {
			for w := 0; w < n; w++ {
				m := s0[w] & s1[w]
				iw[w] = m
				next := gw[w] | (m &^ kw[w])
				if next != ow[w] {
					changed = true
					ow[w] = next
				}
			}
		} else {
			for w := 0; w < n; w++ {
				m := s0[w] | s1[w]
				iw[w] = m
				next := gw[w] | (m &^ kw[w])
				if next != ow[w] {
					changed = true
					ow[w] = next
				}
			}
		}
	default:
		if all {
			in.CopyAnd(outs[ups[0]], outs[ups[1]])
			for _, u := range ups[2:] {
				in.And(outs[u])
			}
		} else {
			in.CopyOr(outs[ups[0]], outs[ups[1]])
			for _, u := range ups[2:] {
				in.Or(outs[u])
			}
		}
		return out.GenKillUpdate(gen, in, kill)
	}
	return changed
}

// Not sets v = ¬v.
func (v Vec) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
}

// Equal reports whether v and o have identical contents.
func (v Vec) Equal(o Vec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Any reports whether any bit is set.
func (v Vec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// PopCount returns the number of set bits.
func (v Vec) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every set bit, in increasing order.
func (v Vec) ForEach(f func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &^= 1 << b
		}
	}
}

// Next returns the index of the first set bit at or after i, or -1 when
// there is none. "for i := v.Next(0); i >= 0; i = v.Next(i + 1)" visits
// the set bits in increasing order, like ForEach but without a closure.
func (v Vec) Next(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(v.words) {
		return -1
	}
	w := v.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Bits returns the indices of all set bits in increasing order.
func (v Vec) Bits() []int {
	out := make([]int, 0, v.PopCount())
	v.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders v as a 0/1 string, bit 0 first, for test diagnostics.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
