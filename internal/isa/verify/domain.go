package verify

import "math/bits"

// AbsVal abstracts one 64-bit register value three ways at once:
//
//   - an optional exact value set (authoritative when present) — this is
//     what resolves jump tables and indirect branch targets;
//   - an unsigned interval [lo, hi] — this is what bounds streaming
//     cursors and arena pointers;
//   - known-bits (known is a mask of bit positions whose value is
//     bits&known) — this is what survives the fuzzgen masked-index
//     idiom (AND #0x3f then LSL #3) and keeps 64-byte-aligned pointer
//     rings enumerable without materializing 96k-element sets.
//
// The three components are maintained together: every constructor and
// transfer normalizes so that set ⊆ [lo,hi] and every set member is
// consistent with the known bits. A value with no information is
// "top": set nil, [0, 2^64-1], known 0.
type AbsVal struct {
	set   []uint64 // sorted, unique; nil = no exact set
	lo    uint64
	hi    uint64
	known uint64 // mask of known bit positions
	bits  uint64 // values of known bits (bits &^ known == 0)
}

const (
	setCap  = 48 // max exact-set size before degrading to interval+mask
	pairCap = 64 // max cross-product size for pairwise set transfers
)

func top() AbsVal { return AbsVal{lo: 0, hi: ^uint64(0)} }

// sizeTop is the unknown result of a load of the given byte width:
// zero-extension makes the high bits known zero.
func sizeTop(size uint8) AbsVal {
	if size >= 8 {
		return top()
	}
	n := uint(size) * 8
	hi := uint64(1)<<n - 1
	return AbsVal{lo: 0, hi: hi, known: ^hi, bits: 0}
}

func exact(v uint64) AbsVal {
	return AbsVal{set: []uint64{v}, lo: v, hi: v, known: ^uint64(0), bits: v}
}

// fromSet builds an AbsVal from an unsorted, possibly-duplicated list
// of concrete values. Degrades to interval+mask past setCap.
func fromSet(vs []uint64) AbsVal {
	if len(vs) == 0 {
		// Empty means the producing edge is infeasible; callers check
		// isEmpty before propagating. Represent as an impossible value.
		return AbsVal{set: []uint64{}, lo: 1, hi: 0}
	}
	sortU64(vs)
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	a := AbsVal{set: out}
	a.normFromSet()
	if len(out) > setCap {
		a.set = nil
	}
	return a
}

func (a *AbsVal) normFromSet() {
	s := a.set
	a.lo, a.hi = s[0], s[len(s)-1]
	var diff uint64
	for _, v := range s {
		diff |= v ^ s[0]
	}
	a.known = ^diff
	a.bits = s[0] & a.known
}

func (a AbsVal) isEmpty() bool { return a.lo > a.hi }

func (a AbsVal) isExact() (uint64, bool) {
	if a.set != nil && len(a.set) == 1 {
		return a.set[0], true
	}
	return 0, false
}

// contains reports whether v is consistent with the abstraction (may
// the register hold v?).
func (a AbsVal) contains(v uint64) bool {
	if a.set != nil {
		_, ok := searchU64(a.set, v)
		return ok
	}
	return v >= a.lo && v <= a.hi && v&a.known == a.bits
}

func (a AbsVal) eq(b AbsVal) bool {
	if (a.set == nil) != (b.set == nil) || len(a.set) != len(b.set) {
		return false
	}
	for i := range a.set {
		if a.set[i] != b.set[i] {
			return false
		}
	}
	return a.lo == b.lo && a.hi == b.hi && a.known == b.known && a.bits == b.bits
}

// tighten clamps the interval against the known-bits component (and
// vice versa is not attempted). It never produces an empty value: if
// the components are inconsistent the mask is dropped instead, which
// is sound (the state may simply be unreachable).
func (a AbsVal) tighten() AbsVal {
	if a.set != nil {
		return a
	}
	minBits := a.bits            // unknown bits all 0
	maxBits := a.bits | ^a.known // unknown bits all 1
	lo, hi := a.lo, a.hi
	if minBits > lo {
		lo = minBits
	}
	if maxBits < hi {
		hi = maxBits
	}
	if lo > hi {
		// Inconsistent components; keep the interval, drop the mask.
		return AbsVal{lo: a.lo, hi: a.hi}
	}
	a.lo, a.hi = lo, hi
	if lo == hi {
		return exact(lo)
	}
	return a
}

func (a AbsVal) join(b AbsVal) AbsVal {
	if a.isEmpty() {
		return b
	}
	if b.isEmpty() {
		return a
	}
	if a.set != nil && b.set != nil && len(a.set)+len(b.set) <= 2*setCap {
		merged := make([]uint64, 0, len(a.set)+len(b.set))
		merged = append(merged, a.set...)
		merged = append(merged, b.set...)
		j := fromSet(merged)
		if j.set != nil {
			return j
		}
		// fromSet degraded past the cap; fall through to interval join
		// so known bits widen monotonically below.
	}
	out := AbsVal{
		lo:    minU64(a.lo, b.lo),
		hi:    maxU64(a.hi, b.hi),
		known: a.known & b.known &^ (a.bits ^ b.bits),
	}
	out.bits = a.bits & out.known
	return out
}

// candidates enumerates the concrete values the abstraction allows, up
// to max of them. The enumeration walks the interval with the stride
// implied by the contiguous low known bits and filters by the full
// known-bit mask, so a 64-byte-aligned pointer confined to one segment
// enumerates its slots exactly. Returns (nil, false) when more than
// max values are possible.
func (a AbsVal) candidates(max int) ([]uint64, bool) {
	if a.isEmpty() {
		return nil, true
	}
	if a.set != nil {
		if len(a.set) > max {
			return nil, false
		}
		return a.set, true
	}
	step, residue := a.stride()
	// First candidate ≥ lo with the right residue.
	first := a.lo
	if rem := first & (step - 1); rem != residue {
		delta := (residue - rem) & (step - 1)
		if first > ^uint64(0)-delta {
			return nil, false
		}
		first += delta
	}
	if first > a.hi {
		return nil, false // inconsistent; treat as unenumerable
	}
	count := (a.hi-first)/step + 1
	if count > uint64(max) {
		return nil, false
	}
	out := make([]uint64, 0, count)
	for v := first; ; v += step {
		if v&a.known == a.bits {
			out = append(out, v)
		}
		if v >= a.hi || v > ^uint64(0)-step {
			break
		}
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

// stride returns the power-of-two step and residue implied by the
// contiguous run of known low bits (capped so strides stay sane).
func (a AbsVal) stride() (step, residue uint64) {
	t := bits.TrailingZeros64(^a.known)
	if t > 16 {
		t = 16
	}
	step = uint64(1) << uint(t)
	residue = a.bits & (step - 1)
	return step, residue
}

// --- transfer functions -------------------------------------------------

// pairwise applies f over the cross product of two exact sets.
func pairwise(a, b AbsVal, f func(x, y uint64) uint64) (AbsVal, bool) {
	if a.set == nil || b.set == nil || len(a.set)*len(b.set) > pairCap {
		return AbsVal{}, false
	}
	out := make([]uint64, 0, len(a.set)*len(b.set))
	for _, x := range a.set {
		for _, y := range b.set {
			out = append(out, f(x, y))
		}
	}
	return fromSet(out), true
}

func mapSet(a AbsVal, f func(x uint64) uint64) (AbsVal, bool) {
	if a.set == nil || len(a.set) > pairCap {
		return AbsVal{}, false
	}
	out := make([]uint64, 0, len(a.set))
	for _, x := range a.set {
		out = append(out, f(x))
	}
	return fromSet(out), true
}

func absAdd(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x + y }); ok {
		return r
	}
	out := top()
	// Wrapping-interval addition: if the combined widths fit in 64 bits
	// and the wrapped result interval does not straddle zero, it is
	// exact even for "negative" (high-half) addends like post-index
	// decrements.
	wa, wb := a.hi-a.lo, b.hi-b.lo
	if wa <= ^uint64(0)-wb {
		lo := a.lo + b.lo // may wrap
		if hi := lo + wa + wb; lo <= hi {
			out.lo, out.hi = lo, hi
		}
	}
	// Low bits known in both operands propagate through the carry chain.
	n := uint(bits.TrailingZeros64(^(a.known & b.known)))
	if n > 0 {
		mask := onesLow(n)
		out.known |= mask
		out.bits = (a.bits + b.bits) & mask
	}
	return out.tighten()
}

func absSub(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x - y }); ok {
		return r
	}
	out := top()
	wa, wb := a.hi-a.lo, b.hi-b.lo
	if wa <= ^uint64(0)-wb {
		lo := a.lo - b.hi // may wrap
		if hi := lo + wa + wb; lo <= hi {
			out.lo, out.hi = lo, hi
		}
	}
	n := uint(bits.TrailingZeros64(^(a.known & b.known)))
	if n > 0 {
		mask := onesLow(n)
		out.known |= mask
		out.bits = (a.bits - b.bits) & mask
	}
	return out.tighten()
}

func absAnd(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x & y }); ok {
		return r
	}
	kz := a.known & ^a.bits | b.known & ^b.bits // known-zero in either
	kb := a.known & b.known                     // known in both
	out := AbsVal{
		lo:    0,
		hi:    minU64(a.hi, b.hi),
		known: kz | kb,
	}
	out.bits = a.bits & b.bits & out.known
	return out.tighten()
}

func absOr(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x | y }); ok {
		return r
	}
	ko := a.known&a.bits | b.known&b.bits // known-one in either
	kb := a.known & b.known
	out := AbsVal{
		lo:    maxU64(a.lo, b.lo),
		hi:    fillRight(a.hi | b.hi),
		known: ko | kb,
	}
	out.bits = (a.bits | b.bits) & out.known
	return out.tighten()
}

func absXor(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x ^ y }); ok {
		return r
	}
	out := AbsVal{
		lo:    0,
		hi:    fillRight(a.hi | b.hi),
		known: a.known & b.known,
	}
	out.bits = (a.bits ^ b.bits) & out.known
	return out.tighten()
}

func absNot(a AbsVal) AbsVal {
	if r, ok := mapSet(a, func(x uint64) uint64 { return ^x }); ok {
		return r
	}
	return AbsVal{
		lo:    ^a.hi,
		hi:    ^a.lo,
		known: a.known,
		bits:  ^a.bits & a.known,
	}.tighten()
}

func absBic(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x &^ y }); ok {
		return r
	}
	return absAnd(a, absNot(b))
}

// absShift handles LSL/LSR/ASR where the amount may itself be abstract;
// the emulator masks the amount with 63.
func absShift(a, b AbsVal, f func(x uint64, s uint) uint64, byAmount func(a AbsVal, s uint) AbsVal) AbsVal {
	if s, ok := b.isExact(); ok {
		return byAmount(a, uint(s&63))
	}
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return f(x, uint(y&63)) }); ok {
		return r
	}
	return top()
}

func absLslBy(a AbsVal, s uint) AbsVal {
	if s == 0 {
		return a
	}
	if r, ok := mapSet(a, func(x uint64) uint64 { return x << s }); ok {
		return r
	}
	out := top()
	if a.hi<<s>>s == a.hi { // no bits lost
		out.lo = a.lo << s
		out.hi = a.hi << s
	}
	out.known = a.known<<s | onesLow(s)
	out.bits = a.bits << s
	return out.tighten()
}

func absLsrBy(a AbsVal, s uint) AbsVal {
	if s == 0 {
		return a
	}
	if r, ok := mapSet(a, func(x uint64) uint64 { return x >> s }); ok {
		return r
	}
	out := AbsVal{
		lo:    a.lo >> s,
		hi:    a.hi >> s,
		known: a.known>>s | ^(^uint64(0) >> s), // top s bits known zero
		bits:  a.bits >> s,
	}
	return out.tighten()
}

func absAsrBy(a AbsVal, s uint) AbsVal {
	if s == 0 {
		return a
	}
	if r, ok := mapSet(a, func(x uint64) uint64 { return uint64(int64(x) >> s) }); ok {
		return r
	}
	if a.hi < 1<<63 { // sign bit provably clear
		return absLsrBy(a, s)
	}
	if a.lo >= 1<<63 { // sign bit provably set; monotone on this range
		out := AbsVal{
			lo:    uint64(int64(a.lo) >> s),
			hi:    uint64(int64(a.hi) >> s),
			known: a.known>>s | ^(^uint64(0) >> s),
			bits:  a.bits>>s | ^(^uint64(0) >> s), // sign-fill ones
		}
		return out.tighten()
	}
	return top()
}

func absMul(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 { return x * y }); ok {
		return r
	}
	out := top()
	if b.hi == 0 || a.hi <= ^uint64(0)/b.hi { // product cannot wrap
		out.lo = a.lo * b.lo
		out.hi = a.hi * b.hi
	}
	// Trailing known zeros add across a multiply.
	t := trailingKnownZeros(a) + trailingKnownZeros(b)
	if t > 64 {
		t = 64
	}
	if t > 0 {
		out.known |= onesLow(uint(t))
		out.bits &^= onesLow(uint(t))
	}
	return out.tighten()
}

func absUdiv(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 {
		if y == 0 {
			return 0
		}
		return x / y
	}); ok {
		return r
	}
	if b.lo > 0 {
		return AbsVal{lo: a.lo / b.hi, hi: a.hi / b.lo}.tighten()
	}
	return AbsVal{lo: 0, hi: a.hi} // q ≤ dividend; div-by-0 gives 0
}

func absSdiv(a, b AbsVal) AbsVal {
	if r, ok := pairwise(a, b, func(x, y uint64) uint64 {
		if y == 0 {
			return 0
		}
		if x == 1<<63 && y == ^uint64(0) {
			return 1 << 63 // ARM SDIV overflow wraps: MinInt64 / -1 = MinInt64
		}
		return uint64(int64(x) / int64(y))
	}); ok {
		return r
	}
	return top()
}

func absRbit(a AbsVal, w bool) AbsVal {
	f := func(x uint64) uint64 {
		v := bits.Reverse64(x)
		if w {
			v >>= 32
		}
		return v
	}
	if r, ok := mapSet(a, f); ok {
		return r
	}
	out := top()
	rk := bits.Reverse64(a.known)
	rb := bits.Reverse64(a.bits)
	if w {
		rk = rk>>32 | hi32Mask // emulator shifts the reversal down
		rb >>= 32
	}
	out.known = rk
	out.bits = rb & rk
	return out.tighten()
}

// trunc32 projects the value onto its low 32 bits (W-form operand read).
func (a AbsVal) trunc32() AbsVal {
	if a.hi < 1<<32 && a.known>>32 == 0xffffffff && a.bits>>32 == 0 {
		return a // already a clean 32-bit value
	}
	if r, ok := mapSet(a, func(x uint64) uint64 { return uint64(uint32(x)) }); ok {
		return r
	}
	out := AbsVal{known: a.known | hi32Mask, bits: a.bits & onesLow(32)}
	if a.hi-a.lo < 1<<32 {
		l32, h32 := uint64(uint32(a.lo)), uint64(uint32(a.hi))
		if l32 <= h32 {
			out.lo, out.hi = l32, h32
			return out.tighten()
		}
	}
	out.lo, out.hi = 0, 1<<32-1
	return out.tighten()
}

// --- small helpers ------------------------------------------------------

func onesLow(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// fillRight sets every bit below the most significant set bit, giving
// the tightest power-of-two-minus-one upper bound.
func fillRight(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return ^uint64(0) >> uint(bits.LeadingZeros64(v))
}

func trailingKnownZeros(a AbsVal) int {
	// Count of contiguous low bits known to be zero.
	return bits.TrailingZeros64(^(a.known &^ a.bits))
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func sortU64(s []uint64) {
	// Insertion sort is fine at setCap scale; avoids a sort import in
	// the hot fixpoint loop.
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func searchU64(s []uint64, v uint64) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == v
}

// hi32Mask selects the high 32 bits of a 64-bit value.
const hi32Mask = uint64(0xffffffff) << 32
