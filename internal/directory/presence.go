package directory

import "math/bits"

// The full-map presence representation is two-tier. Machines with P <= 64
// keep the historical inline uint64 in each directory entry: the hot
// paths are branch-for-branch the ones the bit-identical equivalence
// suites were written against, and a directory entry stays a single
// cache-line-friendly struct. Above 64 processors the entries' inline
// words go unused and presence lives in one flat []uint64 backing array,
// setWords(P) words per line, sliced per entry on demand. All protocol
// code goes through the System pres* helpers, which branch on the mode
// once; Set carries the multi-word operations.

// forceWide makes New take the multi-word presence path even at P <= 64.
// Tests flip it to prove the two representations produce bit-identical
// statistics on the same configuration.
var forceWide bool

// ForceWidePresence is a test hook: it turns the multi-word presence
// path on or off for subsequently constructed Systems and returns the
// previous setting. Not safe to flip while systems are being built
// concurrently; tests that use it must not run in parallel with other
// system constructions.
func ForceWidePresence(on bool) (prev bool) {
	prev, forceWide = forceWide, on
	return prev
}

// setWords returns the number of 64-bit words a presence set over procs
// processors occupies.
func setWords(procs int) int { return (procs + 63) / 64 }

// Set is a multi-word presence bitset over processor IDs. It is a view
// into the System's flat backing array, not an owning allocation.
type Set []uint64

// Add sets p's bit.
func (s Set) Add(p int) { s[p>>6] |= 1 << uint(p&63) }

// Remove clears p's bit.
func (s Set) Remove(p int) { s[p>>6] &^= 1 << uint(p&63) }

// Has reports whether p's bit is set.
func (s Set) Has(p int) bool { return s[p>>6]&(1<<uint(p&63)) != 0 }

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears every member.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// FirstOther returns the lowest member other than p, or -1 if none. The
// limited-pointer eviction scan uses it to pick the same victim the
// ascending 0..P-1 sweep would.
func (s Set) FirstOther(p int) int {
	for i, w := range s {
		for w != 0 {
			q := i<<6 + bits.TrailingZeros64(w)
			if q != p {
				return q
			}
			w &= w - 1
		}
	}
	return -1
}

// ForEach visits the members in ascending order.
func (s Set) ForEach(fn func(p int)) {
	for i, w := range s {
		for w != 0 {
			fn(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// wideOn reports whether this System uses the multi-word presence path.
func (s *System) wideOn() bool { return s.wide != nil }

// pres returns the wide presence set for a line. Valid only when wideOn.
func (s *System) pres(tag int64) Set {
	w := int64(s.wps)
	return Set(s.wide[tag*w : (tag+1)*w])
}

// pendSet returns the per-epoch candidate set for a line (procs that
// logged a fill or claim against it this epoch). Valid only when wideOn;
// maintained by logLine and, after host-parallel epochs, buildPend.
func (s *System) pendSet(tag int64) Set {
	w := int64(s.wps)
	return Set(s.pend[tag*w : (tag+1)*w])
}

// The pres* helpers below are the only presence accessors the protocol
// code uses. On the narrow path they compile to the original single-word
// bit operations against entry.presence.

func (s *System) presAdd(e *entry, tag int64, p int) {
	if s.wide == nil {
		e.presence |= 1 << uint(p)
		return
	}
	s.pres(tag).Add(p)
}

func (s *System) presRemove(e *entry, tag int64, p int) {
	if s.wide == nil {
		e.presence &^= 1 << uint(p)
		return
	}
	s.pres(tag).Remove(p)
}

func (s *System) presHas(e *entry, tag int64, p int) bool {
	if s.wide == nil {
		return e.presence&(1<<uint(p)) != 0
	}
	return s.pres(tag).Has(p)
}

func (s *System) presCount(e *entry, tag int64) int {
	if s.wide == nil {
		return bits.OnesCount64(e.presence)
	}
	return s.pres(tag).Count()
}

func (s *System) presEmpty(e *entry, tag int64) bool {
	if s.wide == nil {
		return e.presence == 0
	}
	return s.pres(tag).Empty()
}

// presSetOnly makes p the sole member.
func (s *System) presSetOnly(e *entry, tag int64, p int) {
	if s.wide == nil {
		e.presence = 1 << uint(p)
		return
	}
	set := s.pres(tag)
	set.Reset()
	set.Add(p)
}

// presReset empties the set.
func (s *System) presReset(e *entry, tag int64) {
	if s.wide == nil {
		e.presence = 0
		return
	}
	s.pres(tag).Reset()
}

// presFirstOther returns the lowest member other than p, or -1.
func (s *System) presFirstOther(e *entry, tag int64, p int) int {
	if s.wide == nil {
		for q := 0; q < s.Cfg.Procs; q++ {
			if q != p && e.presence&(1<<uint(q)) != 0 {
				return q
			}
		}
		return -1
	}
	return s.pres(tag).FirstOther(p)
}
