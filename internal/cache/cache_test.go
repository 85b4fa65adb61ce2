package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/prog"
)

func TestSplitAndLineBase(t *testing.T) {
	c := New(64, 4, 1)
	tag, w := c.Split(prog.Word(13))
	if tag != 3 || w != 1 {
		t.Fatalf("Split(13) = (%d,%d), want (3,1)", tag, w)
	}
	if got := c.LineBase(13); got != 12 {
		t.Fatalf("LineBase(13) = %d, want 12", got)
	}
}

func TestLookupMissThenFill(t *testing.T) {
	c := New(64, 4, 1)
	if _, _, ok := c.Lookup(20); ok {
		t.Fatal("empty cache must miss")
	}
	v := c.Victim(20)
	if v == nil || v.State != Invalid {
		t.Fatal("victim in empty cache must be an invalid frame")
	}
	tag, w := c.Split(20)
	v.Tag = tag
	v.State = Shared
	v.TT[w] = 5
	v.Vals[w] = 3.25
	c.Touch(v)
	l, w2, ok := c.Lookup(20)
	if !ok || w2 != w || !l.ValidWord(w2) || l.Vals[w2] != 3.25 {
		t.Fatalf("lookup after fill failed: %v %d %v", l, w2, ok)
	}
	// Word 21 shares the line but is invalid.
	l21, w21, ok := c.Lookup(21)
	if !ok || l21 != l {
		t.Fatal("same-line lookup must find the line")
	}
	if l21.ValidWord(w21) {
		t.Fatal("unfilled word must be invalid")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(16, 4, 1) // 4 lines, direct mapped
	// addresses 0 and 16 map to the same set (tags 0 and 4, 4 sets).
	fill := func(addr prog.Word) {
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		v.InvalidateLine()
		v.Tag = tag
		v.State = Shared
		v.TT[w] = 1
		c.Touch(v)
	}
	fill(0)
	if _, _, ok := c.Lookup(0); !ok {
		t.Fatal("0 should be present")
	}
	v := c.Victim(16)
	tag0, _ := c.Split(0)
	if v.Tag != tag0 {
		t.Fatalf("victim for 16 must be the line holding 0, got tag %d", v.Tag)
	}
	fill(16)
	if _, _, ok := c.Lookup(0); ok {
		t.Fatal("0 must be evicted by 16 in a direct-mapped cache")
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	c := New(32, 4, 2) // 8 lines, 4 sets... 32/4=8 lines, 8/2=4 sets
	fill := func(addr prog.Word) {
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		v.InvalidateLine()
		v.Tag = tag
		v.State = Shared
		v.TT[w] = 1
		c.Touch(v)
	}
	// tags 0, 4, 8 all map to set 0 (4 sets).
	fill(0)
	fill(16)
	// touch 0 so 16 is LRU
	if l, _, ok := c.Lookup(0); ok {
		c.Touch(l)
	} else {
		t.Fatal("0 missing")
	}
	fill(32) // must evict 16
	if _, _, ok := c.Lookup(0); !ok {
		t.Fatal("0 (MRU) must survive")
	}
	if _, _, ok := c.Lookup(16); ok {
		t.Fatal("16 (LRU) must be evicted")
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(100)
	if tr.Seen(5) {
		t.Fatal("fresh tracker must not have seen 5")
	}
	tr.NoteCached(5)
	if !tr.Seen(5) {
		t.Fatal("5 must be seen")
	}
	tr.NoteLost(5, LostInvalFalse, 7)
	r, tt := tr.Lost(5)
	if r != LostInvalFalse || tt != 7 {
		t.Fatalf("Lost = (%v,%d)", r, tt)
	}
	// losing a never-seen word is a no-op
	tr.NoteLost(6, LostReplaced, 1)
	if r, _ := tr.Lost(6); r != LostNone {
		t.Fatal("unseen word must keep LostNone")
	}
}

func TestWriteBufferCoalescing(t *testing.T) {
	wb := NewWriteBuffer(true)
	if !wb.Write(10) {
		t.Fatal("first write generates traffic")
	}
	if wb.Write(10) {
		t.Fatal("second write to same word must coalesce")
	}
	if !wb.Write(11) {
		t.Fatal("different word generates traffic")
	}
	wb.Flush()
	if !wb.Write(10) {
		t.Fatal("after flush the word is no longer pending")
	}

	plain := NewWriteBuffer(false)
	if !plain.Write(10) || !plain.Write(10) {
		t.Fatal("plain buffer never coalesces")
	}
}

// TestWriteBufferGrowth drives the pending set far past its initial
// capacity and cross-checks every traffic decision against a model map:
// a write is traffic exactly when its word is not already pending this
// epoch, through any number of grow/rehash steps.
func TestWriteBufferGrowth(t *testing.T) {
	wb := NewWriteBuffer(true)
	model := map[prog.Word]bool{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		addr := prog.Word(r.Intn(2048))
		if traffic := wb.Write(addr); traffic == model[addr] {
			t.Fatalf("write %d of word %d: traffic = %v with pending = %v", i, addr, traffic, model[addr])
		}
		model[addr] = true
		if wb.Pending() != len(model) {
			t.Fatalf("Pending = %d, model holds %d", wb.Pending(), len(model))
		}
	}
	wb.Flush()
	if wb.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", wb.Pending())
	}
	for addr := range model {
		if !wb.Write(addr) {
			t.Fatalf("word %d still coalesces after Flush", addr)
		}
	}
}

// TestWriteBufferGenerationWraparound: when the epoch generation counter
// wraps, the stamp array must be reset so pre-wrap entries cannot alias
// the restarted counter and falsely coalesce.
func TestWriteBufferGenerationWraparound(t *testing.T) {
	wb := NewWriteBuffer(true)
	wb.gen = ^uint32(0)
	if !wb.Write(7) {
		t.Fatal("first write at max generation is traffic")
	}
	if wb.Write(7) {
		t.Fatal("repeat write at max generation must coalesce")
	}
	wb.Flush() // wraps: stamps cleared, generation restarts at 1
	if wb.gen != 1 {
		t.Fatalf("generation = %d after wraparound, want 1", wb.gen)
	}
	if !wb.Write(7) {
		t.Fatal("pre-wrap entry must not survive the wraparound flush")
	}
}

// Property: after filling an address, Lookup finds it with the value; after
// eviction of its line, it misses — random fill sequence consistency vs a
// model map.
func TestQuickCacheModelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(64, 4, 2)
		model := map[int64]float64{} // line tag -> fill stamp (presence model)
		present := map[int64]bool{}
		for step := 0; step < 200; step++ {
			addr := prog.Word(r.Intn(256))
			tag, w := c.Split(addr)
			if l, ww, ok := c.Lookup(addr); ok {
				if ww != w {
					return false
				}
				if present[tag] && l.ValidWord(ww) && l.Vals[ww] != model[int64(addr)] {
					return false
				}
				c.Touch(l)
				continue
			}
			// fill
			v := c.Victim(addr)
			if v.State != Invalid {
				delete(present, v.Tag)
			}
			v.InvalidateLine()
			v.Tag = tag
			v.State = Shared
			val := r.Float64()
			v.TT[w] = int64(step)
			v.Vals[w] = val
			model[int64(addr)] = val
			present[tag] = true
			c.Touch(v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFourWayAssociativity(t *testing.T) {
	c := New(64, 4, 4) // 16 lines, 4 sets of 4 ways
	fill := func(addr prog.Word, stamp int64) {
		v := c.Victim(addr)
		if v.State != Invalid {
			v.InvalidateLine()
		}
		tag, w := c.Split(addr)
		v.Tag = tag
		v.State = Shared
		v.TT[w] = stamp
		c.Touch(v)
	}
	// Four tags mapping to set 0 coexist (tags 0,4,8,12 with 4 sets).
	for k := 0; k < 4; k++ {
		fill(prog.Word(k*16), int64(k))
	}
	for k := 0; k < 4; k++ {
		if _, _, ok := c.Lookup(prog.Word(k * 16)); !ok {
			t.Fatalf("way %d evicted prematurely", k)
		}
	}
	// Fifth conflicting fill evicts exactly the LRU (tag of addr 0).
	fill(prog.Word(4*16), 9)
	if _, _, ok := c.Lookup(0); ok {
		t.Fatal("LRU way must be the victim")
	}
	for k := 1; k < 5; k++ {
		if _, _, ok := c.Lookup(prog.Word(k * 16)); !ok {
			t.Fatalf("way %d should survive", k)
		}
	}
}

func TestForEachValidLine(t *testing.T) {
	c := New(32, 4, 1)
	v := c.Victim(0)
	tag, _ := c.Split(0)
	v.Tag = tag
	v.State = Shared
	v.TT[0] = 1
	seen := 0
	c.ForEachValidLine(func(l *Line) { seen++ })
	if seen != 1 {
		t.Fatalf("visited %d lines, want 1", seen)
	}
}

func TestWordValidityAndDirtyBits(t *testing.T) {
	c := New(16, 4, 1)
	v := c.Victim(0)
	tag, _ := c.Split(0)
	v.Tag = tag
	v.State = Shared
	v.TT[1] = 5
	v.DirtyW[1] = true
	if v.ValidWord(0) || !v.ValidWord(1) {
		t.Fatal("per-word validity broken")
	}
	v.InvalidateWord(1)
	if v.ValidWord(1) {
		t.Fatal("InvalidateWord failed")
	}
	if !v.DirtyW[1] {
		t.Fatal("InvalidateWord must not clear dirty accounting")
	}
	v.InvalidateLine()
	if v.DirtyW[1] {
		t.Fatal("InvalidateLine must clear dirty bits")
	}
}

// TestSplitCrossCheck verifies the power-of-two shift/mask Split and
// LineBase against the general div/mod path for both power-of-two and
// non-power-of-two line sizes.
func TestSplitCrossCheck(t *testing.T) {
	refSplit := func(addr prog.Word, lw int) (int64, int) {
		return int64(addr) / int64(lw), int(int64(addr) % int64(lw))
	}
	refBase := func(addr prog.Word, lw int) prog.Word {
		return addr - prog.Word(int(int64(addr))%lw)
	}
	for _, lw := range []int{1, 2, 4, 8, 16, 3, 5, 6, 12} {
		c := New(int64(lw*16), lw, 1)
		pow2 := lw&(lw-1) == 0
		if c.pow2 != pow2 {
			t.Fatalf("lineWords=%d: pow2 flag = %v, want %v", lw, c.pow2, pow2)
		}
		for _, addr := range []prog.Word{0, 1, prog.Word(lw - 1), prog.Word(lw), prog.Word(lw + 1), 63, 64, 1023, 1 << 30} {
			wantTag, wantW := refSplit(addr, lw)
			tag, w := c.Split(addr)
			if tag != wantTag || w != wantW {
				t.Fatalf("lineWords=%d Split(%d) = (%d,%d), want (%d,%d)", lw, addr, tag, w, wantTag, wantW)
			}
			if got, want := c.LineBase(addr), refBase(addr, lw); got != want {
				t.Fatalf("lineWords=%d LineBase(%d) = %d, want %d", lw, addr, got, want)
			}
		}
		rnd := rand.New(rand.NewSource(int64(lw)))
		for i := 0; i < 1000; i++ {
			addr := prog.Word(rnd.Int63n(1 << 40))
			wantTag, wantW := refSplit(addr, lw)
			if tag, w := c.Split(addr); tag != wantTag || w != wantW {
				t.Fatalf("lineWords=%d Split(%d) = (%d,%d), want (%d,%d)", lw, addr, tag, w, wantTag, wantW)
			}
			if got, want := c.LineBase(addr), refBase(addr, lw); got != want {
				t.Fatalf("lineWords=%d LineBase(%d) = %d, want %d", lw, addr, got, want)
			}
		}
	}
}

// TestTrackerBitset exercises the bitset-backed seen set across word
// boundaries and against a reference map implementation.
func TestTrackerBitset(t *testing.T) {
	const memWords = 200 // deliberately not a multiple of 64
	tr := NewTracker(memWords)
	if got, want := len(tr.seen), (memWords+63)/64; got != want {
		t.Fatalf("bitset words = %d, want %d", got, want)
	}
	ref := map[prog.Word]bool{}
	for _, addr := range []prog.Word{0, 1, 62, 63, 64, 65, 127, 128, memWords - 1} {
		if tr.Seen(addr) {
			t.Fatalf("Seen(%d) true before NoteCached", addr)
		}
		tr.NoteCached(addr)
		ref[addr] = true
	}
	for addr := prog.Word(0); addr < memWords; addr++ {
		if tr.Seen(addr) != ref[addr] {
			t.Fatalf("Seen(%d) = %v, want %v", addr, tr.Seen(addr), ref[addr])
		}
	}
	// NoteLost on a seen word records reason+tt; on an unseen word it is
	// a no-op (cold words classify as cold, not replaced).
	tr.NoteLost(63, LostReplaced, 7)
	if r, tt := tr.Lost(63); r != LostReplaced || tt != 7 {
		t.Fatalf("Lost(63) = (%v,%d), want (LostReplaced,7)", r, tt)
	}
	tr.NoteLost(100, LostReplaced, 9)
	if tr.Seen(100) {
		t.Fatal("NoteLost must not mark unseen words as seen")
	}
	if r, _ := tr.Lost(100); r != LostNone {
		t.Fatalf("Lost(100) = %v on never-cached word, want LostNone", r)
	}
	// Re-caching resets the loss reason.
	tr.NoteCached(63)
	if r, _ := tr.Lost(63); r != LostNone {
		t.Fatalf("Lost(63) after recache = %v, want LostNone", r)
	}
}

// TestPooledReuseIsFresh: a cache released back to the construction pool
// and re-obtained with the same geometry must be observationally
// identical to a fresh one — no frames, every lookup a miss, and every
// frame Victim hands out invalid, with every word timetag TTInvalid and
// no used or dirty bits — even after heavy dirtying. (Vals may keep stale
// data: it is never readable without a validity check.)
func TestPooledReuseIsFresh(t *testing.T) {
	const capacity, lineWords, assoc = 256, 4, 2
	c := New(capacity, lineWords, assoc)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		addr := prog.Word(rng.Intn(4096))
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		v.Tag = tag
		v.State = Exclusive
		v.Dirty = true
		v.TT[w] = int64(i)
		v.Used[w] = true
		v.DirtyW[w] = true
		v.Vals[w] = float64(i)
		c.Touch(v)
	}
	if c.Frames() == 0 {
		t.Fatal("dirtying created no frames")
	}
	Release(c)
	r := New(capacity, lineWords, assoc)
	if r != c {
		t.Skip("pool did not return the released cache (GC-cleared pool)")
	}
	if got := r.Frames(); got != 0 {
		t.Fatalf("pooled cache starts with %d frames, want 0", got)
	}
	r.ForEachValidLine(func(l *Line) { t.Fatalf("pooled cache holds valid line %d", l.Tag) })
	for addr := prog.Word(0); addr < 4096; addr += 3 {
		if _, _, ok := r.Lookup(addr); ok {
			t.Fatalf("pooled cache hits addr %d before any fill", addr)
		}
	}
	sets := capacity / lineWords / assoc
	for s := 0; s < sets; s++ {
		addr := prog.Word(s * lineWords)
		for way := 0; way < assoc; way++ {
			l := r.Victim(addr)
			if l.Tag != -1 || l.State != Invalid || l.Dirty {
				t.Fatalf("set %d way %d not reset: %+v", s, way, l)
			}
			for w := range l.TT {
				if l.TT[w] != TTInvalid || l.Used[w] || l.DirtyW[w] {
					t.Fatalf("set %d way %d word %d not reset: tt=%d used=%v dirtyW=%v",
						s, way, w, l.TT[w], l.Used[w], l.DirtyW[w])
				}
			}
			// Occupy the way so the next Victim call hands out the next one.
			tag, _ := r.Split(addr)
			l.Tag, l.State = tag+int64(way*sets), Shared
			r.Touch(l)
		}
	}
	// Fresh LRU state: with every way filled once in order, the first
	// way filled is the least recently used.
	if v := r.Victim(0); v.Tag != 0 {
		t.Fatalf("LRU victim of set 0 holds tag %d, want 0 (first filled)", v.Tag)
	}
}

// refCache is the dense reference layout the sparse cache must match
// observationally: every frame allocated up front, set-major.
type refCache struct {
	lineWords, sets, assoc int
	lines                  []Line
	clock                  int64
}

func newRefCache(capacityWords int64, lineWords, assoc int) *refCache {
	sets := int(capacityWords) / lineWords / assoc
	r := &refCache{lineWords: lineWords, sets: sets, assoc: assoc, lines: make([]Line, sets*assoc)}
	for i := range r.lines {
		l := &r.lines[i]
		l.Vals = make([]float64, lineWords)
		l.TT = make([]int64, lineWords)
		l.Used = make([]bool, lineWords)
		l.DirtyW = make([]bool, lineWords)
		l.InvalidateLine()
	}
	return r
}

func (r *refCache) set(addr prog.Word) []Line {
	s := int(int64(addr) / int64(r.lineWords) % int64(r.sets))
	return r.lines[s*r.assoc : (s+1)*r.assoc]
}

func (r *refCache) lookup(addr prog.Word) *Line {
	tag := int64(addr) / int64(r.lineWords)
	for i, l := range r.set(addr) {
		if l.State != Invalid && l.Tag == tag {
			return &r.set(addr)[i]
		}
	}
	return nil
}

func (r *refCache) victim(addr prog.Word) *Line {
	set := r.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.State == Invalid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

func (r *refCache) touch(l *Line) {
	r.clock++
	l.lru = r.clock
}

// sameLine compares the observable contents of two frames: header, and
// per word the timetag, used and dirty bits, and the value of valid words.
func sameLine(a, b *Line) bool {
	if a.Tag != b.Tag || a.State != b.State || a.Dirty != b.Dirty {
		return false
	}
	for w := range a.TT {
		if a.TT[w] != b.TT[w] || a.Used[w] != b.Used[w] || a.DirtyW[w] != b.DirtyW[w] {
			return false
		}
		if a.ValidWord(w) && a.Vals[w] != b.Vals[w] {
			return false
		}
	}
	return true
}

// TestSparseMatchesDenseModel drives the sparse cache and the dense
// reference with the same random operation stream — lookups, fills
// through Victim, Touch, word and line invalidation, ForEachValidLine
// sweeps that mutate lines, and release-and-reuse — and requires them to
// agree after every step, at several associativities and line sizes
// (including a non-power-of-two one) and a set count that leaves the
// last chunk partly used.
func TestSparseMatchesDenseModel(t *testing.T) {
	const sets = 40
	for _, assoc := range []int{1, 2, 4} {
		for _, lw := range []int{1, 3, 4} {
			capacity := int64(sets * assoc * lw)
			rng := rand.New(rand.NewSource(int64(100*assoc + lw)))
			c, ref := New(capacity, lw, assoc), newRefCache(capacity, lw, assoc)
			span := int(capacity) * 4
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("assoc=%d lineWords=%d step %d: "+format, append([]any{assoc, lw, step}, args...)...)
			}
			for step := 0; step < 4000; step++ {
				addr := prog.Word(rng.Intn(span))
				tag, w := c.Split(addr)
				switch op := rng.Intn(100); {
				case op < 45: // lookup, and on a hit touch or mutate the line
					l, lw2, ok := c.Lookup(addr)
					rl := ref.lookup(addr)
					if ok != (rl != nil) || lw2 != w {
						fail(step, "Lookup(%d) present=%v word=%d, reference present=%v word=%d", addr, ok, lw2, rl != nil, w)
					}
					if !ok {
						continue
					}
					if !sameLine(l, rl) {
						fail(step, "Lookup(%d) line %+v, reference %+v", addr, *l, *rl)
					}
					switch rng.Intn(4) {
					case 0:
						l.InvalidateWord(w)
						rl.InvalidateWord(w)
					case 1:
						l.InvalidateLine()
						rl.InvalidateLine()
					default:
						l.Used[w], rl.Used[w] = true, true
						c.Touch(l)
						ref.touch(rl)
					}
				case op < 90: // fill through Victim, as callers do, on a miss only
					if ref.lookup(addr) != nil {
						continue
					}
					v, rv := c.Victim(addr), ref.victim(addr)
					if !sameLine(v, rv) {
						fail(step, "Victim(%d) = %+v, reference %+v", addr, *v, *rv)
					}
					v.InvalidateLine()
					rv.InvalidateLine()
					val := rng.Float64()
					state := Shared
					if rng.Intn(2) == 0 {
						state = Exclusive
					}
					for _, l := range []*Line{v, rv} {
						l.Tag, l.State = tag, state
						l.Dirty = state == Exclusive
						l.TT[w] = int64(step)
						l.Vals[w] = val
						l.DirtyW[w] = l.Dirty
					}
					if rng.Intn(4) != 0 { // a fill left untouched keeps its old LRU stamp
						c.Touch(v)
						ref.touch(rv)
					}
				case op < 98: // sweep: compare valid lines, then drain dirty words
					got := map[int64]*Line{}
					c.ForEachValidLine(func(l *Line) {
						if got[l.Tag] != nil {
							fail(step, "ForEachValidLine visits tag %d twice", l.Tag)
						}
						got[l.Tag] = l
					})
					n := 0
					for i := range ref.lines {
						rl := &ref.lines[i]
						if rl.State == Invalid {
							continue
						}
						n++
						if l := got[rl.Tag]; l == nil || !sameLine(l, rl) {
							fail(step, "ForEachValidLine line for tag %d = %+v, reference %+v", rl.Tag, l, *rl)
						}
						clear(rl.DirtyW)
					}
					if n != len(got) {
						fail(step, "ForEachValidLine visited %d lines, reference holds %d", len(got), n)
					}
					c.ForEachValidLine(func(l *Line) { clear(l.DirtyW) })
				default: // release and reuse
					Release(c)
					c, ref = New(capacity, lw, assoc), newRefCache(capacity, lw, assoc)
					if c.Frames() != 0 {
						fail(step, "reused cache has %d frames", c.Frames())
					}
				}
			}
		}
	}
}

// TestLinePointerStable: a *Line taken early stays the frame Lookup
// returns for its tag while fills to other sets create many more chunks.
func TestLinePointerStable(t *testing.T) {
	c := New(16384, 4, 1) // the paper's 64 KB direct-mapped cache
	first := c.Victim(0)
	first.Tag, first.State, first.TT[0], first.Vals[0] = 0, Shared, 1, 2.5
	const fills = 1000
	for k := 1; k <= fills; k++ {
		addr := prog.Word(4 * k)
		v := c.Victim(addr)
		tag, w := c.Split(addr)
		v.Tag, v.State, v.TT[w] = tag, Shared, 1
	}
	if got := c.Frames(); got < 32*chunkSets {
		t.Fatalf("only %d frames created; the test needs many chunks", got)
	}
	l, _, ok := c.Lookup(0)
	if !ok || l != first {
		t.Fatalf("Lookup(0) = %p (present %v), want the first frame %p", l, ok, first)
	}
	if !l.ValidWord(0) || l.Vals[0] != 2.5 {
		t.Fatal("first frame lost its contents")
	}
}

// TestFramesFootprint: frames are created only by Victim, a set's worth
// at a time, so filling k distinct sets creates k × assoc frames however
// many addresses map to them, and lookups create none.
func TestFramesFootprint(t *testing.T) {
	for _, assoc := range []int{1, 2, 4} {
		const lineWords, sets = 4, 64
		c := New(int64(sets*assoc*lineWords), lineWords, assoc)
		for addr := prog.Word(0); addr < 4096; addr += 7 {
			c.Lookup(addr)
		}
		if got := c.Frames(); got != 0 {
			t.Fatalf("assoc=%d: lookups created %d frames", assoc, got)
		}
		filled := map[int64]bool{}
		rng := rand.New(rand.NewSource(int64(assoc)))
		for i := 0; i < 40; i++ {
			// Sets 0..sets/2-1 only, reached through several tags each.
			addr := prog.Word((rng.Intn(sets/2) + sets*rng.Intn(8)) * lineWords)
			v := c.Victim(addr)
			tag, _ := c.Split(addr)
			v.Tag, v.State = tag, Shared
			c.Touch(v)
			filled[tag%sets] = true
			if got, want := c.Frames(), len(filled)*assoc; got != want {
				t.Fatalf("assoc=%d after %d fills: %d frames, want %d sets × %d", assoc, i+1, got, len(filled), assoc)
			}
		}
	}
}

// TestPooledTrackerIsFresh: a released tracker re-obtained for the same
// memory extent must report no word as seen.
func TestPooledTrackerIsFresh(t *testing.T) {
	tr := NewTracker(512)
	for a := prog.Word(0); a < 512; a += 2 {
		tr.NoteCached(a)
		tr.NoteLost(a, LostReset, 3)
	}
	ReleaseTracker(tr)
	r := NewTracker(512)
	if r != tr {
		t.Skip("pool did not return the released tracker (GC-cleared pool)")
	}
	for a := prog.Word(0); a < 512; a++ {
		if r.Seen(a) {
			t.Fatalf("pooled tracker has word %d seen", a)
		}
	}
}
