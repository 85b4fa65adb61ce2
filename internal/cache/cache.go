// Package cache implements the per-processor data cache used by all
// coherence schemes: set-associative (direct-mapped by default) with
// multi-word lines, per-word validity, per-word timetags for the TPI
// scheme, MSI state and dirty bits for the directory scheme, and per-word
// used-since-fill bits for Tullsen–Eggers false-sharing classification.
//
// A cache's line frames are created a set at a time, when the set is
// first filled, and never move afterwards: building, resetting and
// sweeping a cache costs the sets its processor touched, not its
// capacity (at P in the thousands each processor touches a few of its
// thousands of sets).
//
// The cache stores real data values; the simulator reads through it, so
// stale data — if a scheme ever allowed it — would visibly corrupt the
// computation. That is intentional: it is what makes the staleness oracle
// and the sequential-equivalence property tests meaningful.
package cache

import (
	"math/bits"
	"sync"

	"repro/internal/prog"
)

// State is the MSI line state used by the directory scheme. Write-through
// schemes only use Invalid and Shared.
type State uint8

const (
	// Invalid means the line holds no valid data.
	Invalid State = iota
	// Shared means a clean copy readable by this processor.
	Shared
	// Exclusive means this processor owns the only (possibly dirty) copy.
	Exclusive
)

// TTInvalid marks an invalid word (no valid data in that word slot).
const TTInvalid = int64(-1)

// Line is one cache line frame. A frame never moves while its cache
// exists, so a *Line stays the frame that Lookup would return for its
// tag as long as it holds that tag (the stream cursors in memsys keep
// line pointers across accesses and revalidate them by tag and state).
type Line struct {
	Tag   int64 // line address (word address / line size); -1 when empty
	State State
	Dirty bool
	Vals  []float64
	// TT is the per-word timetag: the epoch at which the word was last
	// written, filled, or validated by this processor. TTInvalid marks an
	// invalid word.
	TT []int64
	// Used marks words accessed by the local processor since the fill
	// (for false-sharing classification).
	Used []bool
	// DirtyW marks words written but not yet flushed to memory under the
	// write-back-at-boundary policy (traffic accounting only; the
	// simulator keeps memory values authoritative).
	DirtyW []bool
	lru    int64
}

// ValidWord reports whether word w of the line holds data.
func (l *Line) ValidWord(w int) bool { return l.State != Invalid && l.TT[w] != TTInvalid }

// InvalidateWord drops one word.
func (l *Line) InvalidateWord(w int) { l.TT[w] = TTInvalid }

// InvalidateLine drops the whole line.
func (l *Line) InvalidateLine() {
	l.State = Invalid
	l.Dirty = false
	l.Tag = -1
	for i := range l.TT {
		l.TT[i] = TTInvalid
		l.Used[i] = false
		l.DirtyW[i] = false
	}
}

// A chunk holds the frames of chunkSets sets (times the associativity),
// a power of two so that finding a set's frames from its creation index
// is a shift and a mask. At the default geometry a chunk is about 3 KB:
// a processor that touches a handful of sets allocates one, and a full
// 64 KB cache needs 256.
const (
	chunkShift = 4
	chunkSets  = 1 << chunkShift
)

// Cache is one processor's data cache. A set's frames are created by the
// first Victim call for the set; slot maps a set to its frames (0: never
// filled, so every lookup in it misses), and the frames live in
// fixed-size chunks that own their word arrays and are never
// reallocated, which keeps every *Line in place.
type Cache struct {
	capacityWords int64
	lineWords     int
	// Power-of-two line sizes (the common case; machine.Validate enforces
	// it for simulated configurations) split addresses with a shift and a
	// mask instead of div/mod. pow2 selects the fast path; the general
	// path stays for arbitrary line sizes.
	pow2  bool
	shift uint
	mask  int64
	sets  int
	assoc int
	// slot[s] is 1 + the creation index of set s's frames, 0 when set s
	// has none yet. order[g] is the set whose frames were created g-th.
	slot  []int32
	order []int32
	// chunks[g>>chunkShift] holds the frames of sets created g-th, at
	// offset (g&(chunkSets-1))*assoc. A pooled cache keeps its chunks.
	chunks [][]Line
	clock  int64
}

// Caches are the largest allocations a simulated run makes, and systems
// are built per run, so New draws from a per-geometry pool of released
// caches instead of allocating. A reset cache is indistinguishable from
// a fresh one: no set has frames, so every lookup misses, and the clock
// is zero. Reset forgets the sets the last run created (O(sets touched),
// not O(capacity)); their frames are made fresh again when a set is next
// created — Tag -1, State Invalid, LRU zero, every word timetag
// TTInvalid. Vals is intentionally left stale: no scheme reads a word
// value without first passing a validity check (ValidWord / a timetag
// hit predicate), and every fill overwrites Vals before validating the
// words.
type poolKey struct {
	capacityWords int64
	lineWords     int
	assoc         int
}

var pools sync.Map // poolKey -> *sync.Pool of *Cache

// poolFor returns m's pool for key, creating it on first use only: a run
// at large P releases thousands of caches and trackers, and LoadOrStore
// alone would box the key and allocate a candidate pool for every one.
func poolFor[K comparable](m *sync.Map, key K) *sync.Pool {
	if p, ok := m.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := m.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// Release returns a cache to the construction pool. The caller must not
// use it afterwards (core releases a run's system only after the last
// snapshot has been taken).
func Release(c *Cache) {
	poolFor(&pools, poolKey{c.capacityWords, c.lineWords, c.assoc}).Put(c)
}

// reset restores a pooled cache to the fresh-construction state.
func (c *Cache) reset() {
	c.clock = 0
	for _, s := range c.order {
		c.slot[s] = 0
	}
	c.order = c.order[:0]
}

// New builds a cache of capacityWords with the given line size (words)
// and associativity. capacityWords must be a multiple of lineWords*assoc.
// Construction allocates only the per-set slot index; frames come in
// chunks as sets are first filled (see Cache). A released cache of the
// same geometry is reused instead of allocating at all (systems are
// built per simulated run).
func New(capacityWords int64, lineWords, assoc int) *Cache {
	if p, ok := pools.Load(poolKey{capacityWords, lineWords, assoc}); ok {
		if c, ok := p.(*sync.Pool).Get().(*Cache); ok {
			c.reset()
			return c
		}
	}
	sets := int(capacityWords) / lineWords / assoc
	c := &Cache{
		capacityWords: capacityWords,
		lineWords:     lineWords,
		sets:          sets,
		assoc:         assoc,
		slot:          make([]int32, sets),
	}
	if lineWords&(lineWords-1) == 0 {
		c.pow2 = true
		c.shift = uint(bits.TrailingZeros(uint(lineWords)))
		c.mask = int64(lineWords - 1)
	}
	return c
}

// LineWords returns the line size in words.
func (c *Cache) LineWords() int { return c.lineWords }

// Frames returns the number of line frames created so far: the
// associativity times the number of distinct sets filled since the cache
// was built or reused. It is the cache's footprint, not a line count
// (created frames may since have been invalidated).
func (c *Cache) Frames() int { return len(c.order) * c.assoc }

// Split decomposes a word address into (line tag, word-in-line).
func (c *Cache) Split(addr prog.Word) (tag int64, word int) {
	if c.pow2 {
		return int64(addr) >> c.shift, int(int64(addr) & c.mask)
	}
	return int64(addr) / int64(c.lineWords), int(int64(addr) % int64(c.lineWords))
}

// LineBase returns the first word address of the line containing addr.
func (c *Cache) LineBase(addr prog.Word) prog.Word {
	if c.pow2 {
		return addr &^ prog.Word(c.mask)
	}
	return addr - prog.Word(int(int64(addr))%c.lineWords)
}

// frames returns the frames of the set created g-th.
func (c *Cache) frames(g int32) []Line {
	off := int(g&(chunkSets-1)) * c.assoc
	return c.chunks[g>>chunkShift][off : off+c.assoc : off+c.assoc]
}

// create gives set s its frames, fresh, and returns their creation index.
// A new chunk carves its frames' word arrays out of four backing slices,
// so it costs a handful of allocations rather than four per line.
func (c *Cache) create(s int32) int32 {
	g := int32(len(c.order))
	c.order = append(c.order, s)
	c.slot[s] = g + 1
	if int(g>>chunkShift) == len(c.chunks) {
		n := chunkSets * c.assoc
		words := n * c.lineWords
		vals := make([]float64, words)
		tt := make([]int64, words)
		used := make([]bool, words)
		dirtyW := make([]bool, words)
		ch := make([]Line, n)
		for i := range ch {
			lo, hi := i*c.lineWords, (i+1)*c.lineWords
			ch[i].Vals = vals[lo:hi:hi]
			ch[i].TT = tt[lo:hi:hi]
			ch[i].Used = used[lo:hi:hi]
			ch[i].DirtyW = dirtyW[lo:hi:hi]
		}
		c.chunks = append(c.chunks, ch)
	}
	set := c.frames(g)
	for i := range set {
		set[i].InvalidateLine()
		set[i].lru = 0
	}
	return g
}

// Lookup finds the line holding addr. It returns (line, word index,
// present); present means the tag matches and the line is not Invalid —
// the word itself may still be invalid (check ValidWord). A set that was
// never filled misses without creating frames.
func (c *Cache) Lookup(addr prog.Word) (*Line, int, bool) {
	tag, w := c.Split(addr)
	g := c.slot[tag%int64(c.sets)]
	if g == 0 {
		return nil, w, false
	}
	set := c.frames(g - 1)
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.Tag == tag {
			return l, w, true
		}
	}
	return nil, w, false
}

// Touch refreshes the line's LRU position. Direct-mapped caches (the
// default configuration) skip the bookkeeping: Victim ignores LRU order
// when the set has a single way, so the clock is unobservable.
func (c *Cache) Touch(l *Line) {
	if c.assoc == 1 {
		return
	}
	c.clock++
	l.lru = c.clock
}

// Victim selects the frame to (re)fill for addr: an invalid way if one
// exists, else the LRU way, creating the set's frames on its first use.
// The returned line may hold a conflicting valid line that the caller
// must evict first.
func (c *Cache) Victim(addr prog.Word) *Line {
	tag, _ := c.Split(addr)
	s := int32(tag % int64(c.sets))
	g := c.slot[s]
	if g == 0 {
		g = c.create(s) + 1
	}
	set := c.frames(g - 1)
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

// ForEachValidLine visits every non-invalid line, in the order the
// lines' sets were first filled (not set order). Its callers do not
// depend on the order: the TPI barrier sweeps sum counters (flushDirty)
// and note per-word tracker history keyed by address (resetOutOfPhase,
// flashInvalidate), and the directory's CheckInvariants stops at the
// first line that breaks an invariant, where any such line is a correct
// report (a consistent system has none, so its result is order-free).
func (c *Cache) ForEachValidLine(fn func(l *Line)) {
	n := c.Frames()
	for _, ch := range c.chunks {
		if n <= 0 {
			break
		}
		ch = ch[:min(n, len(ch))]
		n -= len(ch)
		for i := range ch {
			if ch[i].State != Invalid {
				fn(&ch[i])
			}
		}
	}
}

// LostReason records why a processor lost a word it once cached; it feeds
// the miss classifier.
type LostReason uint8

const (
	// LostNone means the word was never cached (cold).
	LostNone LostReason = iota
	// LostReplaced means the word was evicted by a conflicting fill.
	LostReplaced
	// LostInvalTrue means a coherence invalidation where the invalidating
	// write touched a word this processor had used (true sharing).
	LostInvalTrue
	// LostInvalFalse means a coherence invalidation caused by a write to a
	// word this processor had NOT used since the fill (false sharing).
	LostInvalFalse
	// LostReset means a TPI two-phase reset dropped the word.
	LostReset
)

// Tracker records per-word history for one processor: whether the word
// was ever cached, and how it was last lost, for miss classification.
// The seen set is a bitset over the memory extent (one bit per word,
// allocated once), an eighth of the []bool it replaces per processor.
type Tracker struct {
	seen   []uint64
	reason []LostReason
	lostTT []int64
}

var trackerPools sync.Map // memWords (int64) -> *sync.Pool of *Tracker

// NewTracker sizes the tracker for the memory extent, reusing a released
// tracker of the same extent when one is pooled. Reset is just clearing
// the seen bitset: reason and lostTT are only ever read for words whose
// seen bit is set (ClassifyMiss checks Seen first), and NoteCached
// rewrites reason before setting the bit.
func NewTracker(memWords int64) *Tracker {
	if p, ok := trackerPools.Load(memWords); ok {
		if t, ok := p.(*sync.Pool).Get().(*Tracker); ok {
			clear(t.seen)
			return t
		}
	}
	return &Tracker{
		seen:   make([]uint64, (memWords+63)/64),
		reason: make([]LostReason, memWords),
		lostTT: make([]int64, memWords),
	}
}

// ReleaseTracker returns a tracker to the construction pool; the caller
// must not use it afterwards.
func ReleaseTracker(t *Tracker) {
	poolFor(&trackerPools, int64(len(t.reason))).Put(t)
}

// NoteCached records that the processor now caches addr.
func (t *Tracker) NoteCached(addr prog.Word) {
	t.seen[addr>>6] |= 1 << (uint(addr) & 63)
	t.reason[addr] = LostNone
}

// NoteLost records losing a word with a reason and the timetag it had.
func (t *Tracker) NoteLost(addr prog.Word, r LostReason, tt int64) {
	if t.Seen(addr) {
		t.reason[addr] = r
		t.lostTT[addr] = tt
	}
}

// Seen reports whether the processor ever cached addr.
func (t *Tracker) Seen(addr prog.Word) bool {
	return t.seen[addr>>6]&(1<<(uint(addr)&63)) != 0
}

// Lost returns how addr was last lost and the timetag it had then.
func (t *Tracker) Lost(addr prog.Word) (LostReason, int64) {
	return t.reason[addr], t.lostTT[addr]
}
