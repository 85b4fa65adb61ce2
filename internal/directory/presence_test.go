package directory

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/stats"
)

// refSet is the oracle: a plain map of members.
type refSet map[int]bool

func (r refSet) count() int { return len(r) }

func (r refSet) firstOther(p, procs int) int {
	for q := 0; q < procs; q++ {
		if q != p && r[q] {
			return q
		}
	}
	return -1
}

// TestSetAgainstReference drives the multi-word presence set and a
// map-based reference model through the same randomized operation
// stream at widths spanning the narrow/wide boundary, checking every
// observable (membership, popcount, emptiness, ascending iteration,
// and the limited-pointer eviction scan) after each step.
func TestSetAgainstReference(t *testing.T) {
	for _, procs := range []int{16, 64, 65, 1024} {
		procs := procs
		t.Run(fmtProcs(procs), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(procs)))
			s := make(Set, setWords(procs))
			ref := refSet{}
			for step := 0; step < 4000; step++ {
				p := rng.Intn(procs)
				switch rng.Intn(6) {
				case 0, 1: // add dominates, like fills do
					s.Add(p)
					ref[p] = true
				case 2:
					s.Remove(p)
					delete(ref, p)
				case 3: // eviction: clear everything (writeCritical, claims)
					if rng.Intn(8) == 0 {
						s.Reset()
						ref = refSet{}
					}
				case 4: // claim registration: sole member
					if rng.Intn(8) == 0 {
						s.Reset()
						s.Add(p)
						ref = refSet{p: true}
					}
				case 5: // pointer eviction: drop the first other member
					if v := s.FirstOther(p); v >= 0 {
						s.Remove(v)
						delete(ref, v)
					}
				}
				if got, want := s.Has(p), ref[p]; got != want {
					t.Fatalf("step %d: Has(%d) = %v, want %v", step, p, got, want)
				}
				if got, want := s.Count(), ref.count(); got != want {
					t.Fatalf("step %d: Count = %d, want %d", step, got, want)
				}
				if got, want := s.Empty(), ref.count() == 0; got != want {
					t.Fatalf("step %d: Empty = %v, want %v", step, got, want)
				}
				if got, want := s.FirstOther(p), ref.firstOther(p, procs); got != want {
					t.Fatalf("step %d: FirstOther(%d) = %d, want %d", step, p, got, want)
				}
				if step%97 == 0 { // iteration order: ascending, complete
					var got []int
					s.ForEach(func(q int) { got = append(got, q) })
					if len(got) != ref.count() {
						t.Fatalf("step %d: ForEach visited %d members, want %d", step, len(got), ref.count())
					}
					for i, q := range got {
						if !ref[q] {
							t.Fatalf("step %d: ForEach visited non-member %d", step, q)
						}
						if i > 0 && got[i-1] >= q {
							t.Fatalf("step %d: ForEach out of order: %v", step, got)
						}
					}
				}
			}
		})
	}
}

func fmtProcs(p int) string {
	const digits = "0123456789"
	if p == 0 {
		return "P0"
	}
	var buf [8]byte
	i := len(buf)
	for p > 0 {
		i--
		buf[i] = digits[p%10]
		p /= 10
	}
	return "P" + string(buf[i:])
}

func cfgForTest(procs int) machine.Config {
	c := machine.Default(machine.SchemeHW)
	c.Procs = procs
	c.CacheWords = 64
	c.LineWords = 4
	return c
}

// TestForceWidePresenceHook exercises the test hook itself: flipping it
// makes New build the wide backing even at small P, and restoring it
// returns to the inline word.
func TestForceWidePresenceHook(t *testing.T) {
	prev := ForceWidePresence(true)
	defer ForceWidePresence(prev)
	s := New(cfgForTest(8), 1024)
	defer s.ReleaseCaches()
	if s.wide == nil {
		t.Fatal("forceWide on: New built the narrow path")
	}
	ForceWidePresence(false)
	s2 := New(cfgForTest(8), 1024)
	defer s2.ReleaseCaches()
	if s2.wide != nil {
		t.Fatal("forceWide off: New built the wide path at P=8")
	}
	if s3 := New(cfgForTest(65), 1024); s3.wide == nil {
		t.Fatal("P=65: New must take the wide path")
	} else {
		s3.ReleaseCaches()
	}
}

// victimLog is a memsys.Probe that records invalidation victims in
// delivery order.
type victimLog struct{ victims []int }

func (v *victimLog) Invalidation(writer, victim int, addr prog.Word, class stats.MissClass) {
	v.victims = append(v.victims, victim)
}

func (v *victimLog) TimetagReset(epoch, words int64) {}

// candidates lists line tag's wide-tier sweep set (presence ∪ pend).
func candidates(s *System, tag int64) []int {
	var qs []int
	s.forEachCandidate(tag, func(q int) { qs = append(qs, q) })
	return qs
}

// TestWideCriticalSweepFindsSameEpochFillers pins the wide tier's
// candidate-only critical sweep. Two readers fill a line in a sequential
// epoch, so neither is in its presence set yet: the critical store must
// find both through the candidates their fills marked on the spot,
// invalidate them in ascending processor order, and empty the candidate
// set, so a second critical store in the same epoch sweeps only the one
// processor that re-read the line since.
func TestWideCriticalSweepFindsSameEpochFillers(t *testing.T) {
	for _, tc := range []struct {
		name               string
		procs              int
		force              bool
		writer, hiRd, loRd int
	}{
		{"P128", 128, false, 0, 70, 5},
		{"P4-forced", 4, true, 0, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := ForceWidePresence(tc.force)
			s := newSys(t, cfgForTest(tc.procs))
			ForceWidePresence(prev)
			defer s.ReleaseCaches()
			if s.wide == nil {
				t.Fatal("expected the wide presence tier")
			}
			probe := &victimLog{}
			s.SetProbe(probe)
			const addr = 8
			tag := int64(addr / s.Cfg.LineWords)

			s.EpochBoundary(1)
			s.Read(tc.hiRd, addr, memsys.ReadRegular, 0)
			s.Read(tc.loRd, addr, memsys.ReadRegular, 0)
			if s.pres(tag).Count() != 0 {
				t.Fatal("same-epoch fillers must not be in presence before the barrier")
			}
			if got, want := candidates(s, tag), []int{tc.loRd, tc.hiRd}; !reflect.DeepEqual(got, want) {
				t.Fatalf("candidates before the critical store = %v, want %v", got, want)
			}
			s.Write(tc.writer, addr, 4.0, true)
			for _, q := range []int{tc.hiRd, tc.loRd} {
				if _, _, ok := s.caches[q].Lookup(addr); ok {
					t.Fatalf("P%d's copy survived the critical store", q)
				}
			}
			if got, want := probe.victims, []int{tc.loRd, tc.hiRd}; !reflect.DeepEqual(got, want) {
				t.Fatalf("invalidation order = %v, want %v", got, want)
			}
			if got := candidates(s, tag); len(got) != 0 {
				t.Fatalf("candidates after the critical store = %v, want none", got)
			}

			if v, _ := s.Read(tc.loRd, addr, memsys.ReadBypass, 0); v != 4.0 {
				t.Fatalf("same-epoch re-read = %v, want 4.0", v)
			}
			if got, want := candidates(s, tag), []int{tc.loRd}; !reflect.DeepEqual(got, want) {
				t.Fatalf("candidates after the re-read = %v, want %v", got, want)
			}
			probe.victims = nil
			s.Write(tc.writer, addr, 5.0, true)
			if got, want := probe.victims, []int{tc.loRd}; !reflect.DeepEqual(got, want) {
				t.Fatalf("second critical store invalidated %v, want %v", got, want)
			}

			barrier(t, s, 2)
			if s.St.Invalidations != 3 {
				t.Fatalf("invalidations = %d, want 3 (2 + 1)", s.St.Invalidations)
			}
		})
	}
}

// TestCriticalStoreInParallelEpochPanics pins the guard behind the
// eager critical sweep: critical sections run only in sequential
// epochs, and a critical store that arrives while host-parallel workers
// run must fail loudly rather than sweep candidate sets the workers are
// not keeping current.
func TestCriticalStoreInParallelEpochPanics(t *testing.T) {
	for _, procs := range []int{4, 128} {
		t.Run(fmtProcs(procs), func(t *testing.T) {
			s := newSys(t, cfgForTest(procs))
			defer s.ReleaseCaches()
			s.EpochBoundary(1)
			s.BeginParallelEpoch(1)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("critical store in a host-parallel epoch did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "inside a host-parallel epoch") {
					t.Fatalf("panic = %q, want the host-parallel epoch message", msg)
				}
			}()
			s.Write(0, 8, 1.0, true)
		})
	}
}
