package mem

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// mappedWords is the smallest word count NewSpace maps.
const mappedWords = (mapMin + lineBytes - 1) / lineBytes * WordsPerLine

// bothArenas runs f on a Space from each side of the cutoff: one of n
// words from the Go heap, and the smallest one NewSpace takes from the OS.
func bothArenas(t *testing.T, n int, f func(t *testing.T, s *Space)) {
	for _, side := range []struct {
		name   string
		words  int
		mapped bool
	}{
		{"heap", n, false},
		{"mapped", mappedWords, true},
	} {
		t.Run(side.name, func(t *testing.T) {
			if side.mapped {
				requireMapping(t)
			}
			s := NewSpace(side.words)
			if got := s.mapped != nil; got != side.mapped {
				t.Fatalf("NewSpace(%d): mapped %v, want %v", side.words, got, side.mapped)
			}
			f(t, s)
		})
	}
}

func TestAllocSequential(t *testing.T) {
	bothArenas(t, 128, func(t *testing.T, s *Space) {
		a := s.Alloc(10)
		b := s.Alloc(10)
		if a == b {
			t.Fatalf("allocations overlap: %d %d", a, b)
		}
		if b != a+10 {
			t.Fatalf("expected bump allocation, got %d then %d", a, b)
		}
	})
}

func TestAllocLineAligned(t *testing.T) {
	bothArenas(t, 256, func(t *testing.T, s *Space) {
		s.Alloc(3) // misalign the cursor
		a := s.AllocLineAligned(10)
		if uint64(a)%WordsPerLine != 0 {
			t.Fatalf("AllocLineAligned returned unaligned base %d", a)
		}
	})
}

func TestAllocExhaustionPanics(t *testing.T) {
	bothArenas(t, 16, func(t *testing.T, s *Space) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on exhaustion")
			}
		}()
		s.Alloc(s.Cap() + 1)
	})
}

func TestNewSpaceRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", n)
				}
			}()
			NewSpace(n)
		}()
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		s.Store(7, 0xDEADBEEF)
		if got := s.Load(7); got != 0xDEADBEEF {
			t.Fatalf("Load=%x", got)
		}
	})
}

func TestStoreVersionedBumpsLine(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		l := LineOf(9)
		before := s.Meta(l)
		s.StoreVersioned(9, 42)
		after := s.Meta(l)
		if after <= before || after&1 != 0 {
			t.Fatalf("meta %d -> %d, want larger even value", before, after)
		}
		if s.Load(9) != 42 {
			t.Fatalf("value not stored")
		}
		if s.Commits() == 0 {
			t.Fatal("commit counter not bumped")
		}
	})
}

func TestLineLockProtocol(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		l := Line(0)
		m := s.Meta(l)
		if !s.TryLockLine(l, m) {
			t.Fatal("TryLockLine failed on free line")
		}
		if s.Meta(l)&1 != 1 {
			t.Fatal("line not odd while locked")
		}
		if s.TryLockLine(l, s.Meta(l)) {
			t.Fatal("locked line re-locked")
		}
		s.UnlockLine(l, m|1)
		if got := s.Meta(l); got != m+2 {
			t.Fatalf("unlock published %d, want %d", got, m+2)
		}
	})
}

func TestRevertLineKeepsVersion(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		l := Line(2)
		m := s.Meta(l)
		if !s.TryLockLine(l, m) {
			t.Fatal("lock failed")
		}
		s.RevertLine(l, m|1)
		if got := s.Meta(l); got != m {
			t.Fatalf("revert changed version: %d -> %d", m, got)
		}
	})
}

func TestReadConsistentSeesStableValue(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		s.Store(5, 77)
		val, ver, ok := s.ReadConsistent(5)
		if !ok || val != 77 {
			t.Fatalf("val=%d ok=%v", val, ok)
		}
		if ver != s.Meta(LineOf(5)) {
			t.Fatal("version mismatch")
		}
	})
}

func TestReadConsistentFailsWhileLocked(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		l := LineOf(5)
		m := s.Meta(l)
		s.TryLockLine(l, m)
		if _, _, ok := s.ReadConsistent(5); ok {
			t.Fatal("ReadConsistent succeeded on locked line")
		}
		s.UnlockLine(l, m|1)
	})
}

// TestStoreVersionedConcurrent hammers versioned stores on one line from
// many goroutines; the seqlock must stay consistent (even, monotone) and
// no store may be lost entirely.
func TestStoreVersionedConcurrent(t *testing.T) {
	bothArenas(t, 64, func(t *testing.T, s *Space) {
		const writers, each = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					s.StoreVersioned(Addr(w), uint64(i))
				}
			}(w)
		}
		wg.Wait()
		m := s.Meta(0)
		if m&1 != 0 {
			t.Fatal("line left locked")
		}
		if m != uint64(writers*each*2) {
			t.Fatalf("meta=%d want %d (every store bumps by 2)", m, writers*each*2)
		}
		for w := 0; w < writers; w++ {
			if got := s.Load(Addr(w)); got != each-1 {
				t.Fatalf("slot %d = %d, want %d", w, got, each-1)
			}
		}
	})
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		return x != x /* NaN: bit pattern still survives */ ||
			Float(Word(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineOf(t *testing.T) {
	f := func(a uint32) bool {
		l := LineOf(Addr(a))
		return uint64(l) == uint64(a)/WordsPerLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// waitUnmapped collects twice — a dropped Space is found by the first
// collection and its finalizer queued — then waits for the finalizer
// goroutine to bring the live-mapping count down to want.
func waitUnmapped(t *testing.T, want int64) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	deadline := time.Now().Add(10 * time.Second)
	for liveMappings.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("live mappings %d, want %d", liveMappings.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireMapping skips where NewSpace has nothing to map with.
func requireMapping(t *testing.T) {
	t.Helper()
	if s := newMappedSpace(1); s == nil {
		t.Skip("no anonymous mapping on this platform")
	}
}

func TestCutoffIsInArenaBytes(t *testing.T) {
	requireMapping(t)
	if s := NewSpace(mappedWords - WordsPerLine); s.mapped != nil {
		t.Fatalf("a Space one line under %d bytes was mapped", mapMin)
	}
	if s := NewSpace(mappedWords); s.mapped == nil || s.Cap() != mappedWords {
		t.Fatalf("a Space of %d bytes: mapped %v, cap %d want %d", mapMin, s.mapped != nil, s.Cap(), mappedWords)
	}
}

// TestMappedSpaceStartsZero writes every data and version word of a
// mapped Space, drops it, and checks that the next one — which the OS is
// free to place on the same addresses — reads zero everywhere.
func TestMappedSpaceStartsZero(t *testing.T) {
	requireMapping(t)
	waitUnmapped(t, 0)
	const lines = 4096
	dirty := newMappedSpace(lines)
	for a := 0; a < dirty.Cap(); a++ {
		dirty.StoreVersioned(Addr(a), ^uint64(0))
	}
	dirty = nil
	waitUnmapped(t, 0)
	s := newMappedSpace(lines)
	for a := 0; a < s.Cap(); a++ {
		if v := s.Load(Addr(a)); v != 0 {
			t.Fatalf("word %d of a fresh mapped Space reads %#x", a, v)
		}
	}
	for l := 0; l < lines; l++ {
		if m := s.Meta(Line(l)); m != 0 {
			t.Fatalf("version of line %d of a fresh mapped Space reads %d", l, m)
		}
	}
}

// TestDroppedSpacesAreUnmapped is the leak check: the only thing that
// returns a mapping is the Space's finalizer.
func TestDroppedSpacesAreUnmapped(t *testing.T) {
	requireMapping(t)
	waitUnmapped(t, 0)
	for i := 0; i < 64; i++ {
		s := NewSpace(mappedWords)
		s.Store(Addr(i), 1)
	}
	waitUnmapped(t, 0)
}

func TestMapFailureFallsBackToHeap(t *testing.T) {
	defer func(f func(int) ([]byte, error)) { mapArena = f }(mapArena)
	mapArena = func(int) ([]byte, error) { return nil, errors.New("mmap: injected ENOMEM") }
	before := liveMappings.Load()
	s := NewSpace(mappedWords)
	if s.mapped != nil || liveMappings.Load() != before {
		t.Fatal("NewSpace mapped an arena through a failing mmap")
	}
	if s.Cap() != mappedWords {
		t.Fatalf("cap %d, want %d", s.Cap(), mappedWords)
	}
	last := Addr(s.Cap() - 1)
	s.StoreVersioned(last, 7)
	if v, _, ok := s.ReadConsistent(last); !ok || v != 7 {
		t.Fatalf("heap fallback: read %d ok=%v, want 7", v, ok)
	}
}

// BenchmarkNewSpace is the table behind mapMin (EXPERIMENTS.md
// "Restart"): a Space of each size from each source, created and then
// written once per 4 KiB page over none, an eighth or all of it, in a
// process that has already dropped one of the same size — the steady
// state of a daemon. The allocator clears the span it reuses; if the
// span went back to the OS in between (the scavenger, or FreeOSMemory as
// the benchmark's shutdown calls it) it also faults every page in again.
func BenchmarkNewSpace(b *testing.B) {
	for _, mib := range []int{1, 4, 16, 64, 256} {
		lines := mib << 20 / lineBytes
		for _, src := range []struct {
			name string
			new  func(lines int) *Space
			drop func() // between iterations, off the clock
		}{
			{"heap", newHeapSpace, runtime.GC},
			{"heap_scavenged", newHeapSpace, debug.FreeOSMemory},
			{"mapped", newMappedSpace, runtime.GC},
		} {
			for _, touch := range []struct {
				name string
				div  int
			}{{"untouched", 0}, {"eighth", 8}, {"all", 1}} {
				b.Run(fmt.Sprintf("%dMiB/%s/%s", mib, src.name, touch.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s := src.new(lines)
						if s == nil {
							b.Skip("no anonymous mapping on this platform")
						}
						if touch.div > 0 {
							for a := 0; a < s.Cap()/touch.div; a += 4096 / 8 {
								s.Store(Addr(a), 1)
							}
						}
						b.StopTimer()
						s = nil
						src.drop()
						b.StartTimer()
					}
				})
			}
		}
	}
}
