package dyngraph

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"tufast/internal/graph"
	"tufast/internal/mem"
)

// TestCompactFromDifferential drives seeded random batches over directed
// and undirected bases that carry self-loops and holds the fold from the
// snapshot at every earlier epoch b — CompactFrom(snapshot b, b, c) —
// byte-identical to CompactAt(c) on 1, 2 and 4 threads. The batches
// insert and delete, re-add an arc within one batch (in-place flips) and
// toggle a base arc and a hot pool across batches, try self-loops, and
// grow a hub chain past indexMinBlocks; halfway through every chain is
// rebuilt by CompactChain at the last snapshot's epoch, which must leave
// the fold from that snapshot on (nothing above it was dropped) and turn
// the folds from older ones into full compactions.
func TestCompactFromDifferential(t *testing.T) {
	const (
		n        = 600
		epochs   = 10
		perEpoch = 400
	)
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for _, undirected := range []bool{false, true} {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var edges []graph.Edge
			for v := uint32(1); v < 300; v++ {
				edges = append(edges, graph.Edge{U: 0, V: v}) // the hub
			}
			for i := 0; i < 1500; i++ {
				edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
			}
			edges = append(edges, graph.Edge{U: 5, V: 5}, graph.Edge{U: 0, V: 0})
			base := graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: undirected, KeepSelfLoops: true})
			sp := mem.NewSpace(SpaceWords(n, 8*epochs*perEpoch))
			s, tx := New(sp, base), directTx{sp}
			mutate := func(u, v uint32, del bool) {
				arcs := [][2]uint32{{u, v}}
				if undirected {
					arcs = append(arcs, [2]uint32{v, u})
				}
				for _, a := range arcs {
					if del {
						s.RemoveArc(tx, a[0], a[1])
					} else {
						s.AddArc(tx, a[0], a[1])
					}
				}
			}
			hot := make([][2]uint32, 40)
			for i := range hot {
				hot[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
			}

			snaps := []*graph.CSR{mustCompactAt(t, s, 0, 2)}
			for c := uint64(1); c <= epochs; c++ {
				s.SetWriteStamp(c)
				mutate(0, 1, c%2 == 1) // a base arc of the hub, toggled across batches
				for i := 0; i < perEpoch; i++ {
					u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					switch p := rng.Intn(100); {
					case p < 30:
						u, v = hot[rng.Intn(len(hot))][0], hot[rng.Intn(len(hot))][1]
					case p < 50:
						u = 0
					case p < 53:
						v = u // a self-loop attempt
					case p < 60:
						// Re-added within the batch: flipped in place.
						mutate(u, v, false)
						mutate(u, v, true)
					}
					mutate(u, v, rng.Intn(3) == 0)
				}
				if c == epochs/2 {
					// GC at the last snapshot's epoch keeps every version
					// above it, so folding from that snapshot stays exact.
					for u := uint32(0); u < n; u++ {
						s.CompactChain(tx, u, c-1)
					}
				}
				for _, threads := range []int{1, 2, 4} {
					want := csrBytes(t, mustCompactAt(t, s, c, threads))
					for b := uint64(0); b < c; b++ {
						got, folded, err := s.CompactFrom(snaps[b], b, c, threads)
						if err != nil {
							t.Fatal(err)
						}
						// GC may have dropped versions above an older b.
						if wantFold := c < epochs/2 || b >= epochs/2-1; folded != wantFold {
							t.Fatalf("undirected=%v seed=%d: fold from %d to %d folded=%v, want %v", undirected, seed, b, c, folded, wantFold)
						}
						if !bytes.Equal(csrBytes(t, got), want) {
							t.Fatalf("undirected=%v seed=%d threads=%d: fold from %d differs from CompactAt(%d)", undirected, seed, threads, b, c)
						}
					}
				}
				snaps = append(snaps, mustCompactAt(t, s, c, 2))
			}
			if s.sp.Load(s.idxOf(0)) == 0 {
				t.Fatal("the hub's chain never got an index")
			}
			if s.rebuilt.Load() != epochs/2-1 {
				t.Fatalf("rebuild mark = %d, want %d", s.rebuilt.Load(), epochs/2-1)
			}
		}
	}
}

func mustCompactAt(t *testing.T, s *Store, maxStamp uint64, threads int) *graph.CSR {
	t.Helper()
	g, err := s.CompactAt(maxStamp, threads)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompactFromGCHazard: an arc 0→2, absent from the base, is added
// at epoch 1 and deleted at epoch 2. A GC pass at watermark 2 keeps only
// the newest version at or below 2, the tombstone, and drops that too
// because the base agrees — so the chain has no entry above the epoch-1
// snapshot, and a fold from it that trusted the chain would keep the
// arc. CompactFrom must see the rebuild and compact the whole overlay.
func TestCompactFromGCHazard(t *testing.T) {
	s, tx := newTestStore(t, 4, []graph.Edge{{U: 0, V: 1}}, false)
	s.SetWriteStamp(1)
	s.AddArc(tx, 0, 2)
	snap := mustCompactAt(t, s, 1, 1)
	s.SetWriteStamp(2)
	s.RemoveArc(tx, 0, 2)
	if !s.CompactChain(tx, 0, 2) || s.sp.Load(s.headOf(0)) != 0 {
		t.Fatal("GC at watermark 2 should empty 0's chain")
	}
	trusted, err := s.compact(snap, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := trusted.Neighbors(0); len(got) != 2 {
		t.Fatalf("a fold that trusts the rebuilt chain gives row %v; the case no longer shows the hazard", got)
	}
	got, folded, err := s.CompactFrom(snap, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if folded {
		t.Fatal("CompactFrom folded across a rebuild above its snapshot")
	}
	if row := got.Neighbors(0); len(row) != 1 || row[0] != 1 {
		t.Fatalf("row of 0 = %v, want [1]: the deleted arc came back", row)
	}
}

// TestCompactFromBesideGC runs the fold from a snapshot beside a GC pass
// whose watermark is above it, over many vertices carrying the hazard
// case: whichever chains the fold reads rebuilt, the result must be the
// graph at the fold's epoch.
func TestCompactFromBesideGC(t *testing.T) {
	const n = 4096
	for round := 0; round < 8; round++ {
		s, tx := newTestStore(t, n, nil, false)
		s.SetWriteStamp(1)
		for u := uint32(0); u < n; u++ {
			s.AddArc(tx, u, (u+1)%n)
			s.AddArc(tx, u, (u+2)%n)
		}
		snap := mustCompactAt(t, s, 1, 2)
		s.SetWriteStamp(2)
		for u := uint32(0); u < n; u++ {
			s.RemoveArc(tx, u, (u+1)%n)
		}
		want := csrBytes(t, mustCompactAt(t, s, 2, 2))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			gc := s.Owned()
			for u := n - 1; u >= 0; u-- {
				s.CompactChain(gc, uint32(u), 2)
			}
		}()
		got, _, err := s.CompactFrom(snap, 1, 2, 2)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csrBytes(t, got), want) {
			t.Fatalf("round %d: the fold beside a GC pass kept arcs deleted after its snapshot", round)
		}
	}
}
