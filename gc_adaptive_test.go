package tufast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestGCMinChainWords pins the load-adaptive threshold curve: 1 at
// quiescence (compact every non-empty chain, the historical behavior),
// growing with per-vertex append pressure, capped at 256.
func TestGCMinChainWords(t *testing.T) {
	cases := []struct {
		ops  uint64
		n    int
		want int
	}{
		{0, 1000, 1},          // quiet: everything compacts
		{999, 1000, 1},        // sub-one op per vertex rounds down to quiet
		{2000, 1000, 7},       // 2 ops/vertex → skip chains under 7 words
		{10_000, 1000, 31},    // 10 ops/vertex
		{1_000_000, 100, 256}, // burst: capped, never a permanent no-op
		{5, 0, 1},             // degenerate vertex count
	}
	for _, c := range cases {
		if got := gcMinChainWords(c.ops, c.n); got != c.want {
			t.Errorf("gcMinChainWords(%d, %d) = %d, want %d", c.ops, c.n, c.want, c.want)
		}
	}
}

// TestGCAdaptiveSkip drives the threshold end to end: a pass right
// after a heavy stream skips the small chains, and the next (quiet)
// pass reclaims them.
func TestGCAdaptiveSkip(t *testing.T) {
	const n = 64
	g, err := BuildGraph(n, nil, false)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys := NewSystem(g, Options{Threads: 2, SpaceWords: DynSpaceWords(g, 4096)})
	d := NewDynGraph(sys)

	// Two batches per edge — insert then delete — leave each touched
	// vertex a chain that is pure garbage below the watermark: the
	// superseded insert plus a tombstone matching the (absent) base.
	var ins, del []StreamOp
	for i := uint32(1); i <= 10; i++ {
		ins = append(ins, StreamOp{Time: uint64(i), U: i, V: i + 20})
		del = append(del, StreamOp{Time: uint64(i), U: i, V: i + 20, Del: true})
	}
	if _, err := d.ApplyStream(ins, StreamOptions{}); err != nil {
		t.Fatalf("insert batch: %v", err)
	}
	if _, err := d.ApplyStream(del, StreamOptions{}); err != nil {
		t.Fatalf("delete batch: %v", err)
	}

	// Simulate a heavy interval: enough pressure to cap the threshold
	// at 256 words, far above these one-block chains.
	d.gcAppended.Store(uint64(n) * 1000)
	rewritten, err := d.GCCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("busy pass: %v", err)
	}
	if rewritten != 0 {
		t.Fatalf("busy pass rewrote %d chains, want 0 (threshold should skip small chains)", rewritten)
	}

	// The busy pass drained the counter, so this pass runs quiet and
	// must reclaim all 10 garbage chains.
	rewritten, err = d.GCCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("quiet pass: %v", err)
	}
	if rewritten != 10 {
		t.Fatalf("quiet pass rewrote %d chains, want 10", rewritten)
	}
}

// TestGCRunningArenaOut runs a GC pass into an arena that cannot hold
// its one rebuild: the allocation cursor sits one word past a line
// boundary with a block less one word left, and a reserve of -1 lets
// the headroom check admit the rebuild that AllocLineAligned's padding
// then refuses. The pass must return the panic as a *TxPanicError,
// leave the graph's image as it was, and leave the graph open: the next
// owned batch applies.
func TestGCRunningArenaOut(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			const n = 1024 // several GC chunks, so four threads fan out
			g, err := BuildGraph(n, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			sys := NewSystem(g, Options{Threads: threads, SpaceWords: DynSpaceWords(g, 64)})
			d := NewDynGraph(sys)
			// Insert, delete and re-insert 1→2: three versions in one
			// block, of which a pass keeps only the last.
			for _, del := range []bool{false, true, false} {
				if _, err := d.ApplyOwned([]StreamOp{{U: 1, V: 2, Del: del}}); err != nil {
					t.Fatal(err)
				}
			}
			image := func() []byte {
				c, err := d.Compact()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := c.CSR().WriteBinary(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			before := image()
			sp := sys.rt.Sp
			words := d.st.ChainWords(1)
			sp.Alloc(sp.Cap() - sp.Used() - words + 1)

			rewritten, err := d.GCCtx(context.Background(), -1)
			var pe *TxPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("pass into a full arena: %v, want a *TxPanicError", err)
			}
			if rewritten != 0 {
				t.Fatalf("failed pass reports %d chains rewritten", rewritten)
			}
			if !bytes.Equal(image(), before) {
				t.Fatal("failed pass changed the graph's image")
			}
			if d.st.ChainWords(1) != words {
				t.Fatalf("failed pass left a %d-word chain, want the %d words it had", d.st.ChainWords(1), words)
			}
			// The chain's block has free slots: the tombstone needs no
			// allocation.
			stats, err := d.ApplyOwned([]StreamOp{{U: 1, V: 2, Del: true}})
			if err != nil || stats.Removed != 1 {
				t.Fatalf("owned batch after the failed pass: %+v, %v; want one removal", stats, err)
			}
		})
	}
}
