package tufast_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tufast"
)

func TestBuildGraphAndAccessors(t *testing.T) {
	g, err := tufast.BuildGraph(4, []tufast.EdgePair{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Undirected() {
		t.Fatal("directed build wrong")
	}
	gu, err := tufast.BuildGraph(4, []tufast.EdgePair{{U: 0, V: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !gu.Undirected() || gu.Degree(1) != 1 {
		t.Fatal("undirected build wrong")
	}
	if _, err := tufast.BuildGraph(2, []tufast.EdgePair{{U: 0, V: 9}}, false); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestGenerators(t *testing.T) {
	if g := tufast.GeneratePowerLaw(2000, 10_000, 2.1, 3); g.MaxDegree() < 20 {
		t.Fatal("power law lacks a hub")
	}
	if g := tufast.GenerateRMAT(10, 8, 3); g.NumVertices() != 1024 {
		t.Fatal("rmat size wrong")
	}
	if g := tufast.GenerateUniform(100, 5, 1); g.NumVertices() != 100 {
		t.Fatal("uniform size wrong")
	}
	if g := tufast.GenerateGrid(5, 7); g.NumVertices() != 35 {
		t.Fatal("grid size wrong")
	}
}

func TestUndirect(t *testing.T) {
	g, _ := tufast.BuildGraph(3, []tufast.EdgePair{{U: 0, V: 1}, {U: 1, V: 2}}, false)
	u := g.Undirect()
	if !u.Undirected() || u.Degree(1) != 2 {
		t.Fatalf("undirect wrong: deg(1)=%d", u.Degree(1))
	}
	if u.Undirect() != u {
		t.Fatal("Undirect of undirected graph should be identity")
	}
}

func TestGraphBinaryRoundTripFile(t *testing.T) {
	g := tufast.GeneratePowerLaw(500, 2000, 2.1, 5)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	g2, err := tufast.LoadGraphBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("round trip mismatch")
	}
	if _, err := tufast.LoadGraphBinary(filepath.Join(t.TempDir(), "missing.bin")); !os.IsNotExist(err) {
		t.Fatalf("err=%v", err)
	}
}

func TestReadEdgeListGraph(t *testing.T) {
	g, err := tufast.ReadEdgeListGraph(strings.NewReader("0 1\n1 2\n"), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || !g.Undirected() {
		t.Fatal("edge list parse wrong")
	}
}

func TestEdgeWeightDeterminism(t *testing.T) {
	if tufast.EdgeWeight(3, 9, 100) != tufast.EdgeWeight(3, 9, 100) {
		t.Fatal("weights not deterministic")
	}
	w := tufast.EdgeWeight(1, 2, 10)
	if w < 1 || w > 10 {
		t.Fatalf("weight %d out of range", w)
	}
}

func TestArraysAndFloats(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 2})
	a := sys.NewVertexArray(7)
	if a.Len() != 64 || a.Get(10) != 7 {
		t.Fatal("vertex array init wrong")
	}
	a.SetFloat(3, 2.5)
	if a.GetFloat(3) != 2.5 {
		t.Fatal("float round trip wrong")
	}
	b := sys.NewArray(10)
	b.Set(9, 42)
	if b.Get(9) != 42 {
		t.Fatal("array set/get wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	_ = b.Addr(10)
}

func TestTransactionalFloats(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 2})
	a := sys.NewVertexArray(0)
	err := sys.Atomic(2, func(tx tufast.Tx) error {
		tx.WriteFloat(5, a.Addr(5), 3.75)
		if got := tx.ReadFloat(5, a.Addr(5)); got != 3.75 {
			t.Errorf("read-own-float %f", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.GetFloat(5) != 3.75 {
		t.Fatal("float write lost")
	}
}

func TestForEachQueuedDrains(t *testing.T) {
	g := tufast.GenerateUniform(256, 4, 2)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 4})
	visited := sys.NewVertexArray(0)
	q := sys.NewQueue()
	q.Push(0)
	err := sys.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(uint32, uint64)) error {
		if tx.Read(v, visited.Addr(v)) == 1 {
			return nil
		}
		tx.Write(v, visited.Addr(v), 1)
		for _, u := range g.Neighbors(v) {
			if tx.Read(u, visited.Addr(u)) == 0 {
				emit(u, 0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if visited.Get(v) == 1 {
			count++
		}
	}
	if count == 0 || q.Len() != 0 {
		t.Fatalf("visited=%d qlen=%d", count, q.Len())
	}
}

func TestPQOrdering(t *testing.T) {
	g := tufast.GenerateUniform(16, 2, 1)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 1})
	pq := sys.NewPQ()
	pq.Push(3, 30)
	pq.Push(1, 10)
	pq.Push(2, 20)
	v, ok := pq.Pop()
	if !ok || v != 1 {
		t.Fatalf("pop %d, want 1 (lowest priority first)", v)
	}
	if pq.Len() != 2 {
		t.Fatalf("len=%d", pq.Len())
	}
}

func TestStatsSnapshotSurface(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 2})
	a := sys.NewVertexArray(0)
	_ = sys.Atomic(2, func(tx tufast.Tx) error {
		tx.Write(0, a.Addr(0), 1)
		return nil
	})
	st := sys.StatsSnapshot()
	if st.Commits != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(st.Mode) != 5 {
		t.Fatalf("mode classes %d", len(st.Mode))
	}
	if st.CurrentPeriod <= 0 {
		t.Fatal("period not exposed")
	}
	sys.ResetStats()
	if sys.StatsSnapshot().Commits != 0 {
		t.Fatal("reset failed")
	}
}

func TestOptionsVariants(t *testing.T) {
	g := tufast.GenerateUniform(128, 4, 1)
	for _, opt := range []tufast.Options{
		{Threads: 2},
		{Threads: 2, HMaxHint: 1, OMaxHint: 1},
	} {
		sys := tufast.NewSystem(g, opt)
		ctr := sys.NewArray(1)
		err := sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
			tx.Write(0, ctr.Addr(0), tx.Read(0, ctr.Addr(0))+1)
			return nil
		})
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		if got := ctr.Get(0); got != 128 {
			t.Fatalf("opts %+v: counter=%d", opt, got)
		}
	}
}

func TestWorkerReuse(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 2})
	w1 := sys.Worker()
	sys.Release(w1)
	w2 := sys.Worker()
	if w1 != w2 {
		t.Fatal("released worker not reused")
	}
	sys.Release(w2)
}

func TestGraphEdgeListWrite(t *testing.T) {
	g, _ := tufast.BuildGraph(3, []tufast.EdgePair{{U: 0, V: 1}, {U: 1, V: 2}}, false)
	var buf bytes.Buffer
	g2, err := tufast.ReadEdgeListGraph(strings.NewReader("0 1\n1 2\n"), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = buf
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("mismatch")
	}
}

// TestLibraryCarriesNoTax: the paper reproduction's software-barrier cost
// model is injected by internal/bench and cmd/tufast alone; a System
// built through the public API runs L mode at its real cost.
func TestLibraryCarriesNoTax(t *testing.T) {
	g := tufast.GeneratePowerLaw(200, 800, 2.1, 1)
	for _, opt := range []tufast.Options{{}, {Threads: 2, HMaxHint: 8, OMaxHint: 16}} {
		if tufast.NewSystem(g, opt).Core().Config().Tax != nil {
			t.Fatalf("NewSystem(%+v) carries a simulation tax", opt)
		}
	}
}
