package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"tufast"
	"tufast/internal/wal"
)

// BenchmarkDecodeBatch256 decodes a 256-op body of the shape every
// client sends (serve_write's batches: ids below 65536, a del on three
// ops in ten): through decodeBatch, which takes it on the fixed-shape
// path, and through encoding/json alone, the path every request took
// before and anything non-canonical still takes.
func BenchmarkDecodeBatch256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]tufast.StreamOp, 256)
	for i := range ops {
		ops[i] = tufast.StreamOp{U: uint32(rng.Intn(1 << 16)), V: uint32(rng.Intn(1 << 16)), Del: rng.Intn(10) < 3}
	}
	body := canonicalBody(ops)
	b.Run("fixed-shape", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		buf := make([]tufast.StreamOp, 0, len(ops))
		for i := 0; i < b.N; i++ {
			got, err := decodeBatch(body, buf[:0])
			if err != nil || len(got) != len(ops) {
				b.Fatalf("decodeBatch: %d ops, %v", len(got), err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			got, err := jsonDecodeBatch(body)
			if err != nil || len(got) != len(ops) {
				b.Fatalf("encoding/json: %d ops, %v", len(got), err)
			}
		}
	})
}

// BenchmarkRecover times boot recovery of a data dir of serve_write's
// shape, one recoverDataDir per iteration, and reports each stage's
// median: an R-MAT-16 base, 2,000 batches of 256 ops (70% inserts with
// preferential targets, 30% deletes of base arcs) posted through the
// handler, and a checkpoint after the first thousand, so recovery loads
// that checkpoint while it scans the whole log, then replays and folds
// the 256k-op tail above it. The arena is sized for the tail alone, so
// space-new-ms is smaller than serve_write's.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	g := tufast.GenerateRMAT(16, 8, 1)
	dcfg := DurabilityConfig{DataDir: dir, Sync: wal.SyncNone, CheckpointInterval: -1}.withDefaults()
	loadBase := func() (*tufast.Graph, error) { return g, nil }
	mkDyn := func(g *tufast.Graph) *tufast.DynGraph {
		return tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{Threads: 2, SpaceWords: tufast.DynSpaceWords(g, 1<<16)}))
	}
	s, err := OpenDurable(Config{Addr: "127.0.0.1:0"}, dcfg, loadBase, mkDyn)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	var arcs [][2]uint32
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			arcs = append(arcs, [2]uint32{u, v})
		}
	}
	rng := rand.New(rand.NewSource(1))
	post := func(path string, body []byte) {
		resp, err := http.Post("http://"+s.Addr()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s: %d", path, resp.StatusCode)
		}
	}
	ops := make([]tufast.StreamOp, 256)
	for batch := 0; batch < 2000; batch++ {
		for i := range ops {
			a := arcs[rng.Intn(len(arcs))]
			if rng.Intn(10) < 3 {
				ops[i] = tufast.StreamOp{U: a[0], V: a[1], Del: true}
				continue
			}
			ops[i] = tufast.StreamOp{U: uint32(rng.Intn(g.NumVertices())), V: a[1]}
		}
		post("/v1/edges", canonicalBody(ops))
		if batch == 999 {
			post("/v1/checkpoint", []byte("{}"))
		}
	}
	crashServer(s)

	var stages [6][]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv, err := recoverDataDir(dcfg, loadBase, mkDyn)
		if err != nil {
			b.Fatal(err)
		}
		rv.wlog.Close()
		if rv.rec.ReplayedOps != 1000*256 {
			b.Fatalf("replayed %d ops, want the 256,000 above the checkpoint", rv.rec.ReplayedOps)
		}
		for k, v := range []float64{rv.rec.CheckpointLoadMS, rv.rec.WALScanMS, rv.rec.ReplayMS,
			rv.rec.FoldMS, rv.rec.SpaceNewMS, rv.rec.RecoverMS} {
			stages[k] = append(stages[k], v)
		}
	}
	b.StopTimer()
	for k, unit := range []string{"checkpoint-load-ms", "wal-scan-ms", "replay-ms", "fold-ms", "space-new-ms", "recover-ms"} {
		slices.Sort(stages[k])
		b.ReportMetric(stages[k][len(stages[k])/2], unit)
	}
}
