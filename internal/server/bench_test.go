package server

import (
	"math/rand"
	"testing"

	"tufast"
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
