package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// writeLegacyBinary emits the pre-footer format: header, offsets,
// adjacency, nothing after — what every file written before the CRC
// footer looks like on disk.
func writeLegacyBinary(t *testing.T, g *CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := []uint64{binaryMagic, uint64(g.n), uint64(len(g.adj)), boolWord(g.undirected)}
	for _, h := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, g.offsets); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, g.adj); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadBinaryLegacyFallback(t *testing.T) {
	g := small(t)
	raw := writeLegacyBinary(t, g)
	g2, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("legacy round trip changed sizes")
	}
}

func TestReadBinaryDetectsCorruption(t *testing.T) {
	g := small(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one adjacency byte: the structure may still validate (a
	// neighbor id changing to another in-range id), but the checksum
	// must not.
	for off := len(raw) - 24; off > 32; off-- {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
		break
	}
	// Truncation anywhere inside the footer must also fail, not fall
	// back to legacy (legacy files end exactly at the adjacency).
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated footer went undetected")
	}
	// Trailing garbage after a legacy body is not a valid footer.
	legacy := writeLegacyBinary(t, g)
	if _, err := ReadBinary(bytes.NewReader(append(legacy, "XXXXXXXXYYYYYYYY"...))); err == nil {
		t.Fatal("trailing garbage went undetected")
	}
}

func TestReadBinaryChecksumMismatch(t *testing.T) {
	g := small(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // corrupt the stored checksum itself
	_, err := ReadBinary(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum mismatch, got %v", err)
	}
}

func TestSaveBinaryAtomicReplace(t *testing.T) {
	g := small(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed through save/load")
	}
	// Overwrite must go through the atomic path (no partial state, no
	// leftover temp files).
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected only g.bin in dir, found %d entries", len(ents))
	}
}

// TestReadBinaryHugeHeader feeds a bare 32-byte header claiming 2³¹
// vertices: ReadBinary must fail on the missing body having allocated
// what it read, not the 16 GiB the header asks for. A graph whose
// offsets and adjacency span many read chunks still round-trips.
func TestReadBinaryHugeHeader(t *testing.T) {
	var hdr bytes.Buffer
	for _, h := range []uint64{binaryMagic, 1 << 31, 1 << 33, 1} {
		if err := binary.Write(&hdr, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header without a body was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a 32-byte file allocated %d bytes, want < 1 MiB", got)
	}

	const n = 50_000
	edges := make([]Edge, 0, 3*n)
	for v := uint32(0); v < n; v++ {
		edges = append(edges, Edge{U: v, V: (v + 1) % n}, Edge{U: v, V: (v * 7) % n}, Edge{U: v, V: (v * 13) % n})
	}
	g, err := Build(n, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("multi-chunk round trip: %v", err)
	}
	if !slices.Equal(g2.offsets, g.offsets) || !slices.Equal(g2.adj, g.adj) {
		t.Fatal("multi-chunk round trip changed the graph")
	}
}
