package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"tufast/internal/fsx"
)

// binaryMagic identifies the CSR binary format.
const binaryMagic = 0x54554641 // "TUFA"

// binaryFooterMagic introduces the integrity footer appended after the
// adjacency: [footerMagic uint64][crc32c uint64]. The checksum covers
// every byte before the footer (header, offsets, adjacency), so a
// checkpoint loader can tell a bit-flipped or truncated file from a
// good one instead of trusting the bytes blindly. Files written before
// the footer existed simply end at the adjacency; ReadBinary accepts
// them (legacy fallback) since their structural validation still runs.
const binaryFooterMagic = 0x43524332_54554641 // "TUFA" | "CRC2"

// crcTable is Castagnoli, the hardware-accelerated polynomial.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteBinary streams the CSR in a compact binary format, with a
// trailing CRC32-C footer over the whole body.
func (g *CSR) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	crc := crc32.New(crcTable)
	cw := io.MultiWriter(bw, crc)
	hdr := []uint64{binaryMagic, uint64(g.n), uint64(len(g.adj)), boolWord(g.undirected)}
	for _, h := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("graph: write header: %w", err)
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, g.offsets); err != nil {
		return fmt.Errorf("graph: write offsets: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, g.adj); err != nil {
		return fmt.Errorf("graph: write adjacency: %w", err)
	}
	footer := []uint64{binaryFooterMagic, uint64(crc.Sum32())}
	for _, f := range footer {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return fmt.Errorf("graph: write footer: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBinary loads a CSR written by WriteBinary and validates it: the
// structural invariants always, and the CRC32-C footer when present.
// Legacy files (written before the footer existed) end right after the
// adjacency and are accepted; any other trailing bytes, or a checksum
// mismatch, are corruption.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, readChunk)
	crc := crc32.New(crcTable)
	cr := io.TeeReader(br, crc)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(cr, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	n, m := int(hdr[1]), int(hdr[2])
	if n < 0 || m < 0 || n > 1<<31 || m > 1<<33 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	offsets, err := readWords[uint64](cr, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: read offsets: %w", err)
	}
	adj, err := readWords[uint32](cr, m)
	if err != nil {
		return nil, fmt.Errorf("graph: read adjacency: %w", err)
	}
	sum := uint64(crc.Sum32()) // body checksum, before the footer bytes are consumed
	var footer [2]uint64
	if err := binary.Read(br, binary.LittleEndian, &footer[0]); err != nil {
		if err == io.EOF {
			// Legacy format: no footer. Structural validation below is
			// the only integrity check such files get.
			return FromCSRParts(n, offsets, adj, hdr[3] != 0)
		}
		return nil, fmt.Errorf("graph: read footer: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &footer[1]); err != nil {
		return nil, fmt.Errorf("graph: read footer checksum: %w", err)
	}
	if footer[0] != binaryFooterMagic {
		return nil, fmt.Errorf("graph: trailing bytes are not a CRC footer (magic %#x)", footer[0])
	}
	if footer[1] != sum {
		return nil, fmt.Errorf("graph: checksum mismatch: file %#x, computed %#x", footer[1], sum)
	}
	return FromCSRParts(n, offsets, adj, hdr[3] != 0)
}

// readChunk bounds what ReadBinary allocates ahead of the bytes it has
// read: a header claiming a huge graph fails at the first short read
// having allocated O(readChunk), not what the header claims.
const readChunk = 64 << 10

// readWords reads count little-endian words, growing the result one
// chunk at a time as the bytes arrive (doubling, so a genuine count
// costs at most twice its size in allocation).
func readWords[T uint32 | uint64](r io.Reader, count int) ([]T, error) {
	size := binary.Size(T(0))
	buf := make([]byte, min(count*size, readChunk))
	var out []T
	for len(out) < count {
		b := buf[:min((count-len(out))*size, len(buf))]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		k := len(b) / size
		if len(out)+k > cap(out) {
			out = slices.Grow(out, min(max(2*cap(out), len(out)+k), count)-len(out))
		}
		switch dst := any(out[len(out) : len(out)+k]).(type) {
		case []uint32:
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint32(b[4*i:])
			}
		case []uint64:
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		}
		out = out[:len(out)+k]
	}
	return out, nil
}

// SaveBinary writes the CSR to a file crash-atomically: a kill mid-save
// leaves the previous file (if any) untouched, never a torn hybrid.
func (g *CSR) SaveBinary(path string) error {
	return fsx.WriteFileAtomic(path, g.WriteBinary)
}

// LoadBinary reads a CSR from a file.
func LoadBinary(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// ReadEdgeList parses a whitespace-separated "u v" edge list (SNAP
// format); lines starting with '#' or '%' are comments. Vertex count is
// 1 + the largest id seen unless n > 0 forces it.
func ReadEdgeList(r io.Reader, n int, opt BuildOptions) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := uint32(0)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v', got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		edges = append(edges, Edge{U: uint32(u), V: uint32(v)})
		if uint32(u) > maxID {
			maxID = uint32(u)
		}
		if uint32(v) > maxID {
			maxID = uint32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		n = int(maxID) + 1
	}
	return Build(n, edges, opt)
}

// WriteEdgeList emits the adjacency as a "u v" text edge list.
func (g *CSR) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for v := uint32(0); int(v) < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
