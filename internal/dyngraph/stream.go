// Timestamped edge streams: the workload format for dynamic-graph
// experiments. A stream is a base edge list (the graph at time 0) plus
// a sequence of timestamped insert/delete operations; cmd/graphgen can
// synthesize one reproducibly from a seed and cmd/tufast replays it.
package dyngraph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"tufast/internal/fsx"
	"tufast/internal/graph"
)

// Op is one timestamped edge mutation. For undirected streams (U, V)
// denotes the edge in both directions.
type Op struct {
	Time uint64
	U, V uint32
	Del  bool
}

// Stream is a dynamic-graph workload: the base graph plus a mutation
// sequence.
type Stream struct {
	N          int
	Undirected bool
	Base       []graph.Edge
	Ops        []Op
}

// BuildBase freezes the base edge list into a CSR.
func (s *Stream) BuildBase() (*graph.CSR, error) {
	return graph.Build(s.N, s.Base, graph.BuildOptions{Symmetrize: s.Undirected})
}

// ReplayEdges computes the edge list that results from applying the
// ops (in timestamp order) to the base — the oracle a compacted
// overlay must match.
func (s *Stream) ReplayEdges() []graph.Edge {
	ops := make([]Op, len(s.Ops))
	copy(ops, s.Ops)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Time < ops[j].Time })
	key := func(u, v uint32) uint64 {
		if s.Undirected && u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	live := make(map[uint64]bool, len(s.Base)+len(ops))
	for _, e := range s.Base {
		if e.U != e.V {
			live[key(e.U, e.V)] = true
		}
	}
	for _, op := range ops {
		if op.U == op.V {
			continue
		}
		live[key(op.U, op.V)] = !op.Del
	}
	edges := make([]graph.Edge, 0, len(live))
	for k, on := range live {
		if on {
			edges = append(edges, graph.Edge{U: uint32(k >> 32), V: uint32(k)})
		}
	}
	return edges
}

// Synthesize derives a reproducible stream from a frozen graph: a
// fraction addFrac of its edges is held out of the base and replayed
// as inserts, and delFrac of the remaining base edges is replayed as
// deletes, all shuffled into one timestamped sequence. Every op
// touches a distinct edge, so any concurrent application order yields
// the same final graph. The same (g, fractions, seed) always produces
// the same stream.
func Synthesize(g *graph.CSR, addFrac, delFrac float64, seed uint64) *Stream {
	n := g.NumVertices()
	und := g.Undirected()
	var pairs []graph.Edge
	for u := uint32(0); u < uint32(n); u++ {
		for _, v := range g.Neighbors(u) {
			if und && v < u {
				continue // undirected: keep each edge once, as (min, max)
			}
			pairs = append(pairs, graph.Edge{U: u, V: v})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	nAdd := int(float64(len(pairs)) * addFrac)
	adds, base := pairs[:nAdd], pairs[nAdd:]
	nDel := int(float64(len(base)) * delFrac)
	dels := base[:nDel] // base is already shuffled, so this is a random sample

	st := &Stream{N: n, Undirected: und, Base: append([]graph.Edge(nil), base...)}
	for _, e := range adds {
		st.Ops = append(st.Ops, Op{U: e.U, V: e.V})
	}
	for _, e := range dels {
		st.Ops = append(st.Ops, Op{U: e.U, V: e.V, Del: true})
	}
	rng.Shuffle(len(st.Ops), func(i, j int) { st.Ops[i], st.Ops[j] = st.Ops[j], st.Ops[i] })
	for i := range st.Ops {
		st.Ops[i].Time = uint64(i + 1)
	}
	return st
}

// WriteStream writes s in the tufast stream text format:
//
//	# tufast stream v1
//	n <vertices> directed|undirected
//	e <u> <v>          (base edge)
//	+ <time> <u> <v>   (insert)
//	- <time> <u> <v>   (delete)
func WriteStream(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# tufast stream v1")
	dir := "directed"
	if s.Undirected {
		dir = "undirected"
	}
	fmt.Fprintf(bw, "n %d %s\n", s.N, dir)
	for _, e := range s.Base {
		fmt.Fprintf(bw, "e %d %d\n", e.U, e.V)
	}
	for _, op := range s.Ops {
		c := "+"
		if op.Del {
			c = "-"
		}
		fmt.Fprintf(bw, "%s %d %d %d\n", c, op.Time, op.U, op.V)
	}
	return bw.Flush()
}

// WriteStreamFile writes s to path in the stream text format,
// crash-atomically (temp file, fsync, rename): a kill mid-write can
// never clobber a previously written stream with a torn one.
func WriteStreamFile(path string, s *Stream) error {
	return fsx.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteStream(w, s)
	})
}

// ReadStream parses the stream text format written by WriteStream.
func ReadStream(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	st := &Stream{N: -1}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "n":
			if len(f) != 3 {
				return nil, fmt.Errorf("stream line %d: want 'n <vertices> directed|undirected'", line)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("stream line %d: bad vertex count %q", line, f[1])
			}
			st.N = n
			switch f[2] {
			case "directed":
				st.Undirected = false
			case "undirected":
				st.Undirected = true
			default:
				return nil, fmt.Errorf("stream line %d: bad direction %q", line, f[2])
			}
		case "e":
			if len(f) != 3 {
				return nil, fmt.Errorf("stream line %d: want 'e <u> <v>'", line)
			}
			u, v, err := parsePair(f[1], f[2])
			if err != nil {
				return nil, fmt.Errorf("stream line %d: %v", line, err)
			}
			st.Base = append(st.Base, graph.Edge{U: u, V: v})
		case "+", "-":
			if len(f) != 4 {
				return nil, fmt.Errorf("stream line %d: want '%s <time> <u> <v>'", line, f[0])
			}
			t, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stream line %d: bad time %q", line, f[1])
			}
			u, v, err := parsePair(f[2], f[3])
			if err != nil {
				return nil, fmt.Errorf("stream line %d: %v", line, err)
			}
			st.Ops = append(st.Ops, Op{Time: t, U: u, V: v, Del: f[0] == "-"})
		default:
			return nil, fmt.Errorf("stream line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if st.N < 0 {
		return nil, fmt.Errorf("stream: missing 'n' header")
	}
	return st, nil
}

// ReadStreamFile parses the stream file at path.
func ReadStreamFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := ReadStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

func parsePair(a, b string) (uint32, uint32, error) {
	u, err := strconv.ParseUint(a, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex %q", a)
	}
	v, err := strconv.ParseUint(b, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex %q", b)
	}
	return uint32(u), uint32(v), nil
}
