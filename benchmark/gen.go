package main

import (
	"strconv"

	"tufast"
)

// rng is splitmix64: every input of a run derives from the -seed
// argument through it, so equal seeds give byte-identical inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shapeSeed draws every workload's graph shape. The run's -seed does
// not redraw the shape, it relabels it: redrawing an R-MAT graph moved
// KCore by +-15% from seed to seed, more than any bound, while a
// relabelled graph has the same degree sequence, components and cores.
const shapeSeed = 1

// relabelling returns the seed's renaming of n vertices. A uniform
// graph's ids carry no structure, so any permutation will do. An R-MAT
// graph's do: hubs sit together at the low ids and the sweeps hand out
// consecutive ids in chunks, which is where lib_skew's conflicts come
// from. A full shuffle ran its suite 2.5x faster, and even permuting
// the ids' bit positions (which maps the R-MAT distribution onto
// itself) moved it by +-5% from seed to seed, against 2% between runs of
// one seed: the layout is part of the workload. So an R-MAT relabelling
// only shuffles ids inside each aligned block of 8, one cache line of a
// vertex array: which vertices conflict stays fixed, and the seed still
// changes ids, adjacency order and edge weights.
func relabelling(w workload, n int, seed uint64) []uint32 {
	r := &rng{s: seed}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	block := n
	if w.Gen == "rmat" {
		block = 8
	}
	for lo := 0; lo < n; lo += block {
		p := perm[lo:min(lo+block, n)]
		for i := len(p) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	return perm
}

// genGraph builds the workload's graph: the generator's shape with its
// vertices renamed by the seed's relabelling.
func genGraph(w workload, seed uint64) *tufast.Graph {
	var shape *tufast.Graph
	if w.Gen == "rmat" {
		shape = tufast.GenerateRMAT(w.Scale, w.Degree, shapeSeed)
	} else {
		shape = tufast.GenerateUniform(w.N, w.Degree, shapeSeed)
	}
	n := shape.NumVertices()
	perm := relabelling(w, n, seed)
	arcs := arcList(shape)
	for i, a := range arcs {
		arcs[i] = tufast.EdgePair{U: perm[a.U], V: perm[a.V]}
	}
	g, err := tufast.BuildGraph(n, arcs, w.Undirected)
	if err != nil {
		panic(err) // a permutation of valid ids is valid
	}
	return g
}

// hubOf returns the first vertex of maximum degree: the SSSP source, so
// that every seed's search covers the same component.
func hubOf(g *tufast.Graph) uint32 {
	hub := uint32(0)
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return hub
}

// arcList flattens g into (u, v) pairs; on an undirected graph each
// edge appears once (u < v).
func arcList(g *tufast.Graph) []tufast.EdgePair {
	arcs := make([]tufast.EdgePair, 0, g.NumEdges())
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.Undirected() || u < v {
				arcs = append(arcs, tufast.EdgePair{U: u, V: v})
			}
		}
	}
	return arcs
}

// batch is one write request: the ops for direct replay and the JSON
// body, marshalled during set-up so the timed loop only sends bytes.
type batch struct {
	ops  []tufast.StreamOp
	body []byte
}

// genBatches makes n batches of size ops over g: 70% inserts and 30%
// deletes of arcs sampled from the base graph. An insert's target is
// preferential (the head of a sampled arc, so hubs attract edges as
// they do in R-MAT); its source is preferential with probability 0.2
// and uniform otherwise, which keeps most ops on short chains while a
// steady share lands on the hubs' long ones. Duplicate inserts and
// repeated deletes across batches are legal no-ops, never failures. No
// batch names an edge twice: ops of one apply window commit in any
// order, so an insert and a delete of one edge in one batch can replay
// from the WAL in the other order (the server realigns the epoch and
// counts it, but the arc counts then differ by one), and the workloads
// are to be ones on which no operation fails.
func genBatches(g *tufast.Graph, seed uint64, n, size int) []batch {
	r := &rng{s: seed ^ 0x6f70735f62617463} // decouple from the graph's stream
	arcs := arcList(g)
	nv := g.NumVertices()
	out := make([]batch, n)
	draw := func() tufast.StreamOp {
		if r.float() < 0.3 {
			a := arcs[r.intn(len(arcs))]
			return tufast.StreamOp{U: a.U, V: a.V, Del: true}
		}
		u := uint32(r.intn(nv))
		if r.float() < 0.2 {
			u = arcs[r.intn(len(arcs))].U
		}
		v := arcs[r.intn(len(arcs))].V
		if v == u {
			v = (u + 1) % uint32(nv)
		}
		return tufast.StreamOp{U: u, V: v}
	}
	for i := range out {
		ops := make([]tufast.StreamOp, 0, size)
		seen := make(map[[2]uint32]bool, size)
		for len(ops) < size {
			op := draw()
			edge := [2]uint32{op.U, op.V}
			if g.Undirected() && op.U > op.V {
				edge = [2]uint32{op.V, op.U}
			}
			if !seen[edge] {
				seen[edge] = true
				ops = append(ops, op)
			}
		}
		out[i] = batch{ops: ops, body: marshalBatch(ops)}
	}
	return out
}

// marshalBatch renders the POST /v1/edges body for ops.
func marshalBatch(ops []tufast.StreamOp) []byte {
	b := make([]byte, 0, 32*len(ops)+16)
	b = append(b, `{"ops":[`...)
	for i, op := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendUint(b, uint64(op.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(op.V), 10)
		if op.Del {
			b = append(b, `,"del":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
