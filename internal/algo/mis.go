package algo

import (
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// MIS vertex states.
const (
	misUnknown = 0
	misIn      = 1
	misOut     = 2
)

// MISResult carries the in-set flags and the set size.
type MISResult struct {
	InSet []bool
	Size  int
}

// MIS computes a maximal independent set with the greedy transactional
// formulation: each vertex joins unless a neighbor already joined, and
// marks itself out otherwise once some neighbor is in. Serializability
// makes the parallel execution equivalent to *some* sequential greedy
// order, which is exactly what maximal independent set needs ("MIS jobs
// need to know whether their neighbors are chosen or not", §VI-A). Run
// on an undirected (symmetrized) graph.
func MIS(r *Runtime) (*MISResult, error) {
	g := r.G
	state := r.NewVertexArray(misUnknown)

	err := r.ForEachVertex(state, func(tx sched.Tx, v uint32) error {
		if tx.Read(v, state+mem.Addr(v)) != misUnknown {
			return nil
		}
		for _, u := range g.Neighbors(v) {
			if tx.Read(u, state+mem.Addr(u)) == misIn {
				tx.Write(v, state+mem.Addr(v), misOut)
				return nil
			}
		}
		tx.Write(v, state+mem.Addr(v), misIn)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := r.ReadArray(state)
	res := &MISResult{InSet: make([]bool, len(st))}
	for v, s := range st {
		if s == misIn {
			res.InSet[v] = true
			res.Size++
		}
	}
	return res, nil
}

// MatchingResult carries the partner array (None = unmatched) and the
// matched-pair count.
type MatchingResult struct {
	Match []uint64
	Pairs int
}

// MaximalMatching is the paper's running example (Figure 1): greedily
// pair each unmatched vertex with its first unmatched neighbor, relying
// on the TM for atomicity of the two writes. Run on an undirected graph.
func MaximalMatching(r *Runtime) (*MatchingResult, error) {
	g := r.G
	match := r.NewVertexArray(None)

	err := r.ForEachVertex(match, func(tx sched.Tx, v uint32) error {
		if tx.Read(v, match+mem.Addr(v)) != None {
			return nil
		}
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			if tx.Read(u, match+mem.Addr(u)) == None {
				tx.Write(v, match+mem.Addr(v), uint64(u))
				tx.Write(u, match+mem.Addr(u), uint64(v))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := r.ReadArray(match)
	pairs := 0
	for v, p := range m {
		if p != None && uint64(v) < p {
			pairs++
		}
	}
	return &MatchingResult{Match: m, Pairs: pairs}, nil
}
