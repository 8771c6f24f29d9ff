package algo

import (
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// BFSResult carries the level array (None for unreachable vertices).
type BFSResult struct {
	Level   []uint64
	Visited int
}

// BFS computes hop distances from source. Each vertex transaction reads
// its own level and relaxes all unvisited out-neighbors, enqueueing them
// (the paper's §IV-E example: "BFS updates all neighbors' distance
// values").
func BFS(r *Runtime, source uint32) (*BFSResult, error) {
	r.checkVertex(source)
	level := r.NewVertexArray(None)
	r.Sp.Store(level+mem.Addr(source), 0)

	q := worklist.NewQueue(r.Threads)
	q.Push(source)

	_, err := r.ForEachQueued(FIFOSource{q}, level, func(tx sched.Tx, v uint32, _ uint64, emit func(uint32, uint64)) error {
		lv := tx.Read(v, level+mem.Addr(v))
		if lv == None {
			// Unreachable from the queue: the source is levelled before the
			// drain and every emit follows a write of a level.
			return nil
		}
		for _, u := range r.G.Neighbors(v) {
			lu := tx.Read(u, level+mem.Addr(u))
			if lu > lv+1 {
				tx.Write(u, level+mem.Addr(u), lv+1)
				emit(u, 0)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	lv := r.ReadArray(level)
	visited := 0
	for _, x := range lv {
		if x != None {
			visited++
		}
	}
	return &BFSResult{Level: lv, Visited: visited}, nil
}
