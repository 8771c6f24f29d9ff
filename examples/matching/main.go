// Matching: the usability contrast from paper §II — the same maximal
// matching implemented twice: (a) the TM formulation (Figure 1: ten
// lines, sequential logic) and (b) the vertex-centric "four-way
// handshake" (Figure 2) that message-passing systems force, implemented
// here over explicit mailboxes. Both produce valid maximal matchings;
// the point is the line count and the reasoning burden.
//
// Run: go run ./examples/matching
package main

import (
	"fmt"
	"log"
	"time"

	"tufast"
)

func main() {
	g := tufast.GeneratePowerLaw(40_000, 400_000, 2.1, 5).Undirect()

	tm, tmDur, err := tmMatching(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	vc, vcDur, rounds := vertexCentricMatching(g)

	fmt.Printf("graph: |V|=%d |E|=%d\n\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("TM formulation (Fig. 1):            %6d pairs in %8v — one transactional loop\n", pairs(tm), tmDur.Round(time.Millisecond))
	fmt.Printf("vertex-centric handshake (Fig. 2):  %6d pairs in %8v — %d message rounds\n", pairs(vc), vcDur.Round(time.Millisecond), rounds)
}

// pairs counts the matched pairs of a partner array.
func pairs(match []uint64) int {
	n := 0
	for v, m := range match {
		if m != tufast.None && uint64(v) < m {
			n++
		}
	}
	return n
}

// tmMatching is Figure 1 verbatim, on the given number of threads (0:
// GOMAXPROCS). It returns each vertex's partner (tufast.None if
// unmatched).
func tmMatching(g *tufast.Graph, threads int) ([]uint64, time.Duration, error) {
	sys := tufast.NewSystem(g, tufast.Options{Threads: threads})
	match := sys.NewVertexArray(tufast.None)
	start := time.Now()
	err := sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		if tx.Read(v, match.Addr(v)) != tufast.None {
			return nil
		}
		for _, u := range g.Neighbors(v) {
			if u != v && tx.Read(u, match.Addr(u)) == tufast.None {
				tx.Write(v, match.Addr(v), uint64(u))
				tx.Write(u, match.Addr(u), uint64(v))
				break
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	out := make([]uint64, g.NumVertices())
	for v := range out {
		out[v] = match.Get(uint32(v))
	}
	return out, elapsed, err
}

// vertexCentricMatching is Figure 2: the four-way handshake that a
// Pregel-style system requires, over per-vertex mailboxes with
// superstep barriers. Deliberately sequential per round — the point is
// the programming model, not this harness's speed. It returns each
// vertex's partner (tufast.None if unmatched).
func vertexCentricMatching(g *tufast.Graph) ([]uint64, time.Duration, int) {
	n := g.NumVertices()
	const none = ^uint32(0)
	match := make([]uint32, n)
	for i := range match {
		match[i] = none
	}
	inbox := make([][]uint32, n)
	outbox := make([][]uint32, n)
	start := time.Now()
	rounds := 0
	// Each iteration pairs at least the smallest vertex that has an
	// unmatched neighbour with its smallest such neighbour (each is the
	// other's smallest grant), so the loop ends, and it ends only when no
	// edge has both ends unmatched.
	for progress := true; progress; {
		progress = false
		for phase := 0; phase < 4; phase++ {
			rounds++
			for v := uint32(0); int(v) < n; v++ {
				switch phase {
				case 0: // unmatched vertices send requests
					if match[v] == none {
						for _, u := range g.Neighbors(v) {
							if u != v && match[u] == none {
								outbox[u] = append(outbox[u], v)
							}
						}
					}
				case 1: // unmatched vertices grant one request
					if match[v] == none && len(inbox[v]) > 0 {
						best := inbox[v][0]
						for _, r := range inbox[v] {
							if r < best {
								best = r
							}
						}
						outbox[best] = append(outbox[best], v)
					}
				case 2: // requesters confirm one grant
					if match[v] == none && len(inbox[v]) > 0 {
						best := inbox[v][0]
						for _, gr := range inbox[v] {
							if gr < best {
								best = gr
							}
						}
						match[v] = best
						outbox[best] = append(outbox[best], v)
						progress = true
					}
				case 3: // granters record the confirmed match
					if match[v] == none && len(inbox[v]) > 0 {
						match[v] = inbox[v][0]
						progress = true
					}
				}
			}
			// Superstep barrier: deliver messages.
			inbox, outbox = outbox, inbox
			for i := range outbox {
				outbox[i] = outbox[i][:0]
			}
		}
		// Drop half-open handshakes (a requester confirmed a granter
		// that had meanwhile confirmed another grant), so both ends try
		// again next iteration.
		for v := uint32(0); int(v) < n; v++ {
			if m := match[v]; m != none && match[m] != v {
				match[v] = none
			}
		}
	}
	elapsed := time.Since(start)
	out := make([]uint64, n)
	for v, m := range match {
		out[v] = tufast.None
		if m != none {
			out[v] = uint64(m)
		}
	}
	return out, elapsed, rounds
}
