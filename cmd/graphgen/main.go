// Command graphgen generates synthetic graphs and saves them in the
// module's binary CSR format (or as a text edge list). With -stream it
// instead emits a timestamped edge-stream workload for cmd/tufast
// -stream: part of the generated graph becomes the base, the rest is
// shuffled into an insert/delete suffix — reproducible from the seed.
//
// Usage:
//
//	graphgen -kind powerlaw -n 100000 -m 3700000 -alpha 2.0 -o twitter.bin
//	graphgen -kind dataset -dataset uk-2007-05 -scale 0.5 -o uk.bin
//	graphgen -kind powerlaw -n 100000 -undirected -stream -o twitter.stream
package main

import (
	"flag"
	"fmt"
	"os"

	"tufast/internal/dyngraph"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
)

func main() {
	var (
		kind       = flag.String("kind", "powerlaw", "powerlaw|rmat|uniform|grid|dataset")
		n          = flag.Int("n", 100_000, "vertex count (powerlaw/uniform)")
		m          = flag.Int("m", 1_000_000, "edge count (powerlaw)")
		alpha      = flag.Float64("alpha", 2.1, "power-law exponent")
		scaleP     = flag.Int("rmat-scale", 17, "RMAT scale (2^scale vertices)")
		ef         = flag.Int("edge-factor", 16, "RMAT edges per vertex")
		deg        = flag.Int("degree", 16, "uniform degree")
		rows       = flag.Int("rows", 300, "grid rows")
		cols       = flag.Int("cols", 300, "grid cols")
		dataset    = flag.String("dataset", "twitter-mpi", "dataset stand-in name")
		scale      = flag.Float64("scale", 1.0, "dataset scale")
		seed       = flag.Uint64("seed", 1, "generator seed")
		out        = flag.String("o", "graph.bin", "output path (.bin or .txt)")
		text       = flag.Bool("text", false, "write a text edge list instead of binary")
		undirected = flag.Bool("undirected", false, "symmetrize the generated graph")
		stream     = flag.Bool("stream", false, "write a timestamped edge-stream workload instead of a graph")
		streamAdds = flag.Float64("stream-adds", 0.10, "with -stream: fraction of edges held out as inserts")
		streamDels = flag.Float64("stream-dels", 0.02, "with -stream: fraction of base edges replayed as deletes")
	)
	flag.Parse()

	var g *graph.CSR
	switch *kind {
	case "powerlaw":
		g = gen.PowerLaw(*n, *m, *alpha, *seed)
	case "rmat":
		g = gen.RMAT(*scaleP, *ef, *seed)
	case "uniform":
		g = gen.Uniform(*n, *deg, *seed)
	case "grid":
		g = gen.Grid(*rows, *cols)
	case "dataset":
		d, ok := gen.DatasetByName(*dataset)
		if !ok {
			fmt.Fprintf(os.Stderr, "graphgen: unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		g = d.Generate(*scale)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if *undirected {
		g = g.Symmetrized()
	}

	fmt.Printf("generated |V|=%d |E|=%d maxdeg=%d avgdeg=%.1f\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.AvgDegree())

	if *stream {
		st := dyngraph.Synthesize(g, *streamAdds, *streamDels, *seed)
		if err := dyngraph.WriteStreamFile(*out, st); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		nDel := 0
		for _, op := range st.Ops {
			if op.Del {
				nDel++
			}
		}
		fmt.Printf("stream: base edges=%d ops=%d (inserts=%d deletes=%d)\n",
			len(st.Base), len(st.Ops), len(st.Ops)-nDel, nDel)
		fmt.Printf("wrote %s\n", *out)
		return
	}

	if *text {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := g.WriteEdgeList(f); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
	} else if err := g.SaveBinary(*out); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
