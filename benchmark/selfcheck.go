package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// setStat summarises one set of runs of one (metric, workload) pair.
type setStat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Values []float64 `json:"values"`
}

func statOf(xs []float64) setStat {
	q1, q2, q3 := quartiles(xs)
	return setStat{Median: q2, Q1: q1, Q3: q3, Spread: spread(xs), Values: xs}
}

// pairStat compares the two interleaved sets on one (metric, workload)
// pair.
type pairStat struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound,omitempty"` // 0: reported, not bounded
	A        setStat `json:"set_a"`
	B        setStat `json:"set_b"`
	// Differ is |median B - median A| / median A.
	Differ float64 `json:"medians_differ"`
	// SpreadAll is the interquartile spread over both sets together: 2N
	// runs, each with another seed, which at N = 5 is the statistic the
	// acceptance check computes. It is information; Pass does not rest
	// on it.
	SpreadAll float64 `json:"spread_all"`
	Pass      bool    `json:"pass"`
}

// sizing is what one workload ran with: the part of a child's
// fingerprint that differs between workloads.
type sizing struct {
	Rounds int            `json:"rounds"`
	Sizes  map[string]int `json:"sizes"`
}

// compareSets applies the selfcheck rule to one pair: the two medians
// of the same code may not differ by more than the metric's bound. A
// bound of 0 marks a metric that is reported only.
func compareSets(a, b []float64, bound float64) (p pairStat) {
	p.A, p.B, p.Bound = statOf(a), statOf(b), bound
	if p.A.Median != 0 {
		p.Differ = math.Abs(p.B.Median-p.A.Median) / math.Abs(p.A.Median)
	}
	p.SpreadAll = spread(append(append([]float64(nil), a...), b...))
	p.Pass = bound == 0 || p.Differ <= bound
	return p
}

// runSelfcheck runs two interleaved sets of N full runs of this binary
// (A1 B1 A2 B2 ...), Ai with seed i and Bi with seed N+i, prints each
// set's median and quartiles per (metric, workload), writes
// selfcheck.json and baseline.json (set A) under benchmark/out, and
// fails when a bounded pair disagrees with itself by more than its
// bound. Pairs a workload does not measure (the fillers) are left out.
func runSelfcheck(o options) error {
	n := o.selfcheck
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	var env fingerprint
	sizings := make(map[string]sizing)
	failed, attempted, incorrect := int64(0), int64(0), 0
	for i := 1; i <= n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				run := o
				run.workload, run.seed, run.trace = w.ID, uint64(set*n+i), false
				res, err := spawnChild(run)
				if err != nil {
					return fmt.Errorf("%s: %w", w.ID, err)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %c%d %s done\n", 'A'+set, i, w.ID)
				env, sizings[w.ID] = res.Env, sizing{res.Env.Rounds, res.Env.Sizes}
				failed += res.Failed
				attempted += res.Attempted
				if !res.Correct {
					incorrect++
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: oracles %s\n", w.ID, run.seed, oracleSummary(res))
				}
				for name, v := range res.Metrics {
					sets[set][key{w.ID, name}] = append(sets[set][key{w.ID, name}], v)
				}
			}
		}
	}

	var pairs []pairStat
	ok := failed == 0 && incorrect == 0
	fmt.Printf("selfcheck: 2 x %d runs per workload, seeds 1..%d, %d of %d operations failed, %d runs incorrect\n", n, 2*n, failed, attempted, incorrect)
	fmt.Printf("%-12s %-26s %12s %8s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "differ", "all", "bound")
	for _, w := range workloads {
		for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
			k := key{w.ID, m.Name}
			if len(sets[0][k]) == 0 || !m.measuredOn(w.ID) {
				continue // a per-layer metric of the traced run, or a filler
			}
			p := compareSets(sets[0][k], sets[1][k], m.Bound)
			p.Workload, p.Metric, p.Unit = w.ID, m.Name, m.Unit
			ok = ok && p.Pass
			verdict := ""
			if !p.Pass {
				verdict = "  FAIL"
			}
			bound := "     -"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", 100*m.Bound)
			}
			fmt.Printf("%-12s %-26s %12.4f %7.1f%% %12.4f %7.1f%% %7.1f%% %7.1f%% %s%s\n",
				w.ID, m.Name, p.A.Median, 100*p.A.Spread, p.B.Median, 100*p.B.Spread,
				100*p.Differ, 100*p.SpreadAll, bound, verdict)
			pairs = append(pairs, p)
		}
	}

	// The files cover every workload and seed: what differs per workload
	// is listed beside the fingerprint, not in it.
	env.Seed, env.Rounds, env.Sizes = 0, 0, nil
	baseline := make(map[string]map[string]setStat)
	for k, xs := range sets[0] {
		if baseline[k.workload] == nil {
			baseline[k.workload] = make(map[string]setStat)
		}
		baseline[k.workload][k.metric] = statOf(xs)
	}
	if err := writeJSON("selfcheck.json", struct {
		Env     fingerprint       `json:"env"`
		Sizings map[string]sizing `json:"workloads"`
		Runs    int               `json:"runs_per_set"`
		Pass    bool              `json:"pass"`
		Pairs   []pairStat        `json:"pairs"`
	}{env, sizings, n, ok, pairs}); err != nil {
		return err
	}
	if err := writeJSON("baseline.json", struct {
		Env     fingerprint                   `json:"env"`
		Sizings map[string]sizing             `json:"workloads"`
		Runs    int                           `json:"runs"`
		Metrics map[string]map[string]setStat `json:"metrics"`
	}{env, sizings, n, baseline}); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("selfcheck failed: an operation failed or a pair of medians differs by more than its bound")
	}
	return nil
}

// writeJSON writes v, indented and with sorted keys, under outDir.
func writeJSON(name string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(mkOutDir(), name)
	fmt.Fprintln(os.Stderr, "selfcheck: wrote", path)
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
