// Command mincut runs the distributed minimum-cut pipeline on a
// generated workload and reports the cut, its side sizes, and the
// CONGEST complexity, cross-checked against Stoer–Wagner. It exits 1
// when the reported side's recomputed weight differs from the reported
// value, when the value is below the Stoer–Wagner λ, or when exact mode
// misses λ.
//
// Usage:
//
//	mincut -graph planted -n 48 -lambda 3 [-mode exact|approx|respect]
//	       [-eps 0.25] [-seed 7] [-weights 1,50]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"distmincut"
	"distmincut/internal/baseline"
	"distmincut/internal/graph"
	"distmincut/internal/verify"
)

func main() {
	os.Exit(run())
}

func run() int {
	kind := flag.String("graph", "planted", "workload: planted|gnp|torus|cycle|clique|cliquepath|hypercube")
	n := flag.Int("n", 48, "approximate node count")
	lambda := flag.Int("lambda", 3, "planted cut value (planted graphs)")
	mode := flag.String("mode", "exact", "exact | approx | respect")
	eps := flag.Float64("eps", 0.25, "approximation parameter (approx mode)")
	seed := flag.Int64("seed", 1, "seed")
	weights := flag.String("weights", "", "random edge weights lo,hi (e.g. 1,50)")
	flag.Parse()

	g, err := buildGraph(*kind, *n, *lambda, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *weights != "" {
		parts := strings.Split(*weights, ",")
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "-weights wants lo,hi")
			return 2
		}
		lo, err1 := strconv.ParseInt(parts[0], 10, 64)
		hi, err2 := strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, "-weights wants integers lo,hi")
			return 2
		}
		g = graph.AssignWeights(g, lo, hi, *seed+1)
	}
	d := graph.Diameter(g)
	fmt.Printf("workload: %s  n=%d m=%d D=%d\n", *kind, g.N(), g.M(), d)

	sw, _, err := baseline.StoerWagner(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("ground truth (Stoer–Wagner): λ = %d\n\n", sw)

	opts := &distmincut.Options{Seed: *seed, Epsilon: *eps}
	var res *distmincut.Result
	switch *mode {
	case "exact":
		res, err = distmincut.MinCut(g, opts)
	case "approx":
		res, err = distmincut.ApproxMinCut(g, opts)
	case "respect":
		res, _, err = distmincut.OneRespectingCut(g, opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	inside := 0
	for _, s := range res.Side {
		if s {
			inside++
		}
	}
	norm := math.Sqrt(float64(g.N())) + float64(d)
	by := ""
	if res.Certificate != "" {
		by = ", by " + res.Certificate
	}
	fmt.Printf("mode %s: cut value = %d (exact certified: %v%s)\n", *mode, res.Value, res.Exact, by)
	fmt.Printf("cut side: %d vs %d nodes, defined by subtree of node %d\n", inside, g.N()-inside, res.BestNode)
	fmt.Printf("trees packed: %d   sampling levels: %d\n", res.TreesPacked, res.Levels)
	fmt.Printf("CONGEST cost: %d rounds (%.1fx (√n+D)), %d messages\n",
		res.Rounds, float64(res.Rounds)/norm, res.Messages)
	if spans := distmincut.Spans(res.Stats); len(spans) > 0 {
		mst, resp := spanRounds(spans, "mst"), spanRounds(spans, "respect")
		busy := busyRounds(spans)
		fmt.Printf("round breakdown: MST construction %d, 1-respecting cuts %d (both at once %d), other %d\n",
			mst, resp, mst+resp-busy, res.Rounds-busy)
	}
	if err := check(g, *mode, res, sw); err != nil {
		fmt.Printf("WARNING: %v!\n", err)
		return 1
	}
	if *mode == "approx" {
		fmt.Printf("approximation ratio: %.3f (budget 1+ε = %.3f)\n", float64(res.Value)/float64(sw), 1+*eps)
	}
	return 0
}

// spanRounds sums the rounds of every span called name in the tree.
func spanRounds(spans []*distmincut.Span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n += s.Rounds()
		}
		n += spanRounds(s.Children, name)
	}
	return n
}

// busyRounds counts the rounds inside an mst or respect span. A
// packing runs tree i+1's mst beside tree i's respect, so the two
// overlap; their intervals are merged rather than summed.
func busyRounds(spans []*distmincut.Span) int {
	var iv [][2]int
	var walk func([]*distmincut.Span)
	walk = func(spans []*distmincut.Span) {
		for _, s := range spans {
			if s.Name == "mst" || s.Name == "respect" {
				iv = append(iv, [2]int{s.StartRound, s.EndRound})
				continue
			}
			walk(s.Children)
		}
	}
	walk(spans)
	slices.SortFunc(iv, func(a, b [2]int) int { return a[0] - b[0] })
	busy, end := 0, 0
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			busy += v[1] - lo
			end = v[1]
		}
	}
	return busy
}

// check cross-checks a result against the graph and the Stoer–Wagner
// minimum lambda, in every mode: the reported side must be a proper
// cut whose weight is the reported value, no cut can weigh less than
// lambda, and exact mode must hit lambda.
func check(g *graph.Graph, mode string, res *distmincut.Result, lambda int64) error {
	w, err := verify.CutSides(g, res.Side)
	if err != nil {
		return fmt.Errorf("reported cut side is invalid: %v", err)
	}
	if w != res.Value {
		return fmt.Errorf("reported side weighs %d, not the reported value %d", w, res.Value)
	}
	if res.Value < lambda {
		return fmt.Errorf("cut value %d is below the Stoer–Wagner minimum %d", res.Value, lambda)
	}
	if mode == "exact" && res.Value != lambda {
		return fmt.Errorf("exact mode disagrees with Stoer–Wagner (%d vs %d)", res.Value, lambda)
	}
	return nil
}

func buildGraph(kind string, n, lambda int, seed int64) (*graph.Graph, error) {
	switch kind {
	case "planted":
		h := n / 2
		return graph.PlantedCut(h, n-h, lambda, 0.5, seed), nil
	case "gnp":
		return graph.GNP(n, 8/float64(n), seed), nil
	case "torus":
		s := int(math.Round(math.Sqrt(float64(n))))
		if s < 3 {
			s = 3
		}
		return graph.Torus(s, s), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "clique":
		return graph.Complete(n), nil
	case "cliquepath":
		k := 8
		c := n / k
		if c < 2 {
			c = 2
		}
		return graph.CliquePath(c, k, 2), nil
	case "hypercube":
		d := 1
		for 1<<d < n {
			d++
		}
		return graph.Hypercube(d), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}
