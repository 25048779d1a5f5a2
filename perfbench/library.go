package main

import (
	"fmt"
	"time"

	"distmincut"
	"distmincut/internal/baseline"
	"distmincut/internal/congest"
	"distmincut/internal/graph"
	"distmincut/internal/verify"
)

// libraryWorkload runs distmincut entry points on a warm engine with
// the shipped defaults, the way a service worker calls them. One caller
// runs one op at a time; op i uses graph i mod len(graphs).
type libraryWorkload struct {
	cfg    config
	build  func() ([]*graph.Graph, []int64, error) // inputs and their λ
	op     func(w *libraryWorkload, g *graph.Graph, lambda int64, c *opCalls) error
	warm   func(w *libraryWorkload, g *graph.Graph, lambda int64, c *opCalls) error // nil: op
	graphs []*graph.Graph
	lambda []int64
	eng    *congest.Engine
	next   int
	prefix prefix
}

// opCalls collects one op's entry-point calls and its deferred checks.
type opCalls struct {
	traced bool
	calls  []call
	checks []func() error
}

// call is one timed distmincut entry-point call.
type call struct {
	name  string
	start time.Time
	wall  time.Duration
	stats *congest.Stats
	obs   *roundObserver
}

// do times one entry-point call. Under tracing the call carries a
// round observer; the untraced pass runs with none, as users do.
func (c *opCalls) do(w *libraryWorkload, name string, f func(*distmincut.Options) (*congest.Stats, error)) error {
	opts := &distmincut.Options{Engine: w.eng}
	var obs *roundObserver
	if c.traced {
		obs = &roundObserver{}
		opts.Observer = obs
	}
	start := time.Now()
	stats, err := f(opts)
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	c.calls = append(c.calls, call{name: name, start: start, wall: wall, stats: stats, obs: obs})
	return nil
}

func (c *opCalls) check(f func() error) { c.checks = append(c.checks, f) }

// checkSide verifies that side is a proper cut of g weighing value.
func checkSide(g *graph.Graph, side []bool, value int64) error {
	w, err := verify.CutSides(g, side)
	if err != nil {
		return err
	}
	if w != value {
		return fmt.Errorf("side weighs %d, reported %d", w, value)
	}
	return nil
}

// newExactNarrow: one caller runs MinCut on seeded planted graphs with
// λ = 3 and n = 48.
func newExactNarrow(cfg config) *libraryWorkload {
	return &libraryWorkload{
		cfg: cfg,
		build: func() ([]*graph.Graph, []int64, error) {
			gs := make([]*graph.Graph, cfg.enGraphs)
			ls := make([]int64, cfg.enGraphs)
			for i := range gs {
				gs[i] = graph.PlantedCut(cfg.enHalf, cfg.enHalf, 3, 0.3, cfg.seed*1_000_003+int64(i))
				l, _, err := baseline.StoerWagner(gs[i])
				if err != nil {
					return nil, nil, err
				}
				ls[i] = l
			}
			return gs, ls, nil
		},
		op: func(w *libraryWorkload, g *graph.Graph, lambda int64, c *opCalls) error {
			var res *distmincut.Result
			err := c.do(w, "mincut", func(o *distmincut.Options) (*congest.Stats, error) {
				var err error
				res, err = distmincut.MinCut(g, o)
				if err != nil {
					return nil, err
				}
				return res.Stats, nil
			})
			if err != nil {
				return err
			}
			value, side := res.Value, res.Side
			c.check(func() error {
				if value != lambda {
					return fmt.Errorf("mincut %d, want λ = %d", value, lambda)
				}
				return checkSide(g, side, value)
			})
			return nil
		},
	}
}

// newTieredWide: one caller runs BracketMinCut and then ApproxMinCut on
// seeded bridged 8-regular expanders with n = 4096 and λ = 1.
func newTieredWide(cfg config) *libraryWorkload {
	return &libraryWorkload{
		cfg: cfg,
		build: func() ([]*graph.Graph, []int64, error) {
			gs := make([]*graph.Graph, cfg.twGraphs)
			ls := make([]int64, cfg.twGraphs)
			for i := range gs {
				gs[i] = bridgedExpanders(cfg.twHalf, 8, cfg.seed*1_000_003+int64(2*i))
				l, err := bridgeLambda(gs[i], cfg.twHalf)
				if err != nil {
					return nil, nil, err
				}
				ls[i] = l
			}
			return gs, ls, nil
		},
		warm: bracketCall,
		op: func(w *libraryWorkload, g *graph.Graph, lambda int64, c *opCalls) error {
			if err := bracketCall(w, g, lambda, c); err != nil {
				return err
			}
			var ar *distmincut.Result
			err := c.do(w, "approx", func(o *distmincut.Options) (*congest.Stats, error) {
				var err error
				ar, err = distmincut.ApproxMinCut(g, o)
				if err != nil {
					return nil, err
				}
				return ar.Stats, nil
			})
			if err != nil {
				return err
			}
			av, aside := ar.Value, ar.Side
			c.check(func() error {
				// ApproxMinCut's default ε is 0.5.
				if av < lambda || float64(av) > 1.5*float64(lambda) {
					return fmt.Errorf("approx %d outside [λ, 1.5λ] for λ = %d", av, lambda)
				}
				return checkSide(g, aside, av)
			})
			return nil
		},
	}
}

// bracketCall runs BracketMinCut, tiered-wide's first answer. It alone
// warms the engine: the bracket run already sizes every per-node slab
// for the graph.
func bracketCall(w *libraryWorkload, g *graph.Graph, lambda int64, c *opCalls) error {
	var br *distmincut.BracketResult
	err := c.do(w, "bracket", func(o *distmincut.Options) (*congest.Stats, error) {
		var err error
		br, err = distmincut.BracketMinCut(g, o)
		if err != nil {
			return nil, err
		}
		return br.Stats, nil
	})
	if err != nil {
		return err
	}
	lo, hi, bv, bside := br.Lo, br.Hi, br.Value, br.Side
	c.check(func() error {
		if lo > lambda || hi < lambda {
			return fmt.Errorf("bracket [%d, %d] misses λ = %d", lo, hi, lambda)
		}
		return checkSide(g, bside, bv)
	})
	return nil
}

// bridgedExpanders joins two half-node deg-regular random expanders by
// one unit-weight bridge: n = 2·half, planted minimum cut λ = 1.
func bridgedExpanders(half, deg int, seed int64) *graph.Graph {
	g := graph.New(2 * half)
	for side := 0; side < 2; side++ {
		sub := graph.RandomRegular(half, deg, seed+int64(side))
		off := graph.NodeID(side * half)
		for _, e := range sub.Edges() {
			g.MustAddEdge(e.U+off, e.V+off, e.W)
		}
	}
	g.MustAddEdge(0, graph.NodeID(half), 1)
	g.SortAdjacency()
	return g
}

// bridgeLambda certifies λ = 1 for a bridged expander without
// Stoer–Wagner, whose O(n³) time and O(n²) memory would dominate set-up
// and peak RSS at this size: the graph is connected with integer
// weights, so every cut weighs at least 1, and the bridge is a cut of
// weight 1.
func bridgeLambda(g *graph.Graph, half int) (int64, error) {
	if !graph.IsConnected(g) {
		return 0, fmt.Errorf("bridged expander is disconnected")
	}
	for _, e := range g.Edges() {
		if e.W < 1 {
			return 0, fmt.Errorf("edge {%d,%d} weighs %d", e.U, e.V, e.W)
		}
	}
	side := make([]bool, g.N())
	for v := 0; v < half; v++ {
		side[v] = true
	}
	if w, err := verify.CutSides(g, side); err != nil || w != 1 {
		return 0, fmt.Errorf("bridge cut weighs %d (%v), want 1", w, err)
	}
	return 1, nil
}

// setup builds the inputs and oracle, starts an engine and warms it
// with one untimed call on the first graph.
func (w *libraryWorkload) setup() error {
	gs, ls, err := w.build()
	if err != nil {
		return err
	}
	w.graphs, w.lambda = gs, ls
	w.eng = congest.NewEngine(congest.Options{})
	warm := w.warm
	if warm == nil {
		warm = w.op
	}
	c := &opCalls{}
	if err := warm(w, gs[0], ls[0], c); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, f := range c.checks {
		if err := f(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *libraryWorkload) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}

// pass runs ops until d has passed and the pass has covered the whole
// pool once, then checks every answer. Covering the pool makes the first
// pass's counters exact and lets a traced pass time the same graphs as
// the untraced one.
func (w *libraryWorkload) pass(d time.Duration, rec *recorder) (*passResult, error) {
	res := &passResult{}
	traced := rec != nil
	var all []*opCalls
	var errs []error
	var overhead samples
	callMs := map[string]samples{}
	phases := phaseTotals{}
	var execNs, deliveryNs, setupNs, wakeups, woken, rounds int64
	var shardMax, shardMean float64

	start, first := time.Now(), w.next
	for time.Since(start) < d || w.next < first+len(w.graphs) {
		i := w.next
		w.next++
		g, lambda := w.graphs[i%len(w.graphs)], w.lambda[i%len(w.graphs)]
		c := &opCalls{traced: traced}
		t0 := time.Now()
		err := w.op(w, g, lambda, c)
		opWall := time.Since(t0)
		all = append(all, c)
		errs = append(errs, err)
		op := opRecord{latency: opWall}
		if len(c.calls) > 0 {
			op.first = c.calls[0].wall
		}
		res.ops = append(res.ops, op)

		var r, m, wk int64
		for _, cl := range c.calls {
			r += int64(cl.stats.Rounds)
			m += cl.stats.Delivered
			wk += cl.stats.Wakeups
		}
		if i < len(w.graphs) && err == nil {
			w.prefix.add(r, m, wk, false)
		}
		if i == len(w.graphs)-1 {
			w.prefix.peakRSSMB = peakRSSMB()
		}
		if !traced || err != nil {
			continue
		}
		rec.add(span{name: "op", cat: "op", op: i, tid: 1, start: t0, dur: opWall})
		var accounted time.Duration
		for _, cl := range c.calls {
			spans := distmincut.Spans(cl.stats)
			rec.add(span{name: cl.name, cat: "distmincut", op: i, tid: 1, start: cl.start, dur: cl.wall,
				args: map[string]any{"rounds": cl.stats.Rounds, "messages": cl.stats.Delivered}})
			rec.addPhases(cl.start, i, 1, spans)
			phases.addSpans(spans, map[string]bool{})
			callMs[cl.name] = append(callMs[cl.name], cl.wall.Seconds())
			engine := time.Duration(cl.obs.lastNanos)
			ov := cl.wall - engine
			overhead = append(overhead, ov.Seconds())
			accounted += time.Duration(cl.stats.SetupNanos) + ov
			for _, sp := range spans {
				accounted += time.Duration(sp.Nanos())
			}
			execNs += cl.obs.lastNanos - cl.stats.SetupNanos - cl.obs.deliveryNs
			deliveryNs += cl.obs.deliveryNs
			setupNs += cl.stats.SetupNanos
			wakeups += cl.stats.Wakeups
			woken += cl.obs.woken
			rounds += int64(cl.obs.rounds)
			shardMax += cl.obs.shardMax
			shardMean += cl.obs.shardMean
			res.goroutinesPeak = max(res.goroutinesPeak, cl.obs.goroutines)
		}
		res.accounted += accounted
		c.calls = nil // keep only the checks; the stats and their marks can go
	}
	res.wall = time.Since(start)
	res.prefix = w.prefix

	for i, c := range all {
		err := errs[i]
		if err == nil {
			for _, f := range c.checks {
				if err = f(); err != nil {
					break
				}
			}
		}
		if err != nil {
			res.failed++
			if len(res.problems) < 5 {
				res.problems = append(res.problems, err.Error())
			}
		}
	}
	if !traced {
		return res, nil
	}

	ops := len(res.ops)
	skew := 0.0
	if shardMean > 0 {
		skew = shardMax / shardMean
	}
	nsPerWake := 0.0
	if wakeups > 0 {
		nsPerWake = float64(execNs) / float64(wakeups)
	}
	res.layer = []metric{
		{name: "congest.exec_ms_per_op", unit: "ms", value: mean(float64(execNs)/1e6, ops),
			note: "round wall time minus delivery"},
		{name: "congest.ns_per_wakeup", unit: "ns", value: nsPerWake},
		{name: "congest.delivery_ms_per_op", unit: "ms", value: mean(float64(deliveryNs)/1e6, ops)},
		{name: "congest.shard_skew", unit: "ratio", value: skew, note: "slowest over mean delivery shard"},
		{name: "congest.woken_per_round", unit: "count", value: mean(float64(woken), int(rounds))},
		{name: "congest.wakeups_per_op", unit: "count", value: mean(float64(w.prefix.wakeups), w.prefix.ops),
			note: fmt.Sprintf("over the first %d ops", w.prefix.ops)},
		{name: "congest.setup_ms_per_op", unit: "ms", value: mean(float64(setupNs)/1e6, ops)},
	}
	res.layer = append(res.layer, phases.metrics(ops)...)
	for _, name := range []string{"mincut", "bracket", "approx"} {
		if s, ok := callMs[name]; ok {
			res.layer = append(res.layer, timing("distmincut."+name+"_ms", s, 1e3, "ms"))
		}
	}
	res.layer = append(res.layer, timing("distmincut.overhead_ms", overhead, 1e3, "ms"))
	return res, nil
}
