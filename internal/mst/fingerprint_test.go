package mst

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"distmincut/internal/graph"
	"distmincut/internal/proto"
	"distmincut/internal/sampling"
)

// The Result fingerprint pins every node's mst.Result — tree ports,
// fragment membership and orientation, the fragment forest — on the
// Kruskal workloads, the loads case and one sampled skeleton view.
// Changes to how MST messages travel must leave it untouched: only
// Stats may move. Deleting the file and running the test records it
// afresh (and fails once, so a re-record is never silent).

const fingerprintFile = "testdata/result_fingerprint.json"

// resultFingerprint is one case's Results: Shared holds the fields
// every node must agree on, Nodes the node-local ones by node ID.
type resultFingerprint struct {
	Shared string
	Nodes  []string
}

func fingerprintOf(t *testing.T, results []*Result) resultFingerprint {
	t.Helper()
	// The census (derived from the inter-fragment edges on a connected
	// view, flooded on a disconnected one) is exactly the FragIDs.
	var frags []int64
	for _, r := range results {
		frags = append(frags, r.FragID)
	}
	slices.Sort(frags)
	if want, got := fmt.Sprint(slices.Compact(frags)), fmt.Sprint(results[0].AllFrags); got != want {
		t.Fatalf("census %s, the nodes' FragIDs are %s", got, want)
	}
	fp := resultFingerprint{Nodes: make([]string, len(results))}
	for v, r := range results {
		// fmt prints maps with sorted keys, so FragParent is canonical.
		shared := fmt.Sprintf("inter=%v root=%d parent=%v frags=%v connected=%v",
			r.InterEdges, r.RootFrag, r.FragParent, r.AllFrags, r.Connected)
		if v == 0 {
			fp.Shared = shared
		} else if shared != fp.Shared {
			t.Fatalf("node %d disagrees with node 0 on shared fields:\n  %s\n  %s", v, shared, fp.Shared)
		}
		fp.Nodes[v] = fmt.Sprintf("parent=%d children=%v frag=%d fragroot=%d fragparent=%d fragchildren=%v",
			r.ParentPort, r.ChildPorts, r.FragID, r.FragRootID, r.FragParentPort, r.FragChildPorts)
	}
	return fp
}

// sampledView is a level-1 Karger skeleton of a 6-regular graph: about
// half the edges survive, and the view may split into a forest.
func sampledView() (*graph.Graph, []int64) {
	g := graph.RandomRegular(48, 6, 2)
	view := make([]int64, g.M())
	for i, e := range g.Edges() {
		view[i] = sampling.SampleWeight(3, PackUV(e.U, e.V), 1, e.W)
	}
	return g, view
}

func TestMSTResultFingerprint(t *testing.T) {
	got := map[string]resultFingerprint{}
	for name, g := range kruskalWorkloads() {
		got["kruskal/"+name] = fingerprintOf(t, collectDistributed(t, g, nil, 11))
	}
	g, loads := loadsWorkload()
	got["loads"] = fingerprintOf(t, collectDistributed(t, g, loads, 13))
	g, view := sampledView()
	got["sampled"] = fingerprintOf(t, collectWeighted(t, g, nil, view, 7))

	raw, err := os.ReadFile(fingerprintFile)
	if os.IsNotExist(err) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d Result fingerprints to %s; rerun to check them", len(got), fingerprintFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]resultFingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(want) != len(got) {
		t.Errorf("fingerprint file has %d cases, test ran %d", len(want), len(got))
	}
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in fingerprint file but not run", name)
			continue
		}
		w := want[name]
		if g.Shared != w.Shared {
			t.Errorf("%s: shared fields diverged:\n  got:  %s\n  want: %s", name, g.Shared, w.Shared)
		}
		if len(g.Nodes) != len(w.Nodes) {
			t.Errorf("%s: %d nodes, fingerprint has %d", name, len(g.Nodes), len(w.Nodes))
			continue
		}
		for v := range w.Nodes {
			if g.Nodes[v] != w.Nodes[v] {
				t.Errorf("%s: node %d diverged:\n  got:  %s\n  want: %s", name, v, g.Nodes[v], w.Nodes[v])
			}
		}
	}
}

// TestInterEdgesDeterministic: a mutual minimum outgoing edge reaches
// the Part-2 merge from both fragments; the emitted orientation must
// not depend on map iteration order, so repeated identical runs return
// identical InterEdges.
func TestInterEdgesDeterministic(t *testing.T) {
	g := graph.GNP(120, 0.08, 17)
	var ref []InterEdge
	for run := 0; run < 20; run++ {
		results := collectDistributed(t, g, nil, 5)
		if run == 0 {
			ref = results[0].InterEdges
			continue
		}
		got := results[0].InterEdges
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("run %d InterEdges differ from run 0:\n  got:  %v\n  want: %v", run, got, ref)
		}
	}
}

// TestRunWeightedSparseView: a view that erases about 70% of a
// 6-regular graph's edges (chosen by edge ID) leaves many components
// and many absent ports. The result must be exactly the view's
// Kruskal forest, with no unconsumed messages and no deadlock.
func TestRunWeightedSparseView(t *testing.T) {
	g := graph.RandomRegular(64, 6, 4)
	view := make([]int64, g.M())
	kept := 0
	for i, e := range g.Edges() {
		if proto.SplitMix64(uint64(e.ID))%10 >= 7 {
			view[i] = e.W
			kept++
		}
	}
	if kept == 0 || kept > g.M()/2 {
		t.Fatalf("view keeps %d of %d edges, want about 30%%", kept, g.M())
	}
	results := collectWeighted(t, g, nil, view, 9)

	// Reference: Kruskal over the kept edges only.
	order := make([]int, 0, kept)
	for i := range view {
		if view[i] > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Edge(order[a]), g.Edge(order[b])
		return Key{W: view[ea.ID], UV: PackUV(ea.U, ea.V)}.Less(Key{W: view[eb.ID], UV: PackUV(eb.U, eb.V)})
	})
	uf := newUnionFind(g.N())
	want := map[int64]bool{}
	for _, id := range order {
		e := g.Edge(id)
		if uf.union(int(e.U), int(e.V)) {
			want[PackUV(e.U, e.V)] = true
		}
	}
	components := g.N() - len(want)

	got := treeEdgesOf(g, results)
	if len(got) != len(want) {
		t.Fatalf("distributed forest has %d edges, view's Kruskal forest %d", len(got), len(want))
	}
	for uv := range got {
		if !want[uv] {
			u, v := UnpackUV(uv)
			t.Fatalf("distributed forest contains non-forest edge {%d,%d}", u, v)
		}
	}
	roots := 0
	for v, r := range results {
		if r.ParentPort < 0 {
			roots++
		}
		if r.Connected != (components == 1) {
			t.Fatalf("node %d reports Connected=%v with %d components", v, r.Connected, components)
		}
	}
	if roots != components {
		t.Fatalf("forest has %d roots, view has %d components", roots, components)
	}
}
