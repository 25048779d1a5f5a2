package mst

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	fp := resultFingerprint{Nodes: make([]string, len(results))}
	for v, r := range results {
		// The fragment tree prints as the fragment -> parent fragment map
		// (the root maps to -1) it once was; fmt sorts map keys.
		shared := fmt.Sprintf("inter=%v root=%d parent=%v connected=%v",
			r.InterEdges(), r.RootFrag, fragParents(r.Frags), r.Connected)
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

// fragParents returns t as a fragment -> parent fragment map, the root
// fragment mapping to -1. A tree with no fragments (a disconnected
// view's empty Result) gives an empty map.
func fragParents(t FragTree) map[int64]int64 {
	m := make(map[int64]int64, t.Len())
	for i := 0; i < t.Len(); i++ {
		m[t.ID(i)] = -1
		if p := t.Parent(i); p >= 0 {
			m[t.ID(i)] = t.ID(p)
		}
	}
	return m
}

// sampledView is a level-1 Karger skeleton of a 6-regular graph: 83 of
// its 144 edges survive, and the skeleton stays connected.
func sampledView() (*graph.Graph, []int64) {
	g := graph.RandomRegular(48, 6, 2)
	view := make([]int64, g.M())
	for i, e := range g.Edges() {
		view[i] = sampling.SampleWeight(1, PackUV(e.U, e.V), 1, e.W)
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
	sampled := collectWeighted(t, g, nil, view, 7)
	if !sampled[0].Connected {
		t.Fatal("the sampled view is disconnected, so it pins no tree")
	}
	got["sampled"] = fingerprintOf(t, sampled)

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

// TestInterEdgesDeterministic: repeated identical runs return
// identical InterEdges, in the same order and orientation.
func TestInterEdgesDeterministic(t *testing.T) {
	g := graph.GNP(120, 0.08, 17)
	var ref []InterEdge
	for run := 0; run < 20; run++ {
		results := collectDistributed(t, g, nil, 5)
		if run == 0 {
			ref = results[0].InterEdges()
			continue
		}
		got := results[0].InterEdges()
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("run %d InterEdges differ from run 0:\n  got:  %v\n  want: %v", run, got, ref)
		}
	}
}

// sparseView keeps about 30% of g's edges, chosen by a hash of the
// edge ID, and every edge of span (edge IDs).
func sparseView(g *graph.Graph, span []int) []int64 {
	view := make([]int64, g.M())
	for i, e := range g.Edges() {
		if proto.SplitMix64(uint64(e.ID))%10 >= 7 {
			view[i] = e.W
		}
	}
	for _, id := range span {
		view[id] = g.Edge(id).W
	}
	return view
}

// TestRunWeightedSparseView: a view that erases about 70% of a
// 6-regular graph's edges (chosen by edge ID) leaves many components
// and many absent ports; every node must report Connected=false, with
// no message left unconsumed. The same 30% plus a spanning tree stays
// connected, and the result must then be exactly the view's Kruskal
// tree.
func TestRunWeightedSparseView(t *testing.T) {
	g := graph.RandomRegular(64, 6, 4)
	view := sparseView(g, nil)
	h, _ := g.Reweight(view)
	_, components := graph.Components(h)
	if components < 2 {
		t.Fatalf("the sparse view is connected")
	}
	for v, r := range collectWeighted(t, g, nil, view, 9) {
		if r.Connected {
			t.Fatalf("node %d reports a %d-component view as connected", v, components)
		}
	}

	_, parentEdge := graph.RandomSpanningTree(g, 0, 4)
	var span []int
	for _, id := range parentEdge {
		if id >= 0 {
			span = append(span, id)
		}
	}
	view = sparseView(g, span)
	h, _ = g.Reweight(view)
	h.SortAdjacency()
	ids, err := Kruskal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, id := range ids {
		e := h.Edge(id)
		want[PackUV(e.U, e.V)] = true
	}
	results := collectWeighted(t, g, nil, view, 9)
	got := treeEdgesOf(g, results)
	if len(got) != len(want) || len(got) != g.N()-1 {
		t.Fatalf("distributed tree has %d edges, view's Kruskal tree %d", len(got), len(want))
	}
	for uv := range got {
		if !want[uv] {
			u, v := UnpackUV(uv)
			t.Fatalf("distributed tree contains non-MST edge {%d,%d}", u, v)
		}
	}
	for v, r := range results {
		if !r.Connected {
			t.Fatalf("node %d reports the spanning view as disconnected", v)
		}
	}
}
