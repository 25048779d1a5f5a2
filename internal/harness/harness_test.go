package harness

import (
	"strings"
	"testing"
)

// TestRunAllQuick executes the whole experiment suite in quick mode —
// the strongest integration test in the repository: every experiment
// must complete, produce rows, and report no anomalies in its notes.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is slow")
	}
	tables := RunAll(Config{Quick: true, Seed: 3})
	if len(tables) != 9 {
		t.Fatalf("got %d tables, want 9", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", tb.ID)
		}
		md := tb.Markdown()
		if !strings.Contains(md, "| ---") {
			t.Errorf("%s markdown malformed", tb.ID)
		}
		for _, n := range tb.Notes {
			if strings.Contains(n, "error") {
				t.Errorf("%s reported an error note: %s", tb.ID, n)
			}
		}
	}
}

func TestE1NoMismatches(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E1Correctness(Config{Quick: true, Seed: 5})
	for _, row := range tb.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("E1 mismatches in row %v", row)
		}
	}
}

func TestE3AllExact(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E3Exact(Config{Quick: true, Seed: 5})
	for _, row := range tb.Rows {
		if row[2] != "true" {
			t.Fatalf("E3 row not exact: %v", row)
		}
		if row[3] != row[4] {
			t.Fatalf("E3 value %s != Stoer–Wagner %s", row[3], row[4])
		}
	}
}

// TestE9AblationExact: every fragment size cap of the E9 sweep finds
// the exact minimum cut, and each cap yields its own row.
func TestE9AblationExact(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E9Ablation(Config{Quick: true, Seed: 5})
	// At n = 64 the caps 2, √n/2, √n, 2√n and n/4 are 2, 4, 8, 16, 16.
	want := []string{"s=2 ", "s=4 ", "s=8 ", "s=16 "}
	if len(tb.Rows) != len(want) {
		t.Fatalf("E9 has %d rows, want one per distinct size cap (%d): %v (notes %v)", len(tb.Rows), len(want), tb.Rows, tb.Notes)
	}
	for i, row := range tb.Rows {
		if !strings.HasPrefix(row[0], want[i]) {
			t.Fatalf("E9 row %d is %q, want cap %q", i, row[0], want[i])
		}
		if row[3] != "true" { // value ok
			t.Fatalf("E9 row not exact: %v", row)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"note"},
	}
	md := tb.Markdown()
	for _, want := range []string{"### EX — T", "| a | b |", "| 1 | 2 |", "> note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
