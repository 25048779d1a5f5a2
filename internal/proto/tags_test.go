package proto

import (
	"slices"
	"testing"
)

// TestTagsNext: consecutive draws return adjacent, hence disjoint,
// ranges, and a draw whose range would pass 2^32−1 panics instead of
// wrapping back onto tags already handed out. The 80M-tag spans are the
// per-level reservations the (1+ε) driver once computed by hand, whose
// level·span product wrapped from level 54 on.
func TestTagsNext(t *testing.T) {
	const last = 1<<32 - 1
	for _, tc := range []struct {
		name   string
		start  uint64
		draws  []int
		panics bool
	}{
		{"from zero", 0, []int{1, 2, 0, 5, 1}, false},
		{"up to the last tag", last - 3, []int{1, 3}, false},
		{"read after the last tag", last - 3, []int{4, 0}, true},
		{"one past the last tag", last - 3, []int{1, 4}, true},
		{"exhausted", last + 1, []int{1}, true},
		{"negative count", 0, []int{-1}, true},
		{"53 level spans fit", 0, slices.Repeat([]int{80_000_000}, 53), false},
		{"54 level spans overflow", 0, slices.Repeat([]int{80_000_000}, 54), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tags := &Tags{next: tc.start}
			want := tc.start
			drawn := 0
			defer func() {
				r := recover()
				if (r != nil) != tc.panics {
					t.Fatalf("after %d of %d draws: panic %v, want panic %v", drawn, len(tc.draws), r, tc.panics)
				}
				if tc.panics && drawn != len(tc.draws)-1 {
					t.Fatalf("panicked at draw %d, want only the last draw (%d) to panic", drawn, len(tc.draws)-1)
				}
			}()
			for _, k := range tc.draws {
				if got := tags.Next(k); uint64(got) != want {
					t.Fatalf("draw %d: Next(%d) = %d, want %d (where the previous range ended)", drawn, k, got, want)
				}
				want += uint64(k)
				drawn++
			}
		})
	}
}

// TestTagsSub: a Sub(k) block advances its parent by exactly k, hands
// out the reserved range in order, and panics on the draw past k and on
// Next(0) once the block is used up, while the parent carries on after
// the block.
func TestTagsSub(t *testing.T) {
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, tc := range []struct {
		name  string
		start uint64
		k     int
	}{
		{"from zero", 0, 7},
		{"mid space", 1000, 3},
		{"empty block", 5, 0},
		{"up to the last tag", 1<<32 - 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := &Tags{next: tc.start}
			sub := parent.Sub(tc.k)
			if parent.next != tc.start+uint64(tc.k) {
				t.Fatalf("parent at %d after Sub(%d), want %d", parent.next, tc.k, tc.start+uint64(tc.k))
			}
			for i := 0; i < tc.k; i++ {
				if got := sub.Next(1); uint64(got) != tc.start+uint64(i) {
					t.Fatalf("block draw %d = %d, want %d", i, got, tc.start+uint64(i))
				}
			}
			mustPanic(t, "Next(1) past the block", func() { sub.Next(1) })
			mustPanic(t, "Next(0) after the block", func() { sub.Next(0) })
			if parent.next < 1<<32 {
				if got := parent.Next(1); uint64(got) != tc.start+uint64(tc.k) {
					t.Fatalf("parent draw after the block = %d, want %d", got, tc.start+uint64(tc.k))
				}
			}
		})
	}
	t.Run("multi-tag draw past the block", func(t *testing.T) {
		sub := new(Tags).Sub(5)
		sub.Next(3)
		mustPanic(t, "Next(3) with 2 tags left", func() { sub.Next(3) })
		if got := sub.Next(2); got != 3 {
			t.Fatalf("Next(2) with 2 tags left = %d, want 3", got)
		}
	})
	t.Run("nested block", func(t *testing.T) {
		outer := new(Tags).Sub(4)
		mustPanic(t, "Sub(5) of a 4-tag block", func() { outer.Sub(5) })
		inner := outer.Sub(2)
		if got := outer.Next(2); got != 2 {
			t.Fatalf("outer draw after a nested Sub(2) = %d, want 2", got)
		}
		inner.Next(2)
		mustPanic(t, "Next(1) past the nested block", func() { inner.Next(1) })
	})
	mustPanic(t, "Sub past 2^32", func() { (&Tags{next: 1<<32 - 2}).Sub(3) })
}
