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
