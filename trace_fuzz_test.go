package distmincut

import (
	"testing"

	"distmincut/internal/congest"
)

// FuzzSpans decodes arbitrary bytes into a round-monotone mark stream —
// shuffled begin:/end: labels, plain marks, unmatched ends, truncated
// phases, marks of two interleaved lanes — and checks that the span
// parser never panics and always
// produces a well-formed tree: every span's end is at or after its
// start on all three axes, and children nest inside their parents. The
// engine guarantees marks arrive round-ordered (they are recorded under
// its mutex as rounds advance); everything else about the stream is
// adversarial, which is exactly what an aborted or buggy protocol run
// can hand the parser.
func FuzzSpans(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x21, 0x45, 0x81})             // nested begin/end pairs
	f.Add([]byte{0x01, 0x05, 0x09})                   // ends with no begins
	f.Add([]byte{0x20, 0x60, 0xa0})                   // begins never closed
	f.Add([]byte{0x00, 0x02, 0x21, 0x47, 0x83})       // plain marks interleaved
	f.Add([]byte{0xff, 0x7f, 0x3f, 0x1f, 0x0f})       // big round jumps
	f.Add([]byte{0x00, 0x24, 0x25, 0x01, 0x48, 0x49}) // sibling phases
	// pack, then mst on the forked lane beside respect: lane toggles
	// (0x03) interleave the two lanes' begin/end marks.
	f.Add([]byte{0x04, 0x08, 0x31, 0x03, 0x08, 0x03, 0x10, 0x25, 0x23, 0x31, 0x03, 0x2d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		labels := []string{"bfs", "pack", "mst", "level:1", "respect"}
		stats := &congest.Stats{}
		round, delivered, lane := 0, int64(0), 0
		for _, b := range data {
			round += int(b >> 5)         // monotone round clock
			delivered += int64(b>>4) * 3 // monotone message counter
			name := labels[int(b>>2)%len(labels)]
			var label string
			switch {
			case b&3 == 3:
				lane ^= 1 // later marks come from the other lane
				continue
			case b&2 != 0:
				label = name // plain mark, no begin:/end: prefix
			case b&1 == 0:
				label = "begin:" + name
			default:
				label = "end:" + name
			}
			stats.Marks = append(stats.Marks, congest.Mark{
				Label:     label,
				Round:     round,
				Lane:      lane,
				Delivered: delivered,
				Nanos:     int64(round)*1000 + int64(len(stats.Marks)),
			})
		}
		stats.Rounds = round
		stats.Delivered = delivered
		spans := Spans(stats)
		var walk func(s *Span, loRound, hiRound int)
		walk = func(s *Span, loRound, hiRound int) {
			if s.EndRound < s.StartRound {
				t.Fatalf("span %q ends before it starts: [%d, %d]", s.Name, s.StartRound, s.EndRound)
			}
			if s.EndMessages < s.StartMessages {
				t.Fatalf("span %q message count runs backwards: [%d, %d]", s.Name, s.StartMessages, s.EndMessages)
			}
			if s.EndNanos < s.StartNanos {
				t.Fatalf("span %q wall clock runs backwards: [%d, %d]", s.Name, s.StartNanos, s.EndNanos)
			}
			if s.StartRound < loRound || s.EndRound > hiRound {
				t.Fatalf("span %q [%d, %d] escapes its parent [%d, %d]", s.Name, s.StartRound, s.EndRound, loRound, hiRound)
			}
			for _, c := range s.Children {
				walk(c, s.StartRound, s.EndRound)
			}
		}
		for _, s := range spans {
			walk(s, 0, stats.Rounds)
		}
	})
}
