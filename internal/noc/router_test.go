package noc

import (
	"testing"

	"repro/internal/sim"
)

// TestVCSetAnyIn checks the occupancy set's range query against a
// bit-by-bit scan on a three-word set, over ranges that start, end and
// cross at word boundaries.
func TestVCSetAnyIn(t *testing.T) {
	const ids = 150
	rng := sim.NewRNG(5, 1)
	s := make(vcSet, occWords(ids))
	for trial := 0; trial < 200; trial++ {
		for w := range s {
			s[w] = 0
		}
		for k := rng.Intn(4); k > 0; k-- {
			s.add(rng.Intn(ids))
		}
		for lo := 0; lo < ids; lo += 1 + rng.Intn(7) {
			for hi := lo + 1; hi <= ids; hi += 1 + rng.Intn(11) {
				want := false
				for i := lo; i < hi; i++ {
					want = want || s.has(i)
				}
				if got := s.anyIn(lo, hi); got != want {
					t.Fatalf("set %x: anyIn(%d, %d) = %v, want %v", s, lo, hi, got, want)
				}
			}
		}
	}
}
