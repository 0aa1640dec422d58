//go:build !race

package core

import (
	"testing"

	"repro/internal/rng"
)

// TestBuildAllocs guards the allocation-light construction path: a build at
// n = 16384 must stay at or below 0.25 heap allocations per key (the table
// rows, the layout's per-build vectors and one histogram per group; the
// self-check shares one query scratch across all keys). The race build
// replaces this with a correctness-only pass — see
// buildallocs_race_test.go.
func TestBuildAllocs(t *testing.T) {
	const n = 16384
	keys := distinctKeys(rng.New(41), n)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(keys, Params{}, 5); err != nil {
			t.Fatal(err)
		}
	})
	if perKey := allocs / n; perKey > 0.25 {
		t.Fatalf("Build allocates %.0f objects at n=%d (%.3f per key), want ≤ 0.25 per key", allocs, n, perKey)
	}
}
