//go:build race

package core

import (
	"testing"

	"repro/internal/rng"
)

// TestBuildAllocs (race build): an instrumented binary's allocation counts
// are not the ones production builds pay, so the race build constructs the
// same n = 16384 dictionary for correctness only — the self-check inside
// Build answers every key. The !race build asserts the allocation bound.
func TestBuildAllocs(t *testing.T) {
	keys := distinctKeys(rng.New(41), 16384)
	if _, err := Build(keys, Params{}, 5); err != nil {
		t.Fatal(err)
	}
}
