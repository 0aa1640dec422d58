package main

import (
	"fmt"

	lcds "repro"
)

// flipTarget answers like the program except that it flips the answer of
// one chosen Contains call.
type flipTarget struct {
	target
	calls, flip int
}

func (f *flipTarget) contains(x uint64) (bool, error) {
	got, err := f.target.contains(x)
	f.calls++
	if f.calls == f.flip {
		got = !got
	}
	return got, err
}

// selfTest points the checker at a program that gives one wrong answer
// and requires that exactly that op is counted as failed, and that it is
// left out of the completed and timed ops.
func selfTest() error {
	ks := makeKeys(1024, 7, 1, 64, 256)
	d, err := lcds.NewDynamic(ks.members, 0.25, lcds.WithSeed(7))
	if err != nil {
		return err
	}
	plan := []opKind{opRead, opWrite, opRead, opBatch, opRead, opWrite}
	c := newClient(0, &flipTarget{target: embedTarget{d}, flip: 5}, ks, 7, plan, 20)
	c.recording = true
	for i := 0; i < 4; i++ {
		c.round()
	}
	c.sweep(false)
	if c.attempted != uint64(4*len(plan)+len(c.owned)) || c.failed != 1 || c.wrong != 1 {
		return fmt.Errorf("self-test: checker counted %d failed (%d wrong) of %d ops, want exactly the 1 flipped answer",
			c.failed, c.wrong, c.attempted)
	}
	timed := uint64(0)
	for k := range c.lat {
		timed += c.lat[k].n
	}
	if c.ops != c.attempted-1 || timed != c.ops {
		return fmt.Errorf("self-test: %d ops completed and %d timed of %d attempted, want all but the failed one",
			c.ops, timed, c.attempted)
	}
	return nil
}
