package main

import (
	"time"

	lcds "repro"

	"repro/internal/workload"
)

// target is the program as one client sees it: an HTTP connection to
// lcds-server or the in-process facade. Every call is one op.
type target interface {
	contains(x uint64) (bool, error)
	batch(keys []uint64, got []bool) error
	write(x uint64, del bool) (bool, error)
}

// splitmix is the benchmark's own RNG (SplitMix64): the program never sees
// it, so its inputs depend only on --seed.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// keySets holds a workload's inputs. Members come from the same derivation
// lcds-server uses (workload.MemberKeys), so the server and the benchmark
// agree on the set without talking. Non-members and each client's owned
// write keys are drawn by the benchmark's RNG and rejected if they collide
// with a member or with each other.
type keySets struct {
	members    []uint64
	nonMembers []uint64
	owned      [][]uint64
}

func makeKeys(n int, seed uint64, clients, owned, nonMembers int) *keySets {
	ks := &keySets{members: workload.MemberKeys(n, seed)}
	taken := make(map[uint64]struct{}, n+clients*owned+nonMembers)
	for _, k := range ks.members {
		taken[k] = struct{}{}
	}
	r := splitmix(seed ^ 0x6c63647362656e63)
	draw := func(count int) []uint64 {
		out := make([]uint64, 0, count)
		for len(out) < count {
			k := r.next() % lcds.MaxKey
			if _, dup := taken[k]; dup {
				continue
			}
			taken[k] = struct{}{}
			out = append(out, k)
		}
		return out
	}
	for c := 0; c < clients; c++ {
		ks.owned = append(ks.owned, draw(owned))
	}
	ks.nonMembers = draw(nonMembers)
	return ks
}

type opKind uint8

const (
	opRead opKind = iota
	opBatch
	opWrite
	opKinds
)

var opNames = [...]string{"read", "batch", "write"}

// batchSize is the key count of one batch op.
const batchSize = 64

// stallNs is the write latency above which a write counts as stalled.
const stallNs = int64(time.Millisecond)

// client is one closed-loop caller. It owns a disjoint set of write keys
// and tracks their membership itself, so every answer it receives is known
// exactly even while other clients run.
type client struct {
	id      int
	t       target
	r       splitmix
	ks      *keySets
	owned   []uint64
	present []bool
	// ownedReads is the percentage of read keys drawn from the client's
	// owned keys; the rest split evenly between members and non-members.
	ownedReads int
	plan       []opKind

	batchKeys []uint64
	batchWant []bool
	batchGot  []bool

	lat       [opKinds]hist
	ops       uint64 // ops completed without failing while recording
	attempted uint64
	failed    uint64
	wrong     uint64 // failed ops whose answer was wrong (not an error)
	stalls    uint64
	stallSum  int64
	recording bool

	spans *spanBuf
}

func newClient(id int, t target, ks *keySets, seed uint64, plan []opKind, ownedReads int) *client {
	c := &client{
		id:         id,
		t:          t,
		r:          splitmix(seed*0x100000001b3 + uint64(id) + 1),
		ks:         ks,
		owned:      ks.owned[id],
		present:    make([]bool, len(ks.owned[id])),
		ownedReads: ownedReads,
		plan:       plan,
		batchKeys:  make([]uint64, batchSize),
		batchWant:  make([]bool, batchSize),
		batchGot:   make([]bool, batchSize),
	}
	return c
}

// pickRead draws one read key and its expected answer.
func (c *client) pickRead() (uint64, bool) {
	if c.ownedReads > 0 && c.r.intn(100) < c.ownedReads {
		i := c.r.intn(len(c.owned))
		return c.owned[i], c.present[i]
	}
	if c.r.next()&1 == 0 {
		return c.ks.members[c.r.intn(len(c.ks.members))], true
	}
	return c.ks.nonMembers[c.r.intn(len(c.ks.nonMembers))], false
}

// finish accounts one op. An op that returned an error or a wrong answer
// counts as failed and adds nothing to the latencies or the completed ops,
// so a failing op kind cannot read as a faster or busier one.
func (c *client) finish(k opKind, start, end time.Time, err error, ok bool) {
	c.attempted++
	good := err == nil && ok
	if !good {
		c.failed++
		if err == nil {
			c.wrong++
		}
	}
	if !c.recording {
		return
	}
	if c.spans != nil {
		c.spans.op(k, start, end, c.t)
	}
	if !good {
		return
	}
	ns := end.Sub(start).Nanoseconds()
	c.lat[k].record(ns)
	if k == opWrite && ns > stallNs {
		c.stalls++
		c.stallSum += ns
	}
	c.ops++
}

func (c *client) read() {
	x, want := c.pickRead()
	start := time.Now()
	got, err := c.t.contains(x)
	c.finish(opRead, start, time.Now(), err, got == want)
}

func (c *client) batch() {
	for i := range c.batchKeys {
		c.batchKeys[i], c.batchWant[i] = c.pickRead()
	}
	start := time.Now()
	err := c.t.batch(c.batchKeys, c.batchGot)
	end := time.Now()
	ok := true
	for i, w := range c.batchWant {
		ok = ok && c.batchGot[i] == w
	}
	c.finish(opBatch, start, end, err, ok)
}

// write inserts or deletes (a fair coin) one owned key, drawn uniformly.
func (c *client) write() {
	i := c.r.intn(len(c.owned))
	del := c.r.next()&1 == 0
	want := c.present[i] == del
	start := time.Now()
	changed, err := c.t.write(c.owned[i], del)
	end := time.Now()
	if err == nil {
		c.present[i] = !del
	}
	c.finish(opWrite, start, end, err, changed == want)
}

func (c *client) round() {
	for _, k := range c.plan {
		switch k {
		case opRead:
			c.read()
		case opBatch:
			c.batch()
		case opWrite:
			c.write()
		}
	}
}

// runUntil runs whole rounds until deadline (or, when tracing, until the
// span buffer could not hold another round), recording when asked.
func (c *client) runUntil(deadline time.Time, record bool) {
	c.recording = record
	for {
		if c.spans != nil && !c.spans.room(len(c.plan)) {
			break
		}
		c.round()
		if !time.Now().Before(deadline) {
			break
		}
	}
	c.recording = false
}

// sweep re-reads every owned key after the window and checks it against
// the model; with batched set, it reads them 64 at a time.
func (c *client) sweep(batched bool) {
	if !batched {
		for i, x := range c.owned {
			start := time.Now()
			got, err := c.t.contains(x)
			c.finish(opRead, start, time.Now(), err, got == c.present[i])
		}
		return
	}
	for lo := 0; lo < len(c.owned); lo += batchSize {
		hi := min(lo+batchSize, len(c.owned))
		start := time.Now()
		err := c.t.batch(c.owned[lo:hi], c.batchGot[:hi-lo])
		end := time.Now()
		ok := true
		for i := lo; i < hi; i++ {
			ok = ok && c.batchGot[i-lo] == c.present[i]
		}
		c.finish(opBatch, start, end, err, ok)
	}
}

// presentCount is the number of owned keys the model holds as members.
func (c *client) presentCount() int {
	n := 0
	for _, p := range c.present {
		if p {
			n++
		}
	}
	return n
}
