package main

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	lcds "repro"

	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/rng"
)

// The layer ladder times the same query keys through successively more of
// the program's layers, each rung calling one layer's public function.
// Rungs run interleaved, one block each per repetition, and each metric is
// the median over repetitions (of the rung, or of the per-repetition
// difference between two rungs), so slow drift of the machine cancels out
// of the differences.
const (
	ladderKeys   = 8192 // queries per read rung block
	ladderWrites = 512  // writes per write rung block
	ladderMinRep = 5
	ladderMaxRep = 25
	hotKeys      = 8
)

type rung struct {
	name string
	ops  int
	fn   func() (wrong int)
	ns   []float64
}

// ladder holds the dictionaries the rungs call, all over the workload's
// member keys and seed.
type ladder struct {
	qs   []uint64
	want []bool

	core      *core.Dict
	dyn       *dynamic.Dict
	off, s64  *lcds.DynamicDict
	s1, p4    *lcds.DynamicDict
	writes    *lcds.DynamicDict // ε = 1: no rebuild starts within the rung
	absorbing *lcds.DynamicDict
}

func runLadder(cfg config, res *result, ks *keySets, budget time.Duration) error {
	start := time.Now()
	seed := cfg.seed
	keys := ks.members
	n := float64(len(keys))
	l := &ladder{qs: make([]uint64, ladderKeys), want: make([]bool, ladderKeys)}
	r := splitmix(seed ^ 0x6c6164646572)
	for i := range l.qs {
		if r.next()&1 == 0 {
			l.qs[i], l.want[i] = keys[r.intn(len(keys))], true
		} else {
			l.qs[i] = ks.nonMembers[r.intn(len(ks.nonMembers))]
		}
	}

	// core.Build, measured alone.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	cd, err := core.Build(keys, core.DefaultParams(), seed)
	buildMs := float64(time.Since(t0).Microseconds()) / 1e3
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("core.Build: %w", err)
	}
	l.core = cd
	res.set("core.build_ms", "ms", buildMs)
	res.set("core.build_allocs_per_key", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	res.set("core.build_bytes_per_key", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	res.set("core.table_bytes_per_key", "bytes", float64(cd.Table().HeapCells())*float64(unsafe.Sizeof(cellprobe.Cell{}))/n)

	// Exact probes per query, checked against the §2.3 bound.
	sc := new(core.QueryScratch)
	qr := rng.New(seed)
	probes, worst, failed, over := 0, 0, 0, 0
	for i, x := range l.qs {
		sc.StartCapture()
		got, err := cd.ContainsScratch(x, qr, sc)
		p := 0
		for _, cell := range sc.StopCapture() {
			if cell >= 0 {
				p++
			}
		}
		probes += p
		worst = max(worst, p)
		if err != nil || got != l.want[i] || p > cd.MaxProbes() {
			failed++
		}
		if p > cd.MaxProbes() {
			over++
		}
	}
	res.Attempted += uint64(len(l.qs))
	res.Failed += uint64(failed)
	res.set("core.probes_per_query", "count", float64(probes)/float64(len(l.qs)))
	if over > 0 {
		note("%d core queries made more probes than MaxProbes %d (at most %d)", over, cd.MaxProbes(), worst)
	}

	if l.dyn, err = dynamic.New(keys, dynamic.Params{Epsilon: cfg.spec.eps}, seed); err != nil {
		return err
	}
	build := func(eps float64, opts ...lcds.Option) (*lcds.DynamicDict, error) {
		return lcds.NewDynamic(keys, eps, append([]lcds.Option{lcds.WithSeed(seed)}, opts...)...)
	}
	tel := func(k int) lcds.Option { return lcds.WithTelemetry(lcds.TelemetryConfig{Sample: k, TopK: 10}) }
	if l.off, err = build(cfg.spec.eps); err != nil {
		return err
	}
	if l.s64, err = build(cfg.spec.eps, tel(64)); err != nil {
		return err
	}
	if l.s1, err = build(cfg.spec.eps, tel(1)); err != nil {
		return err
	}
	if l.p4, err = build(cfg.spec.eps, lcds.WithShards(4)); err != nil {
		return err
	}
	if l.writes, err = build(1); err != nil {
		return err
	}
	if l.absorbing, err = build(0.1, lcds.WithWriteAbsorption()); err != nil {
		return err
	}
	hot := ks.owned[1][:hotKeys]
	split, err := promote(l.absorbing, hot)
	if err != nil {
		return fmt.Errorf("promote hot keys: %w", err)
	}
	if !split {
		note("absorbing dictionary never entered a split phase; absorbed writes not measured")
	}

	rungs := l.rungs(seed, ks.owned[0][:ladderWrites/2], hot)
	rt := map[string]*rung{}
	for _, g := range rungs {
		rt[g.name] = g
	}
	reps, wrong := 0, 0
	for ; reps < ladderMaxRep && (reps < ladderMinRep || time.Since(start) < budget); reps++ {
		for _, g := range rungs {
			t := time.Now()
			w := g.fn()
			g.ns = append(g.ns, float64(time.Since(t).Nanoseconds())/float64(g.ops))
			wrong += w
			res.Attempted += uint64(g.ops)
			res.Failed += uint64(w)
		}
	}
	if wrong > 0 {
		note("%d ladder answers disagreed with the model", wrong)
	}
	med := func(name string) float64 { return median(rt[name].ns) }
	diff := func(a, b string) float64 {
		d := make([]float64, reps)
		for i := range d {
			d[i] = rt[a].ns[i] - rt[b].ns[i]
		}
		return median(d)
	}
	res.set("cellprobe.probe_ns", "ns", med("cellprobe.Probe"))
	res.set("core.contains_ns", "ns", med("core.ContainsScratch"))
	res.set("core.batch_ns_per_key", "ns", med("core.ContainsBatch"))
	res.set("dynamic.contains_ns", "ns", med("dynamic.Contains"))
	res.set("dynamic.self_ns", "ns", diff("dynamic.Contains", "core.ContainsScratch"))
	res.set("facade.contains_ns", "ns", med("facade.Contains"))
	res.set("facade.self_ns", "ns", diff("facade.Contains", "dynamic.Contains"))
	res.set("facade.batch_ns_per_key", "ns", med("facade.ContainsBatch"))
	res.set("telemetry.contains_overhead_ns", "ns", diff("facade.Contains/s64", "facade.Contains"))
	res.set("telemetry.contains_overhead_s1_ns", "ns", diff("facade.Contains/s1", "facade.Contains"))
	res.set("telemetry.batch_overhead_ns_per_key", "ns", diff("facade.ContainsBatch/s64", "facade.ContainsBatch"))
	res.set("telemetry.probes_per_query", "count", l.s64.Telemetry().Snapshot().ProbesPerQuery)
	res.set("shard.contains_ns", "ns", med("facade.Contains/p4"))
	res.set("shard.self_ns", "ns", diff("facade.Contains/p4", "facade.Contains"))
	res.set("facade.write_ns", "ns", med("facade.Write"))
	if l.absorbing.Stats().SplitPhase {
		res.set("facade.write_absorbed_ns", "ns", med("facade.Write/absorbed"))
	}
	note("ladder: %d repetitions, %.1fs", reps, time.Since(start).Seconds())
	for _, g := range rungs {
		note("  %-28s %9.1f ns/op", g.name, median(g.ns))
	}
	return nil
}

// promote hammers the hot keys with insert/delete pairs until the
// absorbing dictionary's classifier has promoted them and a split phase
// runs, and leaves every hot key absent.
func promote(d *lcds.DynamicDict, hot []uint64) (bool, error) {
	for i := 0; i < 400 && !d.Stats().SplitPhase; i++ {
		for _, k := range hot {
			if _, err := d.Insert(k); err != nil {
				return false, err
			}
			if _, err := d.Delete(k); err != nil {
				return false, err
			}
		}
		if i%8 == 7 {
			d.Quiesce()
		}
	}
	d.Quiesce()
	return d.Stats().SplitPhase, nil
}

func (l *ladder) rungs(seed uint64, writeKeys, hot []uint64) []*rung {
	check := func(f func(uint64) (bool, error)) func() int {
		return func() int {
			wrong := 0
			for i, x := range l.qs {
				if got, err := f(x); err != nil || got != l.want[i] {
					wrong++
				}
			}
			return wrong
		}
	}
	out := make([]bool, batchSize)
	checkBatch := func(f func(keys []uint64, out []bool) error) func() int {
		return func() int {
			wrong := 0
			for lo := 0; lo < len(l.qs); lo += batchSize {
				if f(l.qs[lo:lo+batchSize], out) != nil {
					wrong++
					continue
				}
				for i, got := range out {
					if got != l.want[lo+i] {
						wrong++
					}
				}
			}
			return wrong
		}
	}
	// writeBlock inserts then deletes every key; every call must change
	// the set.
	writeBlock := func(d *lcds.DynamicDict, ks []uint64, times int) func() int {
		return func() int {
			wrong := 0
			for t := 0; t < times; t++ {
				for _, del := range []bool{false, true} {
					for _, k := range ks {
						var ch bool
						var err error
						if del {
							ch, err = d.Delete(k)
						} else {
							ch, err = d.Insert(k)
						}
						if err != nil || !ch {
							wrong++
						}
					}
				}
			}
			return wrong
		}
	}

	tab := l.core.Table()
	pr := splitmix(seed ^ 0x70726f6265)
	cells := make([][2]int, ladderKeys)
	for i := range cells {
		cells[i] = [2]int{pr.intn(tab.Rows()), pr.intn(tab.Width())}
	}
	coreRNG, dynRNG := rng.New(seed+1), rng.New(seed+2)
	sc := new(core.QueryScratch)
	return []*rung{
		{name: "cellprobe.Probe", ops: len(cells), fn: func() int {
			for _, c := range cells {
				probeSink ^= tab.Probe(0, c[0], c[1]).Lo
			}
			return 0
		}},
		{name: "core.ContainsScratch", ops: len(l.qs), fn: check(func(x uint64) (bool, error) { return l.core.ContainsScratch(x, coreRNG, sc) })},
		{name: "dynamic.Contains", ops: len(l.qs), fn: check(func(x uint64) (bool, error) { return l.dyn.Contains(x, dynRNG) })},
		{name: "facade.Contains", ops: len(l.qs), fn: check(l.off.Contains)},
		{name: "facade.Contains/s64", ops: len(l.qs), fn: check(l.s64.Contains)},
		{name: "facade.Contains/s1", ops: len(l.qs), fn: check(l.s1.Contains)},
		{name: "facade.Contains/p4", ops: len(l.qs), fn: check(l.p4.Contains)},
		{name: "core.ContainsBatch", ops: len(l.qs), fn: checkBatch(func(k []uint64, o []bool) error { return l.core.ContainsBatch(k, o, coreRNG, sc) })},
		{name: "facade.ContainsBatch", ops: len(l.qs), fn: checkBatch(l.off.ContainsBatch)},
		{name: "facade.ContainsBatch/s64", ops: len(l.qs), fn: checkBatch(l.s64.ContainsBatch)},
		{name: "facade.Write", ops: 2 * len(writeKeys), fn: writeBlock(l.writes, writeKeys, 1)},
		{name: "facade.Write/absorbed", ops: 2 * len(hot) * (ladderWrites / (2 * len(hot))), fn: writeBlock(l.absorbing, hot, ladderWrites/(2*len(hot)))},
	}
}

// probeSink keeps the probe rung's reads live.
var probeSink uint64
