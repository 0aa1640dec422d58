package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	lcds "repro"
)

// clients is the number of closed-loop callers: one per core of the
// two-core machine the bounds were derived on.
const clients = 2

// nonMemberPool is the number of distinct non-member read keys.
const nonMemberPool = 1 << 16

// setups is how many times a run sets the program up; setup_s is the median.
// One set-up takes about 80 ms, so many of them cost little and keep one
// slow set-up from moving the figure.
const setups = 15

// slices is how many consecutive slices the timed window is cut into. Each
// end-to-end figure is the median over the quiet slices (see quiet), so a
// burst of noise from the machine moves few of them.
const slices = 12

// warmup runs the workload untimed before the window.
const warmup = time.Second

type workloadSpec struct {
	name string
	svc  bool
	n    int
	// eps is the dynamic buffer fraction ε; sample the server's telemetry
	// 1-in-k probe sampling (the in-process workload runs without telemetry).
	eps    float64
	sample int
	// plan is one round of ops per client; ownedReads the percentage of read
	// keys drawn from the client's owned write keys.
	plan       []opKind
	ownedReads int
	owned      int // write keys per client
	// unreached prefixes the per-layer metrics of layers the workload does
	// not run through; they are reported as 0. Any other per-layer metric
	// a run leaves unmeasured fails the run.
	unreached []string
}

var workloadSpecs = []*workloadSpec{
	{
		name: "svc-mixed", svc: true, n: 1 << 14, eps: 0.1, sample: 64,
		// 80% /contains, 10% /batch, 10% /insert or /delete.
		plan:  []opKind{opRead, opRead, opRead, opRead, opWrite, opRead, opRead, opRead, opRead, opBatch},
		owned: 4096,
	},
	{
		name: "embed-churn", n: 1 << 14, eps: 0.1,
		// 50% Insert/Delete; reads single and batched.
		plan: []opKind{opWrite, opRead, opWrite, opRead, opWrite, opRead, opWrite, opRead,
			opWrite, opRead, opWrite, opRead, opWrite, opRead, opWrite, opBatch},
		ownedReads: 20, owned: 2048,
		unreached: []string{"server.", "client."},
	},
}

func workloadByName(name string) *workloadSpec {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, s := range workloadSpecs {
		out = append(out, s.name)
	}
	return out
}

// window runs every client closed loop for d (whole rounds) and returns
// the elapsed wall time.
func window(cs []*client, d time.Duration, record bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.runUntil(deadline, record)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// tally is the merged outcome of all clients.
type tally struct {
	lat               [opKinds]hist
	ops               uint64
	stalls            uint64
	stallSum          int64
	attempted, failed uint64
	wrong             uint64
}

func merge(cs []*client) *tally {
	t := &tally{}
	for _, c := range cs {
		for k := range t.lat {
			t.lat[k].merge(&c.lat[k])
		}
		t.ops += c.ops
		t.stalls += c.stalls
		t.stallSum += c.stallSum
		t.attempted += c.attempted
		t.failed += c.failed
		t.wrong += c.wrong
	}
	return t
}

// add folds the latency and op counts of o into t.
func (t *tally) add(o *tally) {
	for k := range t.lat {
		t.lat[k].merge(&o.lat[k])
	}
	t.ops += o.ops
	t.stalls += o.stalls
	t.stallSum += o.stallSum
}

// resetStats clears the clients' latency and op counts (outcome counts
// keep accumulating).
func resetStats(cs []*client) {
	for _, c := range cs {
		c.lat = [opKinds]hist{}
		c.ops, c.stalls, c.stallSum = 0, 0, 0
	}
}

// account adds the clients' attempted and failed ops to res.
func account(res *result, cs []*client) {
	t := merge(cs)
	res.Attempted += t.attempted
	res.Failed += t.failed
	if t.failed > 0 {
		note("%d ops failed: %d answers disagreed with the model, %d calls returned an error",
			t.failed, t.wrong, t.failed-t.wrong)
	}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is a point-in-time read of this process's Go runtime.
type rtSnap struct {
	gcs          uint32
	alloc        uint64
	gcCPU, total float64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSnap{gcs: ms.NumGC, alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func setRuntime(res *result, a, b rtSnap, ops uint64) {
	res.set("runtime.gc_cycles", "count", float64(b.gcs-a.gcs))
	frac := 0.0
	if b.total > a.total {
		frac = (b.gcCPU - a.gcCPU) / (b.total - a.total)
	}
	res.set("runtime.gc_cpu_fraction", "fraction", frac)
	res.set("runtime.alloc_bytes_per_op", "bytes", float64(b.alloc-a.alloc)/float64(max(ops, 1)))
}

// sliceStat is one slice of a timed window.
type sliceStat struct {
	t       *tally
	elapsed time.Duration
	cpu     time.Duration // the program's CPU time
	steal   float64       // share of the machine's CPU time stolen by the hypervisor
}

// measure runs the timed window of length d as consecutive slices,
// reading the program's CPU time around each, and returns the slices and
// their sum. The clients' latency statistics are left empty. A slice in
// which some op kind of the plan never succeeded has no latency to report
// for it, and fails the run.
func measure(cs []*client, d time.Duration, cpu func() (time.Duration, error)) ([]sliceStat, *tally, error) {
	total := &tally{}
	var out []sliceStat
	steal0, all0 := procSteal()
	prevSteal, prevAll := steal0, all0
	for i := 0; i < slices; i++ {
		resetStats(cs)
		c0, err := cpu()
		if err != nil {
			return nil, nil, err
		}
		elapsed := window(cs, d/slices, true)
		c1, err := cpu()
		if err != nil {
			return nil, nil, err
		}
		t := merge(cs)
		for _, k := range cs[0].plan {
			if t.lat[k].n == 0 {
				return nil, nil, fmt.Errorf("no %s op succeeded in slice %d of the window", opNames[k], i+1)
			}
		}
		total.add(t)
		steal, all := procSteal()
		out = append(out, sliceStat{t: t, elapsed: elapsed, cpu: c1 - c0, steal: share(steal-prevSteal, all-prevAll)})
		prevSteal, prevAll = steal, all
	}
	resetStats(cs)
	note("cpu time stolen by the hypervisor during the window: %.1f%%", 100*share(prevSteal-steal0, prevAll-all0))
	return out, total, nil
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// quietSteal is the share of CPU time the hypervisor may steal from a slice
// before the slice counts as disturbed.
const quietSteal = 0.02

// quiet returns the slices the hypervisor disturbed least: every slice
// that lost at most quietSteal of its CPU time, or, when fewer than half
// did, the least-stolen half. On this machine a slice's tail latency rises
// with the time stolen from it (read p99 from about 450 µs at no steal to
// over 2 ms at 20–30% on svc-mixed), and steal comes in bursts of seconds
// that the program does not cause.
func quiet(sl []sliceStat) []sliceStat {
	out := append([]sliceStat(nil), sl...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].steal < out[j].steal })
	keep := (len(out) + 1) / 2
	for keep < len(out) && out[keep].steal <= quietSteal {
		keep++
	}
	return out[:keep]
}

// procSteal returns the machine's steal and total CPU ticks from /proc/stat
// (zeros where it cannot be read).
func procSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// setEndToEnd reports the end-to-end metrics, each the median over the
// window's quiet slices.
func setEndToEnd(res *result, sl []sliceStat, setup []float64, memMB float64) {
	sl = quiet(sl)
	note("end-to-end figures over %d of %d slices", len(sl), slices)
	med := func(f func(s sliceStat) float64) float64 {
		xs := make([]float64, len(sl))
		for i, s := range sl {
			xs[i] = f(s)
		}
		return median(xs)
	}
	res.set("throughput_ops_s", "1/s", med(func(s sliceStat) float64 { return float64(s.t.ops) / s.elapsed.Seconds() }))
	for k, name := range opNames {
		if sl[0].t.lat[k].n == 0 {
			continue // not in the plan; complete() refuses the run
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.5}, {"_p99_us", 0.99}} {
			v := med(func(s sliceStat) float64 { return s.t.lat[k].quantile(q.q) })
			res.set(name+q.suffix, "us", v/1e3)
		}
	}
	res.set("cpu_us_per_op", "us", med(func(s sliceStat) float64 { return float64(s.cpu.Nanoseconds()) / 1e3 / float64(max(s.t.ops, 1)) }))
	res.set("setup_s", "s", median(setup))
	res.set("mem_mb", "MiB", memMB)
}

func printLatencies(t *tally) {
	for k, name := range opNames {
		note("%-5s %s", name, t.lat[k].String())
	}
}

// traced splits a traced run's time: an untraced window (per-layer figures
// that ride on the workload and the tracing baseline), a traced window,
// and the layer ladder.
func traced(total time.Duration) (plain, spans, ladder time.Duration) {
	return total * 3 / 10, total * 2 / 10, total * 5 / 10
}

// spanCap bounds each client's span buffer (40 bytes a span).
const spanCap = 1 << 19

// tracePairs is how many (untraced, traced) slice pairs the tracing
// overhead is the median over.
const tracePairs = 4

// tracedWindow alternates untraced and traced slices of d/(2·tracePairs)
// each, records a span for every call in the traced ones, writes the span
// file, and reports the tracing overhead as the median over pairs of the
// untraced rate over the traced rate.
func tracedWindow(cfg config, res *result, cs []*client, d time.Duration) error {
	base := time.Now()
	bufs := make([]*spanBuf, len(cs))
	for i, c := range cs {
		bufs[i] = newSpanBuf(base, c.id, spanCap)
	}
	slice := d / (2 * tracePairs)
	var overhead []float64
	var tracedFor time.Duration
	for p := 0; p < tracePairs; p++ {
		resetStats(cs)
		plain := window(cs, slice, true)
		plainRate := float64(merge(cs).ops) / plain.Seconds()
		resetStats(cs)
		for i, c := range cs {
			c.spans = bufs[i]
		}
		traced := window(cs, slice, true)
		for _, c := range cs {
			c.spans = nil
		}
		tracedFor += traced
		overhead = append(overhead, (plainRate/(float64(merge(cs).ops)/traced.Seconds())-1)*100)
	}
	resetStats(cs)
	ops := 0
	for _, b := range bufs {
		ops += b.opSpans()
	}
	res.set("trace.overhead_pct", "%", median(overhead))
	res.set("trace.spans", "count", float64(ops))
	path := filepath.Join(cfg.out, "spans-"+cfg.spec.name+".csv")
	if err := writeSpans(path, bufs); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	note("spans: %d ops over %.2fs written to %s", ops, tracedFor.Seconds(), path)
	return nil
}

// runSvc runs svc-mixed: a fresh lcds-server per run, driven over
// keep-alive HTTP/1.1 connections.
func runSvc(cfg config, res *result) (*keySets, error) {
	spec := cfg.spec
	if cfg.server == "" {
		return nil, errors.New("svc workloads need -server")
	}
	ks := makeKeys(spec.n, cfg.seed, clients, spec.owned, nonMemberPool)
	args := []string{"-n", strconv.Itoa(spec.n), "-seed", strconv.FormatUint(cfg.seed, 10),
		"-sample", strconv.Itoa(spec.sample), "-epsilon", strconv.FormatFloat(spec.eps, 'g', -1, 64)}
	// setup_s comes from every start; the last server serves.
	var setup, ready []float64
	var srv *server
	for i := 0; i < setups; i++ {
		s, d, err := startServer(cfg.server, args...)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		mem, err := peakRSS(strconv.Itoa(s.cmd.Process.Pid))
		if err != nil {
			s.stop()
			return nil, err
		}
		ready = append(ready, mem)
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	cs := make([]*client, clients)
	for i := range cs {
		conn, err := dialHTTP(srv.addr)
		if err != nil {
			return nil, err
		}
		defer conn.conn.Close()
		cs[i] = newClient(i, conn, ks, cfg.seed, spec.plan, spec.ownedReads)
	}
	window(cs, warmup, false)

	length := cfg.seconds
	if cfg.trace {
		length, _, _ = traced(cfg.seconds)
	}
	m0, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	rss, err := sampleRSS(strconv.Itoa(pid), length)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	sl, t, err := measure(cs, length, func() (time.Duration, error) { return procCPU(pid) })
	if err != nil {
		return nil, err
	}
	self := selfCPU() - self0
	mem, err := rss.median()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	m1, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	peak, err := peakRSS(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	var server time.Duration
	for _, s := range sl {
		server += s.cpu
	}
	printLatencies(t)
	note("server VmRSS median %.1f MiB over the window; VmHWM %.1f MiB at ready (median of %d starts), %.1f MiB after the window",
		mem, median(ready), setups, peak)
	note("server cpu %.2fus/op, client cpu %.2fus/op", float64(server.Microseconds())/float64(t.ops),
		float64(self.Microseconds())/float64(t.ops))

	if !cfg.trace {
		setEndToEnd(res, sl, setup, mem)
	} else {
		delta := func(series string) float64 { return m1[series] - m0[series] }
		mean := func(handlers ...string) float64 {
			var sum, n float64
			for _, h := range handlers {
				sum += delta(`lcds_http_request_ns_sum{handler="` + h + `"}`)
				n += delta(`lcds_http_request_ns_count{handler="` + h + `"}`)
			}
			return sum / max(n, 1) / 1e3
		}
		read := mean("contains")
		res.set("server.handler_read_us", "us", read)
		res.set("server.handler_batch_us", "us", mean("batch"))
		res.set("server.handler_write_us", "us", mean("insert", "delete"))
		res.set("server.outside_read_us", "us", t.lat[opRead].quantile(0.5)/1e3-read)
		res.set("client.cpu_us_per_op", "us", float64(self.Microseconds())/float64(max(t.ops, 1)))
		writes := float64(t.lat[opWrite].n)
		res.set("dynamic.write_probes_per_write", "count", delta(`lcds_claim_probes_total{shard="0"}`)/max(writes, 1))
		res.set("dynamic.cas_retries_per_kwrite", "count", delta(`lcds_cas_retries_total{shard="0"}`)*1000/max(writes, 1))
		setStalls(res, t)
		setRuntime(res, rt0, rt1, t.ops)
		_, spansFor, _ := traced(cfg.seconds)
		if err := tracedWindow(cfg, res, cs, spansFor); err != nil {
			return nil, err
		}
		// Rebuilds are rare here, so they are counted over both windows.
		m2, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		rebuilds := m2[`lcds_rebuilds_total{shard="0"}`] - m0[`lcds_rebuilds_total{shard="0"}`]
		rebuildNs := m2[`lcds_rebuild_ns_sum{shard="0"}`] - m0[`lcds_rebuild_ns_sum{shard="0"}`]
		res.set("server.rebuilds", "count", rebuilds)
		res.set("dynamic.rebuilds", "count", rebuilds)
		if rebuilds > 0 {
			res.set("server.rebuild_ms", "ms", rebuildNs/rebuilds/1e6)
		}
		durs, err := srv.rebuildDurations()
		if err != nil {
			return nil, err
		}
		setMean(res, "dynamic.rebuild_ms", "ms", durs)
	}
	for _, c := range cs {
		c.sweep(true)
	}
	account(res, cs)
	return ks, nil
}

// setMean reports the mean of xs, and nothing when xs is empty: no
// sample is not a zero.
func setMean(res *result, name, unit string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	res.set(name, unit, s/float64(len(xs)))
}

func setStalls(res *result, t *tally) {
	res.set("dynamic.write_stalls", "count", float64(t.stalls))
	res.set("dynamic.write_stall_ms", "ms", float64(t.stallSum)/1e6)
}

// embedTarget is the in-process facade.
type embedTarget struct{ d *lcds.DynamicDict }

func (e embedTarget) contains(x uint64) (bool, error)       { return e.d.Contains(x) }
func (e embedTarget) batch(keys []uint64, got []bool) error { return e.d.ContainsBatch(keys, got) }
func (e embedTarget) write(x uint64, del bool) (bool, error) {
	if del {
		return e.d.Delete(x)
	}
	return e.d.Insert(x)
}

func embedOptions(seed uint64, trace bool) []lcds.Option {
	opts := []lcds.Option{lcds.WithSeed(seed)}
	if trace {
		// The flight recorder, for rebuild durations from the timeline.
		opts = append(opts, lcds.WithEventLog(lcds.EventLogConfig{TimelineCapacity: 1 << 14}))
	}
	return opts
}

// runEmbed runs an in-process workload on the lcds.DynamicDict facade.
func runEmbed(cfg config, res *result) (*keySets, error) {
	spec := cfg.spec
	ks := makeKeys(spec.n, cfg.seed, clients, spec.owned, nonMemberPool)
	opts := embedOptions(cfg.seed, cfg.trace)
	var setup []float64
	var d *lcds.DynamicDict
	for i := 0; i < setups; i++ {
		d = nil
		runtime.GC()
		start := time.Now()
		var err error
		d, err = lcds.NewDynamic(ks.members, spec.eps, opts...)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(i, embedTarget{d}, ks, cfg.seed, spec.plan, spec.ownedReads)
	}
	window(cs, warmup, false)
	d.Quiesce()
	// Collect, and hand the set-ups' garbage back to the OS, so the window's
	// resident memory is the dictionary's and not what earlier builds left.
	debug.FreeOSMemory()

	length := cfg.seconds
	if cfg.trace {
		length, _, _ = traced(cfg.seconds)
	}
	st0 := d.Stats()
	rt0 := readRuntime()
	rss, err := sampleRSS("self", length)
	if err != nil {
		return nil, err
	}
	sl, t, err := measure(cs, length, func() (time.Duration, error) { return selfCPU(), nil })
	if err != nil {
		return nil, err
	}
	mem, err := rss.median()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	peak, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	st1 := d.Stats()
	var cpu time.Duration
	for _, s := range sl {
		cpu += s.cpu
	}
	printLatencies(t)
	note("cpu %.3fus/op, rebuilds %d, gc cycles %d", float64(cpu.Microseconds())/float64(t.ops),
		st1.Epochs-st0.Epochs, rt1.gcs-rt0.gcs)
	note("VmRSS median %.1f MiB over the window, VmHWM %.1f MiB", mem, peak)

	if !cfg.trace {
		setEndToEnd(res, sl, setup, mem)
	} else {
		writes := float64(t.lat[opWrite].n)
		res.set("dynamic.rebuilds", "count", float64(st1.Epochs-st0.Epochs))
		res.set("dynamic.write_probes_per_write", "count", float64(st1.WriteProbes-st0.WriteProbes)/max(writes, 1))
		res.set("dynamic.cas_retries_per_kwrite", "count", float64(st1.WriteCASRetries-st0.WriteCASRetries)*1000/max(writes, 1))
		setStalls(res, t)
		setRuntime(res, rt0, rt1, t.ops)
		_, spansFor, _ := traced(cfg.seconds)
		if err := tracedWindow(cfg, res, cs, spansFor); err != nil {
			return nil, err
		}
		var durs []float64
		evs, _ := d.Timeline(0, 1<<20)
		for _, e := range evs {
			if e.Type == lcds.EventRebuildEnd {
				durs = append(durs, float64(e.C)/1e6)
			}
		}
		setMean(res, "dynamic.rebuild_ms", "ms", durs)
	}
	for _, c := range cs {
		c.sweep(false)
	}
	d.Quiesce()
	want := len(ks.members)
	for _, c := range cs {
		want += c.presentCount()
	}
	res.Attempted++
	if got := d.Len(); got != want {
		res.Failed++
		note("Len() = %d after the window, model holds %d", got, want)
	}
	account(res, cs)
	return ks, nil
}
