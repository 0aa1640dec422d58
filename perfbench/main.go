// Command perfbench is the repository's benchmark. It runs one named
// workload against the program, checks every answer against a model it
// keeps itself, and prints as its last line one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, measured by a traced window and a layer ladder.
// perfbench/run.sh builds the program and this command from source and runs
// it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation's settings.
type config struct {
	spec    *workloadSpec
	seed    uint64
	seconds time.Duration
	trace   bool
	server  string // lcds-server binary (svc workloads)
	out     string // directory for the span file
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	server := flag.String("server", "", "path to the lcds-server binary")
	out := flag.String("out", ".", "directory the traced run writes its span file to")
	flag.Parse()

	spec := workloadByName(*name)
	if spec == nil {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	if err := selfTest(); err != nil {
		fail(err)
	}
	cfg := config{spec: spec, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, server: *server, out: *out}
	res := &result{Metrics: map[string]metric{}}
	run := runEmbed
	if spec.svc {
		run = runSvc
	}
	ks, err := run(cfg, res)
	if err != nil {
		fail(err)
	}
	want, unreached := endToEnd, []string(nil)
	if cfg.trace {
		runtime.GC()
		_, _, ladderFor := traced(cfg.seconds)
		if err := runLadder(cfg, res, ks, ladderFor); err != nil {
			fail(err)
		}
		want, unreached = perLayer, spec.unreached
	}
	if err := complete(res, want, unreached); err != nil {
		fail(err)
	}
	// Every check the run makes counts as an op; the run is correct only
	// if none of them failed.
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// endToEnd and perLayer name every metric a run reports, with its unit.
var endToEnd = map[string]string{
	"throughput_ops_s": "1/s",
	"read_p50_us":      "us", "read_p99_us": "us",
	"batch_p50_us": "us", "batch_p99_us": "us",
	"write_p50_us": "us", "write_p99_us": "us",
	"cpu_us_per_op": "us",
	"setup_s":       "s",
	"mem_mb":        "MiB",
}

var perLayer = map[string]string{
	"server.handler_read_us":              "us",
	"server.handler_batch_us":             "us",
	"server.handler_write_us":             "us",
	"server.outside_read_us":              "us",
	"server.rebuilds":                     "count",
	"server.rebuild_ms":                   "ms",
	"client.cpu_us_per_op":                "us",
	"facade.contains_ns":                  "ns",
	"facade.self_ns":                      "ns",
	"facade.batch_ns_per_key":             "ns",
	"facade.write_ns":                     "ns",
	"facade.write_absorbed_ns":            "ns",
	"telemetry.contains_overhead_ns":      "ns",
	"telemetry.contains_overhead_s1_ns":   "ns",
	"telemetry.batch_overhead_ns_per_key": "ns",
	"telemetry.probes_per_query":          "count",
	"dynamic.contains_ns":                 "ns",
	"dynamic.self_ns":                     "ns",
	"dynamic.rebuilds":                    "count",
	"dynamic.rebuild_ms":                  "ms",
	"dynamic.write_stalls":                "count",
	"dynamic.write_stall_ms":              "ms",
	"dynamic.write_probes_per_write":      "count",
	"dynamic.cas_retries_per_kwrite":      "count",
	"core.contains_ns":                    "ns",
	"core.batch_ns_per_key":               "ns",
	"core.probes_per_query":               "count",
	"core.build_ms":                       "ms",
	"core.build_allocs_per_key":           "count",
	"core.build_bytes_per_key":            "bytes",
	"core.table_bytes_per_key":            "bytes",
	"cellprobe.probe_ns":                  "ns",
	"shard.contains_ns":                   "ns",
	"shard.self_ns":                       "ns",
	"runtime.gc_cycles":                   "count",
	"runtime.gc_cpu_fraction":             "fraction",
	"runtime.alloc_bytes_per_op":          "bytes",
	"trace.overhead_pct":                  "%",
	"trace.spans":                         "count",
}

// complete checks that every reported metric is one of want with its
// unit, and reports as 0 the metrics named by a prefix in unreached, those
// of layers the workload does not run through (the server's on an
// in-process workload). Any other metric of want left unmeasured is an
// error, so that it cannot read as a 0.
func complete(res *result, want map[string]string, unreached []string) error {
	for name, m := range res.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not in the reported set", name, m.Unit)
		}
	}
	var missing []string
	for name, unit := range want {
		if _, ok := res.Metrics[name]; ok {
			continue
		}
		if !hasPrefix(name, unreached) {
			missing = append(missing, name)
			continue
		}
		res.set(name, unit, 0)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// note prints a reference line (not part of the result).
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
