// Command perfbench is the SimFS benchmark. It drives the program from
// outside, through its public packages: dvlib/ioshim clients over
// loopback TCP to in-process server.Stack daemons (optionally behind a
// fed.Router), and core.Virtualizer on the des.Engine. Each run measures
// one workload for a fixed time and prints, as its last line, one JSON
// object with the accesses attempted and failed, whether every output and
// property check held, and the metrics: the end-to-end metrics of
// BENCHMARK.json, or with -trace 1 the per-layer ones.
//
//	perfbench -workload warm-scan -seed 1 -seconds 25 -trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads in the order "-workload all" runs them.
var workloads = []string{"warm-scan", "warm-scan-routed", "resim-mixed", "des-ecmwf"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"access_per_s", "1/s"},
	{"hit_access_p50_us", "us"},
	{"cpu_us_per_access", "us"},
	{"rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"ioshim.open_p50_us", "us"},
	{"ioshim.read_p50_us", "us"},
	{"ioshim.meanvar_p50_us", "us"},
	{"ioshim.close_p50_us", "us"},
	{"server.ops_per_access", "count"},
	{"server.open_service_p50_us", "us"},
	{"server.subscribe_service_p50_us", "us"},
	{"server.release_service_p50_us", "us"},
	{"server.conn_reads_per_access", "count"},
	{"server.conn_writes_per_access", "count"},
	{"server.bytes_in_per_access", "B"},
	{"server.bytes_out_per_access", "B"},
	{"netproto.encode_ns_per_frame", "ns"},
	{"netproto.decode_ns_per_frame", "ns"},
	{"netproto.bytes_per_frame", "B"},
	{"fed.peer_reads_per_access", "count"},
	{"fed.peer_writes_per_access", "count"},
	{"core.open_p50_ns", "ns"},
	{"core.release_p50_ns", "ns"},
	{"core.waitfile_p50_ns", "ns"},
	{"core.event_p50_ns", "ns"},
	{"core.hit_ratio", "ratio"},
	{"core.lock_contended_ratio", "ratio"},
	{"core.lock_wait_us_per_access", "us"},
	{"core.retries", "count"},
	{"cache.evictions_per_access", "count"},
	{"sched.submitted", "count"},
	{"sched.queued", "count"},
	{"sched.dropped", "count"},
	{"sched.demand_wait_s", "s"},
	{"sched.demand_wait_us_per_resim", "us"},
	{"prefetch.launches", "count"},
	{"prefetch.kills", "count"},
	{"prefetch.dropped", "count"},
	{"simulator.launch_p50_ns", "ns"},
	{"simulator.useful_step_ratio", "ratio"},
	{"simulator.steps_per_resim", "steps"},
	{"vfs.write_p50_us", "us"},
	{"vfs.used_mb", "MiB"},
	{"notify.publish_to_deliver_p50_us", "us"},
	{"notify.delivered_per_resim", "count"},
	{"des.events", "count"},
	{"des.ns_per_event", "ns"},
	{"proc.allocs_per_access", "count"},
	{"proc.alloc_bytes_per_access", "B"},
	{"proc.gc_cycles", "count"},
	{"workload.resim_access_p50_us", "us"},
	{"workload.virtual_completion_p50_s", "s"},
	{"workload.resim_steps", "steps"},
	{"workload.restarts", "count"},
	{"workload.traced_access_per_s", "1/s"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
	spanDir  string
	// corrupt, when set, alters the expected values before the run (the
	// self-test's deliberately wrong expectation).
	corrupt func(expect map[string]meanVar)
}

// report is one workload run's result.
type report struct {
	workload          string
	correct           bool
	attempted, failed int64
	firstErr          string
	violations        []string
	metrics           map[string]float64
	// notes are reference figures printed but not reported as metrics
	// (tails with their sample counts, workload-specific outcomes).
	notes    []string
	spanFile string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args, runs the workload(s) and returns the exit code: 0 only
// when every access succeeded and every check held.
func run(args []string, stdout, stderr io.Writer, corrupt func(map[string]meanVar)) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{corrupt: corrupt}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/work", "scratch directory for the daemons' storage areas")
	fs.StringVar(&o.spanDir, "span-dir", ".bench_build/spans", "where traced runs write their spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	} else if !known(o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err := prepareWorkDir(o.workDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var reps []*report
	for _, name := range names {
		o.workload = name
		rep, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, rep, o.trace)
		reps = append(reps, rep)
	}
	code := 0
	for _, r := range reps {
		if !r.correct || r.failed > 0 {
			code = 1
		}
	}
	enc := json.NewEncoder(stdout)
	if len(reps) == 1 {
		_ = enc.Encode(toJSON(reps[0], o.trace, ""))
		return code
	}
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reps {
		j := toJSON(r, o.trace, r.workload+"/")
		all.Correct = all.Correct && j.Correct
		all.Attempted += j.Attempted
		all.Failed += j.Failed
		for k, v := range j.Metrics {
			all.Metrics[k] = v
		}
	}
	_ = enc.Encode(all)
	return code
}

// prepareWorkDir creates the work directory and removes the storage
// areas an interrupted earlier run left in it.
func prepareWorkDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		stale, err := filepath.Glob(filepath.Join(dir, w+"-*"))
		if err != nil {
			return err
		}
		for _, p := range stale {
			if err := os.RemoveAll(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

func runWorkload(o options) (*report, error) {
	if o.workload == "des-ecmwf" {
		return runDES(o)
	}
	return runLive(o)
}

func toJSON(r *report, traced bool, prefix string) jsonResult {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	j := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		j.Metrics[prefix+d.name] = jsonMetric{Value: r.metrics[d.name], Unit: d.unit}
	}
	return j
}

func printReport(w io.Writer, r *report, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d, checks %s\n", r.workload, mode, r.attempted, r.failed, okWord(r.correct))
	if r.firstErr != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.firstErr)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "   check failed: %s\n", v)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if r.spanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", r.spanFile)
	}
}

func okWord(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// spanNotes lists every span name's count, p50/p99 duration and p50 self
// time, for the traced run's printout.
func spanNotes(sums map[string]*spanSummary) []string {
	var names []string
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		s := sums[n]
		out = append(out, fmt.Sprintf("span %-18s n=%-8d p50 %10.0f ns  p99 %10.0f ns  self p50 %10.0f ns",
			n, s.count, s.p50, s.p99, s.self50))
	}
	return out
}

// tailNote formats a latency sample's p50 and its reference tail: the
// highest of p99/p90 with at least ten sampled latencies beyond it. n is
// every latency offered; the quantiles come from the sample of at most
// latCap of them.
func tailNote(label string, l *latencies) string {
	kept := len(l.buf)
	if kept == 0 {
		return label + ": no samples"
	}
	p50 := l.quantile(0.5)
	switch {
	case kept >= 1000:
		return fmt.Sprintf("%s: p50 %.1f us, p99 %.1f us (n=%d, %d sampled)", label, p50, l.quantile(0.99), l.n, kept)
	case kept >= 100:
		return fmt.Sprintf("%s: p50 %.1f us, p90 %.1f us (n=%d)", label, p50, l.quantile(0.9), l.n)
	}
	return fmt.Sprintf("%s: p50 %.1f us (n=%d)", label, p50, l.n)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
