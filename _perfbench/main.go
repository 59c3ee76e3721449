// Command perfbench is the repository benchmark: one process runs one of
// three workloads — fleet-campaign, stream-window, query-ingest — for a
// fixed time, checks every output against an oracle, and prints its
// end-to-end metrics. With --trace 1 it instead runs all three workloads
// with spans around each public layer call and prints the per-layer
// table. The last line of standard output is always the JSON result:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// Build and run from the repository root with
//
//	bash _perfbench/run.sh --workload fleet-campaign --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/basis"
	"repro/internal/obs"
)

// workloadNames is the fixed order of the traced run and of the usage text.
var workloadNames = []string{"fleet-campaign", "stream-window", "query-ingest"}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	short    bool   // a few ops per phase and one set-up: the harness self-test
	traceOut string // span file of a traced run
	inject   injection
}

// injection plants deliberate wrong answers so the self-test can prove
// the oracles count them. The benchmark's command line never sets it.
type injection struct {
	corruptQuery bool // shift one point answer before it is checked
	perturbNMSE  bool // shift one campaign's and one window's NMSE
}

// workload is one benchmark scenario. setup deploys it through its first
// published result and one warm-up op; measure runs timed ops.
type workload interface {
	setup() error
	measure(spec phaseSpec) (*phase, error)
	// layers derives the per-layer metrics from a traced phase (tr holds
	// its spans, c its obs counter deltas) and its base: the same code
	// path run just before it, untraced.
	layers(traced, base *phase, tr *tracer, c counterDelta) []metricRow
	close()
}

type phaseSpec struct {
	dur    time.Duration
	maxOps int     // > 0 stops after this many foreground ops (short mode)
	tr     *tracer // nil = untraced
	// replay runs the stream and query workloads' windows through the
	// benchmark's re-enactment of Step (deployment.replayStep) even when
	// untraced, so a traced stretch has an untraced base on the same code
	// path. A traced stretch always replays.
	replay bool
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	attempted, failed int64
	ops               int64 // foreground ops completed (campaigns, windows, queries)
	lat               *hist // foreground op latency
	ingest            *hist // write-path latency; nil means lat (the op is the write)
	wall              time.Duration
	allocPerOp        float64 // heap bytes allocated per foreground op
	quality           float64 // the phase's NMSE figure (see README.md)
	// tailQ is the workload's gated tail percentile (see README.md).
	tailQ float64
}

func newPhase(tailQ float64) *phase { return &phase{lat: newHist(), tailQ: tailQ} }

// metricRow is one named metric with its unit.
type metricRow struct {
	name  string
	value float64
	unit  string
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "fleet-campaign":
		return newFleetWL(o), nil
	case "stream-window":
		return newWindowWL(o), nil
	case "query-ingest":
		return newQueryWL(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run over all workloads")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	o.dur = time.Duration(seconds * float64(time.Second))
	if !slices.Contains(workloadNames, o.workload) {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	var res *result
	var err error
	if traceFlag == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runUntraced(o)
	}
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setupReps is how many cold set-ups feed setup_s (their median) on each
// workload. A fleet set-up runs a whole campaign (about 0.25 s); the
// others take about 20 ms, so they can afford enough samples to steady
// the median.
var setupReps = map[string]int{"fleet-campaign": 7, "stream-window": 31, "query-ingest": 31}

// runUntraced measures one workload's end-to-end metrics: the median of
// setupReps cold set-ups (basis cache emptied each time), then o.dur of
// timed ops on the last deployment.
func runUntraced(o options) (*result, error) {
	obs.Disable()
	reps := setupReps[o.workload]
	if o.short {
		reps = 1
	}
	w, setups, err := setUp(o.workload, o, reps)
	if err != nil {
		return nil, err
	}
	defer w.close()
	ph, err := w.measure(phaseSpec{dur: o.dur, maxOps: shortOps(o)})
	if err != nil {
		return nil, err
	}
	rows := endToEnd(ph, setups)
	printE2E(o.workload, ph, setups, rows)
	return newResult(ph.attempted, ph.failed, rows)
}

// setUp deploys a workload reps times from a cold basis cache and keeps
// the last deployment; the times are the setup_s samples.
func setUp(name string, o options, reps int) (workload, []float64, error) {
	var w workload
	var times []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, o); err != nil {
			return nil, nil, err
		}
		basis.ResetCache()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	return w, times, nil
}

func shortOps(o options) int {
	if o.short {
		return 3
	}
	return 0
}

// endToEnd maps a phase onto the end-to-end metric set every workload
// reports (see README.md for what "op" and "ingest" mean per workload).
func endToEnd(ph *phase, setups []float64) []metricRow {
	ing := ph.ingest
	if ing == nil {
		ing = ph.lat
	}
	okFrac := 1 - ratio(float64(ph.failed), float64(ph.attempted))
	return []metricRow{
		{"setup_s", median(setups), "s"},
		{"op_ms_p50", ms(ph.lat.quantile(0.50)), "ms"},
		{"op_ms_tail", ms(ph.lat.quantile(ph.tailQ)), "ms"},
		{"ops_per_s", ratio(float64(ph.lat.n), ph.lat.sum.Seconds()), "1/s"},
		{"alloc_kb_per_op", ph.allocPerOp / 1e3, "kB"},
		{"ingest_ms_p50", ms(ing.quantile(0.50)), "ms"},
		{"ok_frac", okFrac, "ratio"},
	}
}

func newResult(attempted, failed int64, rows []metricRow) (*result, error) {
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricOut, len(rows))}
	for _, r := range rows {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", r.name, r.value)
		}
		if _, dup := res.Metrics[r.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", r.name)
		}
		res.Metrics[r.name] = metricOut{Value: r.value, Unit: r.unit}
	}
	return res, nil
}

// reportNames gives each end-to-end metric its workload-specific meaning
// in the human-readable report (op_ms_p50 is the campaign p50 on
// fleet-campaign).
var reportNames = map[string]map[string]string{
	"fleet-campaign": {"op_ms_p50": "campaign p50", "op_ms_tail": "campaign p90",
		"alloc_kb_per_op": "campaign alloc", "ops_per_s": "campaigns/s", "ingest_ms_p50": "campaign p50", "nmse": "global NMSE"},
	"stream-window": {"op_ms_p50": "window p50", "op_ms_tail": "window p90",
		"alloc_kb_per_op": "window alloc", "ops_per_s": "windows/s", "ingest_ms_p50": "window p50", "nmse": "window NMSE (median)"},
	"query-ingest": {"op_ms_p50": "query p50", "op_ms_tail": "query p99",
		"alloc_kb_per_op": "alloc per query", "ops_per_s": "query QPS", "ingest_ms_p50": "ingest window p50 (from due time)",
		"nmse": "ingest NMSE (median)"},
}

func printE2E(name string, ph *phase, setups []float64, rows []metricRow) {
	fmt.Printf("== %s: %d ops in %.2fs (%.2fs inside timed calls), %d/%d failed (fail_frac %.4g), setup samples %d\n",
		name, ph.ops, ph.wall.Seconds(), ph.lat.sum.Seconds(), ph.failed, ph.attempted, ratio(float64(ph.failed), float64(ph.attempted)), len(setups))
	for _, r := range rows {
		fmt.Printf("  %-16s %14.6g %-6s %s\n", r.name, r.value, r.unit, reportNames[name][r.name])
	}
	fmt.Printf("  %-16s %14.6g %-6s %s (ungated: see README.md)\n", "op_ms_p99", ms(ph.lat.quantile(0.99)), "ms", "p99")
	fmt.Printf("  %-16s %14.6g %-6s %s (ungated: see README.md)\n", "nmse", ph.quality, "ratio", reportNames[name]["nmse"])
}

// runTraced runs every workload in turn — untraced, then traced with obs
// enabled and spans around each public layer call — and reports the
// per-layer metrics, the tracing overhead, and (fleet) the GOMAXPROCS=1
// baseline. The stream and query workloads trace the benchmark's
// re-enactment of Step, so between those two stretches they run the
// re-enactment untraced: the base of their tracing overhead. Each
// workload gets o.dur/3, split evenly over its stretches, so the measured
// time of the whole run is o.dur.
func runTraced(o options) (*result, error) {
	obs.Disable()
	var rows []metricRow
	var attempted, failed int64
	var trs []*tracer
	for _, name := range workloadNames {
		tr := newTracer(1 << 18)
		trs = append(trs, tr)
		obs.Enable()
		c0 := readCounters()
		w, _, err := setUp(name, o, 1)
		obs.Disable()
		if err != nil {
			return nil, err
		}
		setupC := readCounters().minus(c0)
		_, isFleet := w.(*fleetWL)
		stretches := 3
		if isFleet {
			stretches = 2
		}
		slice := o.dur / time.Duration(stretches*len(workloadNames))
		untraced, err := w.measure(phaseSpec{dur: slice, maxOps: shortOps(o)})
		base := untraced
		if err == nil && !isFleet {
			runtime.GC()
			base, err = w.measure(phaseSpec{dur: slice, maxOps: shortOps(o), replay: true})
		}
		if err != nil {
			w.close()
			return nil, err
		}
		runtime.GC()
		obs.Enable()
		c1 := readCounters()
		traced, err := w.measure(phaseSpec{dur: slice, maxOps: shortOps(o), tr: tr, replay: true})
		c := readCounters().minus(c1).plusSetup(setupC)
		obs.Disable()
		if err != nil {
			w.close()
			return nil, err
		}
		phases := []*phase{untraced, traced}
		if base != untraced {
			phases = append(phases, base)
			fmt.Printf("== %s (traced): %d untraced + %d untraced re-enacted + %d traced ops", name, untraced.ops, base.ops, traced.ops)
		} else {
			fmt.Printf("== %s (traced): %d untraced + %d traced ops", name, untraced.ops, traced.ops)
		}
		var wa, wf int64
		for _, ph := range phases {
			wa += ph.attempted
			wf += ph.failed
		}
		attempted += wa
		failed += wf
		fmt.Printf(", %d/%d failed\n", wf, wa)
		lrows := append(w.layers(traced, base, tr, c),
			metricRow{"op_ms_p99", ms(untraced.lat.quantile(0.99)), "ms"},
			metricRow{"nmse", untraced.quality, "ratio"})
		if fw, ok := w.(*fleetWL); ok {
			srows, sa, sf := fw.serialBaseline(untraced, o)
			lrows = append(lrows, srows...)
			attempted += sa
			failed += sf
		}
		w.close()
		printLayerTable(tr)
		for i := range lrows {
			lrows[i].name = name + "." + lrows[i].name
		}
		rows = append(rows, lrows...)
	}
	fmt.Println("-- per-layer metrics")
	for _, r := range rows {
		fmt.Printf("  %-58s %14.6g %s\n", r.name, r.value, r.unit)
	}
	if err := writeChrome(o.traceOut, workloadNames, trs); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", o.traceOut)
	return newResult(attempted, failed, rows)
}

func printLayerTable(tr *tracer) {
	stats := tr.layerStats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-28s %9s %12s %12s %12s   (busy = summed span time, self = busy minus child spans; %d spans dropped)\n",
		"span", "count", "busy_ms", "self_ms", "mean_us", tr.dropped)
	for _, n := range names {
		s := stats[n]
		fmt.Printf("  %-28s %9d %12.3f %12.3f %12.3f\n", n, s.Count, ms(float64(s.Busy)), ms(float64(s.Self)),
			us(float64(s.Busy))/float64(s.Count))
	}
}

// counterDelta is the growth of obs counters over a traced stretch.
type counterDelta map[string]int64

// tracedCounters are the obs counters the per-layer metrics read.
var tracedCounters = []string{
	"basis.cache.hits", "basis.cache.misses",
	"netsim.tx.messages", "netsim.rx.messages", "netsim.lost.messages",
	"netsim.fault.duplicated", "netsim.fault.reordered",
	"bus.publish.messages", "bus.retry.attempts",
	"serve.cache.hits", "serve.cache.misses",
}

const setupPrefix = "setup:"

func readCounters() counterDelta {
	c := counterDelta{}
	for _, n := range tracedCounters {
		c[n] = obs.GetCounter(n).Value()
	}
	c["bus.retry.calls"] = obs.GetHistogram("bus.retry.attempts_per_call", obs.CountBuckets).Count()
	return c
}

func (c counterDelta) minus(base counterDelta) counterDelta {
	d := counterDelta{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// plusSetup files the set-up stretch's deltas under "setup:<name>".
func (c counterDelta) plusSetup(s counterDelta) counterDelta {
	for k, v := range s {
		c[setupPrefix+k] = v
	}
	return c
}
