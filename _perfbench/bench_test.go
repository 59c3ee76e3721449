package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func shortOptions(workload string) options {
	return options{workload: workload, seed: 3, dur: time.Second, short: true, traceOut: t0TraceOut()}
}

func t0TraceOut() string { return os.TempDir() + "/perfbench-selftest-trace.json" }

// requireMetrics checks that res carries exactly the named metrics, each
// with its declared unit and a finite value.
func requireMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
}

// TestShortRunsEmitEveryEndToEndMetric runs each workload for a few ops
// and checks the result against BENCHMARK.json's end-to-end list.
func TestShortRunsEmitEveryEndToEndMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(shortOptions(w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			requireMetrics(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v; end-to-end metrics are never 0", m.Name, v)
				}
			}
		})
	}
}

// TestShortTracedRunEmitsEveryLayerMetric runs the traced mode briefly
// and checks it against BENCHMARK.json's per-layer list.
func TestShortTracedRunEmitsEveryLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	res, err := runTraced(shortOptions("stream-window"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d ops", res.Failed, res.Attempted)
	}
	requireMetrics(t, res, spec.PerLayer)
	if _, err := os.Stat(t0TraceOut()); err != nil {
		t.Errorf("span file not written: %v", err)
	}
}

// TestCorruptedQueryAnswerIsCounted plants one wrong point answer.
func TestCorruptedQueryAnswerIsCounted(t *testing.T) {
	o := shortOptions("query-ingest")
	o.inject.corruptQuery = true
	res, err := runUntraced(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Correct {
		t.Fatalf("failed=%d correct=%v, want exactly the corrupted answer counted", res.Failed, res.Correct)
	}
	if got := res.Metrics["ok_frac"].Value; got >= 1 {
		t.Errorf("ok_frac = %v, want below 1", got)
	}
}

// TestPerturbedNMSEIsCounted shifts one campaign's NMSE by one ulp and
// one window's far past the ceiling.
func TestPerturbedNMSEIsCounted(t *testing.T) {
	for _, w := range []string{"fleet-campaign", "stream-window"} {
		t.Run(w, func(t *testing.T) {
			o := shortOptions(w)
			o.inject.perturbNMSE = true
			res, err := runUntraced(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 || res.Correct {
				t.Fatalf("failed=%d correct=%v, want exactly the perturbed op counted", res.Failed, res.Correct)
			}
		})
	}
}

// TestRunQualityCeiling checks the run-level window oracle: a minority
// of stale-seed windows passes, a plume lost in most windows fails.
func TestRunQualityCeiling(t *testing.T) {
	healthy := []float64{1e-3, 2e-3, 0.14, 3e-3, 0.09}
	if err := checkRunQuality(healthy); err != nil {
		t.Errorf("healthy run: %v", err)
	}
	lostPlume := []float64{0.096, 0.097, 1e-3, 0.096, 0.098}
	if err := checkRunQuality(lostPlume); err == nil {
		t.Error("a run losing a plume in most windows passed")
	}
}

// TestReplayMatchesPipeline pins the traced stream path to the real one:
// windows re-enacted through public calls reproduce Pipeline.Step's
// reconstructions bit for bit on an identical deployment.
func TestReplayMatchesPipeline(t *testing.T) {
	const windows = 5
	piped, err := newDeployment(7, 32, queryBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer piped.sd.Close()
	replayed, err := newDeployment(7, 32, queryBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.sd.Close()
	if _, err := replayed.p.Step(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1 << 12)
	for i := 1; i <= windows; i++ {
		want, err := piped.p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			continue // the replayed deployment's first window came from Step too
		}
		got, wt, err := replayed.replayStep(tr, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.NMSE) != math.Float64bits(want.NMSE) || got.Step != want.Step {
			t.Errorf("window %d: replay NMSE %v step %d, pipeline %v step %d", i, got.NMSE, got.Step, want.NMSE, want.Step)
		}
		if wt.zones != 4 || wt.gathered != queryBudget {
			t.Errorf("window %d: replay counted %d zones, %d gathered", i, wt.zones, wt.gathered)
		}
	}
	if st := tr.layerStats(); st["broker.gather"] == nil || st["broker.gather"].Count != 4*(windows-1) {
		t.Errorf("replay spans: %+v", st["broker.gather"])
	}
}

// TestHistQuantiles checks the latency histogram against exact order
// statistics on a spread of magnitudes.
func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for i := 1; i <= 100000; i++ {
		h.record(time.Duration(i) * 37)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000 * 37
		if got := h.quantile(q); math.Abs(got-want) > 0.003*want {
			t.Errorf("q%.2f = %v, want %v within 0.3%%", q, got, want)
		}
	}
	for v := int64(0); v < 1<<40; v = v*3 + 1 {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

// TestCovered checks self-time interval arithmetic: overlapping children
// (a parallel zone fan-out) are subtracted once.
func TestCovered(t *testing.T) {
	iv := [][2]int64{{10, 30}, {20, 40}, {50, 60}, {90, 120}}
	if got := covered(iv, 0, 100); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}
