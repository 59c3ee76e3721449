package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the boundary. Parent links make the causal tree;
// Op groups every span of one campaign, window or sampled query.
type span struct {
	ID     int32
	Parent int32 // 0 = root
	Op     int64
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced path: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func newTracer(limit int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1024), limit: limit}
}

// spanRef is an open span; end closes it.
type spanRef struct {
	t     *tracer
	id    int32
	start int64
}

// begin opens a span under parent (0 for a root) in operation op.
func (t *tracer) begin(name string, parent spanRef, op int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return spanRef{}
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: op, Name: name, Start: now, End: -1})
	return spanRef{t: t, id: id, start: now}
}

// end closes the span and returns its duration (0 on the untraced path).
func (s spanRef) end() time.Duration {
	if s.t == nil || s.id == 0 {
		return 0
	}
	now := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
	return time.Duration(now - s.start)
}

// layerStat aggregates every closed span of one name.
type layerStat struct {
	Name  string
	Count int
	Busy  time.Duration // sum of durations
	Self  time.Duration // busy minus the union of child intervals
}

// layerStats computes busy and self time per span name. Self time
// subtracts the union of a span's children clipped to its interval, so
// children running in parallel (zone fan-out) are not subtracted twice.
func (t *tracer) layerStats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Busy += time.Duration(d)
		st.Self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := int64(0), int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// perOp sums one span name's durations per operation, in op order: the
// per-campaign or per-window cost of a layer that is called many times
// inside one op.
func (t *tracer) perOp(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int64]float64{}
	var ops []int64
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += float64(s.End - s.Start)
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// writeChrome writes the spans of every traced workload as Chrome
// trace-event JSON ("X" events; one process per workload, one track per
// operation), loadable offline in chrome://tracing or Perfetto. Span,
// parent and op ids ride in args.
func writeChrome(path string, names []string, trs []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeChrome(w, names, trs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

func encodeChrome(w io.Writer, names []string, trs []*tracer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	sep := ""
	emit := func(ev chromeEvent) error {
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		sep = ","
		return enc.Encode(ev)
	}
	dropped := 0
	for i, t := range trs {
		pid := i + 1
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": names[i]}}); err != nil {
			return err
		}
		t.mu.Lock()
		spans := t.spans
		dropped += t.dropped
		t.mu.Unlock()
		for _, s := range spans {
			if s.End < 0 {
				continue
			}
			ev := chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid, Tid: s.Op, Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%d}}\n", dropped)
	return err
}
