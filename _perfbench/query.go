package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// query-ingest sizes: one closed-loop query client against serve.Server
// while a benchmark-owned goroutine publishes windows open-loop.
const (
	queryDim       = 32
	queryZones     = 4 // 2×2
	queryBudget    = 240
	ingestPeriod   = 10 * time.Millisecond
	queryPlanSize  = 1 << 16 // pre-generated queries, replayed cyclically
	queryCheckStep = 8       // every 8th range/aggregate answer is recomputed
	querySpanEvery = 64      // traced run: one query in 64 gets a span
	versionRing    = 1024    // published versions kept for the oracle
	latestEvery    = 4096    // traced run: time a batch of Latest calls this often
)

// queryFilters are the workload's predicates; the oracle evaluates them
// natively in filterMatch.
var queryFilters = []string{"", "value > 15", "zone == 0 && value < 30"}

func filterMatch(i int, v float64, zone int) bool {
	switch i {
	case 1:
		return v > 15
	case 2:
		return zone == 0 && v < 30
	}
	return true
}

var aggOps = []serve.AggOp{serve.AggSum, serve.AggMean, serve.AggMin, serve.AggMax, serve.AggCount}

type queryKind uint8

const (
	qPoint queryKind = iota
	qRange
	qAgg
)

// kindSpans names each query kind's span in the traced run.
var kindSpans = []string{"serve.point", "serve.range", "serve.agg"}

// querySpec is one pre-generated query: 70% point, 20% range (spans ≤ 8
// cells a side), 10% aggregate over a zone or the whole field.
type querySpec struct {
	kind   queryKind
	r, c   int
	rect   serve.Rect
	zone   int
	op     serve.AggOp
	filter int
}

func genQueries(seed int64) []querySpec {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	qs := make([]querySpec, queryPlanSize)
	for i := range qs {
		u := rng.Float64()
		switch {
		case u < 0.7:
			qs[i] = querySpec{kind: qPoint, r: rng.Intn(queryDim), c: rng.Intn(queryDim)}
		case u < 0.9:
			h, w := 1+rng.Intn(8), 1+rng.Intn(8)
			r0, c0 := rng.Intn(queryDim-h+1), rng.Intn(queryDim-w+1)
			qs[i] = querySpec{kind: qRange, rect: serve.Rect{Row0: r0, Col0: c0, Row1: r0 + h, Col1: c0 + w},
				filter: rng.Intn(len(queryFilters))}
		default:
			qs[i] = querySpec{kind: qAgg, zone: rng.Intn(queryZones+1) - 1, op: aggOps[rng.Intn(len(aggOps))],
				filter: rng.Intn(len(queryFilters))}
		}
	}
	return qs
}

type queryWL struct {
	o       options
	dep     *deployment
	srv     *serve.Server
	queries []querySpec
	ring    [versionRing]atomic.Pointer[snapshot.Snapshot]
	next    int // index of the next query in the plan
	ingests int64

	// traced-phase extras
	kinds  [3]*hist
	latest []float64 // ns per Latest call, one sample per batch
	late   *hist     // ingest start minus due time
	wts    []windowTraced
}

func newQueryWL(o options) *queryWL {
	return &queryWL{o: o}
}

func (q *queryWL) setup() error {
	dep, err := newDeployment(q.o.seed, queryDim, queryBudget)
	if err != nil {
		return err
	}
	q.dep = dep
	q.queries = genQueries(q.o.seed)
	dep.reg.Subscribe(func(s *snapshot.Snapshot) { q.ring[s.Version%versionRing].Store(s) })
	srv, err := serve.New(dep.reg, queryDim, queryDim, 2, 2)
	if err != nil {
		return err
	}
	q.srv = srv
	s, err := dep.p.Step()
	if err := checkWindow(s, err, false); err != nil {
		return err
	}
	// Warm-up: one answer of each kind, compiling every filter once.
	var a queryAnswer
	for f := range queryFilters {
		for _, spec := range []querySpec{
			{kind: qPoint, r: f, c: f},
			{kind: qRange, rect: serve.Rect{Row0: 0, Col0: 0, Row1: 4, Col1: 4}, filter: f},
			{kind: qAgg, zone: f, op: serve.AggMean, filter: f},
		} {
			if err := q.serveQuery(&spec, &a); err != nil {
				return err
			}
			if err := q.check(&spec, &a); err != nil {
				return err
			}
		}
	}
	return nil
}

// queryAnswer holds the answer to one query of any kind.
type queryAnswer struct {
	point serve.PointResult
	rng   serve.RangeResult
	agg   serve.AggResult
}

// serveQuery runs one query against the server and stores its answer in
// a. It is the timed call; the oracle (check) runs after the clock stops.
func (q *queryWL) serveQuery(spec *querySpec, a *queryAnswer) error {
	var err error
	switch spec.kind {
	case qPoint:
		a.point, err = q.srv.Point(spec.r, spec.c)
	case qRange:
		a.rng, err = q.srv.Range(spec.rect, queryFilters[spec.filter])
	default:
		a.agg, err = q.srv.Aggregate(spec.zone, spec.op, queryFilters[spec.filter])
	}
	return err
}

// check is the query oracle: a's answer to spec against the snapshot
// version the answer reports.
func (q *queryWL) check(spec *querySpec, a *queryAnswer) error {
	switch spec.kind {
	case qPoint:
		return q.checkPoint(spec, a.point)
	case qRange:
		return q.checkRange(spec, a.rng)
	default:
		return q.checkAgg(spec, a.agg)
	}
}

// snapshotAt finds the snapshot an answer reports. The registry swaps its
// latest pointer before it runs subscribers, so an answer can cite a
// version the ring has not seen yet; the registry's own retained history
// (appended before the swap) covers that window.
func (q *queryWL) snapshotAt(v uint64) (*snapshot.Snapshot, error) {
	if s := q.ring[v%versionRing].Load(); s != nil && s.Version == v {
		return s, nil
	}
	for _, s := range q.dep.reg.History() {
		if s.Version == v {
			return s, nil
		}
	}
	return nil, fmt.Errorf("answer reports version %d, which is not a recent published version", v)
}

func zoneOf(r, c int) int {
	h := queryDim / 2
	return (r/h)*2 + c/h
}

func (q *queryWL) checkPoint(spec *querySpec, res serve.PointResult) error {
	s, err := q.snapshotAt(res.Version)
	if err != nil {
		return err
	}
	if want := s.Field.At(spec.r, spec.c); math.Float64bits(res.Value) != math.Float64bits(want) || res.Zone != zoneOf(spec.r, spec.c) {
		return fmt.Errorf("point (%d,%d)@v%d = %v zone %d, want %v zone %d", spec.r, spec.c, res.Version,
			res.Value, res.Zone, want, zoneOf(spec.r, spec.c))
	}
	return nil
}

func (q *queryWL) checkRange(spec *querySpec, res serve.RangeResult) error {
	s, err := q.snapshotAt(res.Version)
	if err != nil {
		return err
	}
	rc := spec.rect
	if res.Scanned != (rc.Row1-rc.Row0)*(rc.Col1-rc.Col0) {
		return fmt.Errorf("range %+v scanned %d cells", rc, res.Scanned)
	}
	k := 0
	for r := rc.Row0; r < rc.Row1; r++ {
		for c := rc.Col0; c < rc.Col1; c++ {
			v := s.Field.At(r, c)
			if !filterMatch(spec.filter, v, zoneOf(r, c)) {
				continue
			}
			if k >= len(res.Cells) {
				return fmt.Errorf("range %+v %q@v%d misses cell (%d,%d)", rc, queryFilters[spec.filter], res.Version, r, c)
			}
			got := res.Cells[k]
			if got.Row != r || got.Col != c || got.Zone != zoneOf(r, c) || math.Float64bits(got.Value) != math.Float64bits(v) {
				return fmt.Errorf("range %+v %q@v%d cell %d = %+v, want (%d,%d)=%v", rc, queryFilters[spec.filter], res.Version, k, got, r, c, v)
			}
			k++
		}
	}
	if k != len(res.Cells) {
		return fmt.Errorf("range %+v %q@v%d returned %d cells, want %d", rc, queryFilters[spec.filter], res.Version, len(res.Cells), k)
	}
	return nil
}

func (q *queryWL) checkAgg(spec *querySpec, res serve.AggResult) error {
	s, err := q.snapshotAt(res.Version)
	if err != nil {
		return err
	}
	r0, c0, r1, c1 := 0, 0, queryDim, queryDim
	if spec.zone >= 0 {
		h := queryDim / 2
		r0, c0 = (spec.zone/2)*h, (spec.zone%2)*h
		r1, c1 = r0+h, c0+h
	}
	n, sum, lo, hi := 0, 0.0, math.Inf(1), math.Inf(-1)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			v := s.Field.At(r, c)
			if !filterMatch(spec.filter, v, zoneOf(r, c)) {
				continue
			}
			n++
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	var want float64
	exact := true
	switch spec.op {
	case serve.AggSum:
		want, exact = sum, false
	case serve.AggMean:
		exact = false
		if n > 0 {
			want = sum / float64(n)
		}
	case serve.AggMin:
		if n > 0 {
			want = lo
		}
	case serve.AggMax:
		if n > 0 {
			want = hi
		}
	case serve.AggCount:
		want = float64(n)
	}
	ok := res.Cells == n && res.Op == spec.op && res.Zone == spec.zone
	if exact {
		ok = ok && math.Float64bits(res.Value) == math.Float64bits(want)
	} else {
		ok = ok && math.Abs(res.Value-want) <= 1e-12*math.Max(1, math.Abs(want))
	}
	if !ok {
		return fmt.Errorf("aggregate %s zone %d %q@v%d = %v over %d cells, want %v over %d",
			spec.op, spec.zone, queryFilters[spec.filter], res.Version, res.Value, res.Cells, want, n)
	}
	return nil
}

// ingestStats is the ingest goroutine's account of one phase.
type ingestStats struct {
	windows           atomic.Int64 // windows attempted so far, read by the query loop
	attempted, failed int64
	lat, late         *hist
	nmse              []float64
	wts               []windowTraced
}

// ingest publishes one window every ingestPeriod, open-loop: window i is
// due at begin + i·period whatever happened before it, and its latency
// runs from that due time, so a stall shows up in every window behind it.
func (q *queryWL) ingest(begin time.Time, stop <-chan struct{}, spec phaseSpec, st *ingestStats) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := int64(1); ; i++ {
		due := begin.Add(time.Duration(i) * ingestPeriod)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		st.late.record(time.Since(due))
		q.ingests++
		st.attempted++
		st.windows.Add(1)
		var s *snapshot.Snapshot
		var err error
		if spec.replay {
			var wt windowTraced
			s, wt, err = q.dep.replayStep(spec.tr, 1<<40+q.ingests)
			st.wts = append(st.wts, wt)
		} else {
			s, err = q.dep.p.Step()
		}
		if err = checkWindow(s, err, false); err != nil {
			st.failed++
			fmt.Printf("  ingest window %d FAILED: %v\n", q.ingests, err)
			continue
		}
		st.lat.record(time.Since(due))
		st.nmse = append(st.nmse, s.NMSE)
	}
}

func (q *queryWL) measure(spec phaseSpec) (*phase, error) {
	ph := newPhase(0.99)
	for i := range q.kinds {
		q.kinds[i] = newHist()
	}
	st := &ingestStats{lat: newHist(), late: newHist()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Short mode: maxOps ingest windows and a thousand queries per window.
	maxQueries := int64(0)
	if spec.maxOps > 0 {
		maxQueries = int64(spec.maxOps) * 1000
	}
	begin := time.Now()
	deadline := begin.Add(spec.dur)
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.ingest(begin, stop, spec, st)
	}()
	var a queryAnswer
	corrupt := q.o.inject.corruptQuery
	for i := int64(0); ; i++ {
		qs := &q.queries[q.next]
		q.next = (q.next + 1) % len(q.queries)
		var sp spanRef
		if i%querySpanEvery == 0 {
			sp = spec.tr.begin(kindSpans[qs.kind], spanRef{}, i)
		}
		t0 := time.Now()
		err := q.serveQuery(qs, &a)
		d := time.Since(t0)
		sp.end()
		if err == nil && (qs.kind == qPoint || i%queryCheckStep == 0) {
			if corrupt && qs.kind == qPoint {
				a.point.Value += 1 // self-test: one wrong answer for the oracle
				corrupt = false
			}
			err = q.check(qs, &a)
		}
		ph.attempted++
		if err != nil {
			ph.failed++
			if ph.failed <= 10 {
				fmt.Printf("  query %d FAILED: %v\n", i, err)
			}
		} else {
			ph.ops++
			ph.lat.record(d)
			q.kinds[qs.kind].record(d)
		}
		if spec.tr != nil && i%latestEvery == 0 {
			q.timeLatest()
		}
		if i&255 == 255 {
			if (maxQueries > 0 && ph.attempted >= maxQueries && st.windows.Load() >= int64(spec.maxOps)) ||
				(maxQueries == 0 && !t0.Add(d).Before(deadline)) {
				break
			}
		}
	}
	ph.wall = time.Since(begin)
	close(stop)
	wg.Wait()
	if st.attempted == 0 {
		return nil, fmt.Errorf("ingest published no window in %v", ph.wall)
	}
	var err error
	if ph.allocPerOp, err = q.queryAlloc(); err != nil {
		return nil, fmt.Errorf("allocation pass: %w", err)
	}
	ph.attempted += st.attempted
	ph.failed += st.failed
	ph.ingest = st.lat
	ph.quality = median(st.nmse)
	if err := checkRunQuality(st.nmse); err != nil {
		ph.failed++
		fmt.Printf("  ingest run FAILED: %v\n", err)
	}
	q.late = st.late
	q.wts = st.wts
	fmt.Printf("  ingest: %d windows, late p50 %.3f ms, p99 %.3f ms\n", st.attempted, ms(st.late.quantile(0.5)), ms(st.late.quantile(0.99)))
	return ph, nil
}

// queryAlloc is the heap bytes per query of one pass over the query
// plan, measured once ingest has stopped: allocation on the read path
// alone. While ingest runs, its windows' allocations would dominate, and
// their share per query would move with the query rate rather than with
// the read path.
func (q *queryWL) queryAlloc() (float64, error) {
	var a queryAnswer
	a0 := allocBytes()
	for i := range q.queries {
		if err := q.serveQuery(&q.queries[i], &a); err != nil {
			return 0, err
		}
	}
	return float64(allocBytes()-a0) / float64(len(q.queries)), nil
}

// timeLatest samples the registry's lock-free read under live ingest.
func (q *queryWL) timeLatest() {
	const n = 256
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if q.dep.reg.Latest() == nil {
			return
		}
	}
	q.latest = append(q.latest, float64(time.Since(t0))/n)
}

// timeCompile measures query.Compile on the workload's non-empty filters.
func timeCompile() (float64, error) {
	const reps = 200
	var samples []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, src := range queryFilters[1:] {
			if _, err := query.Compile(src); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(len(queryFilters)-1))
	}
	return median(samples), nil
}

func (q *queryWL) layers(traced, base *phase, tr *tracer, c counterDelta) []metricRow {
	compile, err := timeCompile()
	if err != nil {
		fmt.Printf("  query.Compile FAILED: %v\n", err)
	}
	hits, misses := float64(c["serve.cache.hits"]), float64(c["serve.cache.misses"])
	var seeded, accepted int
	for _, wt := range q.wts {
		seeded += wt.seeded
		accepted += wt.accepted
	}
	fmt.Printf("  query bases: %d point / %d range / %d agg answers; cache hits %.0f of %.0f lookups; %d Latest batches; %d ingest windows\n",
		q.kinds[qPoint].n, q.kinds[qRange].n, q.kinds[qAgg].n, hits, hits+misses, len(q.latest), len(q.wts))
	return []metricRow{
		{"serve.point_us_p50", us(q.kinds[qPoint].quantile(0.5)), "us"},
		{"serve.point_us_p99", us(q.kinds[qPoint].quantile(0.99)), "us"},
		{"serve.range_us_p50", us(q.kinds[qRange].quantile(0.5)), "us"},
		{"serve.range_us_p99", us(q.kinds[qRange].quantile(0.99)), "us"},
		{"serve.agg_us_p50", us(q.kinds[qAgg].quantile(0.5)), "us"},
		{"serve.agg_us_p99", us(q.kinds[qAgg].quantile(0.99)), "us"},
		{"serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"query.compile_us", us(compile), "us"},
		{"snapshot.latest_ns", median(q.latest), "ns"},
		{"snapshot.publish_us", us(median(tr.perOp("snapshot.publish"))), "us"},
		{"stream.step_ms", ms(median(tr.perOp("stream.window"))), "ms"},
		{"stream.ingest_late_ms_p99", ms(q.late.quantile(0.99)), "ms"},
		{"trace_overhead_pct", overheadPct(traced, base), "%"},
	}
}

func (q *queryWL) close() {
	if q.dep != nil {
		q.dep.sd.Close()
	}
}
