package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/basis"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/fleet"
	"repro/internal/netsim"
)

// fleet-campaign sizes: one op is NewPopulation + NewRunner + Run.
const (
	fleetNodes    = 100_000
	fleetShard    = 8192
	fleetDim      = 128
	fleetZoneRC   = 2
	fleetBudget   = 256 // distinct cells per zone
	fleetSupport  = 32
	fleetRounds   = 16 // two duty periods: every node reports twice
	fleetDup      = 0.02
	fleetReorder  = 0.05
	envelopeBytes = 24 // fleet's wire format: cell, node, value, sigma
)

// fleetBurst is the Gilbert–Elliott uplink on every shard→zone link:
// bad 10% of the time, losing half of what it carries — 5% average loss.
var fleetBurst = netsim.GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.18, LossBad: 0.5}

type fleetWL struct {
	o       options
	truth   *field.Field
	pcfg    fleet.Config
	netSeed int64
	refBits uint64 // global NMSE of the set-up campaign: every campaign must match it bit for bit
	ops     int64

	replay  *fleetReplay  // traced-run inputs, built on first use
	runs    []fleetTraced // one per traced campaign
	lastRun time.Duration // Run's share of the latest campaign
}

// fleetTraced is what one traced campaign measured outside the spans.
type fleetTraced struct {
	reports, tx, rx, lost, dup, reorder int64
	netAlloc                            uint64
	iters                               []int
	run, layers                         time.Duration
}

func newFleetWL(o options) *fleetWL {
	rng := rand.New(rand.NewSource(o.seed))
	d := float64(fleetDim)
	plumes := []field.Plume{
		{Row: d * (0.2 + 0.2*rng.Float64()), Col: d * (0.5 + 0.3*rng.Float64()), Sigma: d / 12, Amplitude: 30},
		{Row: d * (0.6 + 0.2*rng.Float64()), Col: d * (0.1 + 0.3*rng.Float64()), Sigma: d / 16, Amplitude: 18},
	}
	return &fleetWL{
		o:     o,
		truth: field.GenPlumes(fleetDim, fleetDim, 10, plumes),
		pcfg: fleet.Config{
			Nodes: fleetNodes, ShardSize: fleetShard,
			FieldW: fleetDim, FieldH: fleetDim, ZoneRows: fleetZoneRC, ZoneCols: fleetZoneRC,
			Seed: rng.Int63(),
		},
		netSeed: rng.Int63(),
	}
}

// applyFaults installs the light fault plan on a runner's network plan.
func applyFaults(plan *netsim.FaultPlan, p *fleet.Population) {
	for _, s := range p.Shards {
		plan.SetBurstLink(fleet.ShardEndpoint(s.Index), fleet.ZoneEndpoint(s.Zone), fleetBurst)
	}
	plan.SetDuplicateProb(fleetDup)
	plan.SetReorderProb(fleetReorder)
}

// campaign runs one full campaign, with spans when tr is set.
func (f *fleetWL) campaign(tr *tracer, op int64, root spanRef) (*fleet.Result, *fleet.Population, *fleet.Runner, error) {
	sp := tr.begin("fleet.build", root, op)
	pop, err := fleet.NewPopulation(f.pcfg)
	sp.end()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := pop.SetTruth(f.truth); err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("fleet.wire", root, op)
	r, err := fleet.NewRunner(pop, f.netSeed, fleetBudget)
	if err == nil {
		applyFaults(r.Plan, pop)
	}
	sp.end()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("fleet.run", root, op)
	t0 := time.Now()
	res, err := r.Run(fleet.CampaignConfig{Rounds: fleetRounds, MaxSupport: fleetSupport})
	f.lastRun = time.Since(t0)
	sp.end()
	return res, pop, r, err
}

// setup runs one campaign, which fills the basis cache and fixes the
// reference NMSE.
func (f *fleetWL) setup() error {
	res, _, _, err := f.campaign(nil, 0, spanRef{})
	if err != nil {
		return err
	}
	f.refBits = math.Float64bits(res.GlobalNMSE)
	return f.check(res, false)
}

// check is the campaign oracle: the NMSE is bit-identical to the set-up
// campaign's, and the network totals reconcile with the runner's own
// enqueue accounting (no endpoint is ever down in this plan).
func (f *fleetWL) check(res *fleet.Result, perturb bool) error {
	nm := res.GlobalNMSE
	if perturb {
		nm = math.Nextafter(nm, math.Inf(1))
	}
	if math.Float64bits(nm) != f.refBits {
		return fmt.Errorf("global NMSE %v differs from the reference %v", nm, math.Float64frombits(f.refBits))
	}
	t := res.Totals
	switch {
	case t.TxMessages != res.Reports-res.Down:
		return fmt.Errorf("tx %d != reports %d - down %d", t.TxMessages, res.Reports, res.Down)
	case t.Dropped != res.Lost:
		return fmt.Errorf("dropped %d != lost %d", t.Dropped, res.Lost)
	case t.RxMessages != res.Envelopes+res.Malformed:
		return fmt.Errorf("rx %d != envelopes %d + malformed %d", t.RxMessages, res.Envelopes, res.Malformed)
	case t.RxMessages < t.TxMessages-t.Dropped || t.RxMessages > 2*(t.TxMessages-t.Dropped):
		return fmt.Errorf("rx %d outside [delivered, 2·delivered] for delivered %d", t.RxMessages, t.TxMessages-t.Dropped)
	case res.Malformed != 0 || res.Down != 0:
		return fmt.Errorf("malformed %d, down %d, want none", res.Malformed, res.Down)
	case res.Measurements <= 0 || res.Measurements > fleetZoneRC*fleetZoneRC*fleetBudget:
		return fmt.Errorf("measurements %d outside (0, %d]", res.Measurements, fleetZoneRC*fleetZoneRC*fleetBudget)
	}
	return nil
}

func (f *fleetWL) measure(spec phaseSpec) (*phase, error) {
	ph := newPhase(0.90)
	if spec.tr != nil && f.replay == nil {
		rp, err := newFleetReplay(f)
		if err != nil {
			return nil, err
		}
		f.replay = rp
	}
	a0 := allocBytes()
	begin := time.Now()
	deadline := begin.Add(spec.dur)
	for {
		f.ops++
		op := f.ops
		ph.attempted++
		root := spec.tr.begin("fleet.campaign", spanRef{}, op)
		var c0 counterDelta
		if spec.tr != nil {
			c0 = readCounters()
		}
		t0 := time.Now()
		res, pop, _, err := f.campaign(spec.tr, op, root)
		d := time.Since(t0)
		root.end()
		if err == nil {
			err = f.check(res, f.o.inject.perturbNMSE && ph.attempted == 2)
		}
		if err != nil {
			ph.failed++
			fmt.Printf("  campaign %d FAILED: %v\n", op, err)
		} else {
			ph.ops++
			ph.lat.record(d)
			if spec.tr != nil {
				ft, rerr := f.tracedExtras(spec.tr, op, res, pop, readCounters().minus(c0))
				if rerr != nil {
					ph.failed++
					fmt.Printf("  campaign %d replay FAILED: %v\n", op, rerr)
				} else {
					f.runs = append(f.runs, ft)
				}
			}
		}
		if (spec.maxOps > 0 && ph.attempted >= int64(spec.maxOps)) || (spec.maxOps == 0 && !time.Now().Before(deadline)) {
			break
		}
	}
	ph.wall = time.Since(begin)
	ph.allocPerOp = ratio(float64(allocBytes()-a0), float64(ph.ops))
	ph.quality = math.Float64frombits(f.refBits)
	return ph, nil
}

// tracedExtras reconciles the campaign's obs counters with its netsim
// totals and replays its layers at the campaign's sizes.
func (f *fleetWL) tracedExtras(tr *tracer, op int64, res *fleet.Result, pop *fleet.Population, c counterDelta) (fleetTraced, error) {
	t := res.Totals
	if c["netsim.tx.messages"] != int64(t.TxMessages) || c["netsim.rx.messages"] != int64(t.RxMessages) ||
		c["netsim.lost.messages"] != int64(t.Dropped) {
		return fleetTraced{}, fmt.Errorf("obs counters tx/rx/lost %d/%d/%d do not reconcile with totals %d/%d/%d",
			c["netsim.tx.messages"], c["netsim.rx.messages"], c["netsim.lost.messages"], t.TxMessages, t.RxMessages, t.Dropped)
	}
	ft := fleetTraced{
		run:     f.lastRun,
		reports: int64(res.Reports), tx: int64(t.TxMessages), rx: int64(t.RxMessages), lost: int64(t.Dropped),
		dup: c["netsim.fault.duplicated"], reorder: c["netsim.fault.reordered"],
	}
	err := f.replay.run(tr, op, pop, &ft)
	return ft, err
}

// fleetReplay re-drives a campaign's layers through their public calls
// at the campaign's sizes: Population.Tick/Report on the campaign's own
// population, a network wired as NewRunner wires it (same endpoint names,
// link and fault plan) fed the same number of envelopes per shard and
// round, and cs.CHSOp per zone on what that network delivered.
type fleetReplay struct {
	f     *fleetWL
	zones []field.Zone
	ops   []basis.Operator
	msgs  [][][]netsim.Message // [shard][round] envelope batch
}

func newFleetReplay(f *fleetWL) (*fleetReplay, error) {
	res, pop, r, err := f.campaign(nil, 0, spanRef{})
	if err != nil {
		return nil, err
	}
	if err := f.check(res, false); err != nil {
		return nil, err
	}
	rp := &fleetReplay{f: f, zones: pop.Zones}
	for _, z := range pop.Zones {
		op, err := field.New(z.W, z.H).Operator2D(basis.KindDCT)
		if err != nil {
			return nil, err
		}
		rp.ops = append(rp.ops, op)
	}
	rng := rand.New(rand.NewSource(f.o.seed ^ 0x5eed))
	for _, s := range pop.Shards {
		st, err := r.Net.NodeStats(fleet.ShardEndpoint(s.Index))
		if err != nil {
			return nil, err
		}
		z := pop.Zones[s.Zone]
		from, to := fleet.ShardEndpoint(s.Index), fleet.ZoneEndpoint(s.Zone)
		rounds := make([][]netsim.Message, fleetRounds)
		for round := range rounds {
			n := st.TxMessages / fleetRounds
			if round < st.TxMessages%fleetRounds {
				n++
			}
			arena := make([]byte, n*envelopeBytes)
			batch := make([]netsim.Message, n)
			for j := range batch {
				cell := rng.Intn(z.W * z.H)
				sigma := 0.05 + 0.2*rng.Float64()
				v := f.truth.At(z.Row0+cell%z.H, z.Col0+cell/z.H) + sigma*rng.NormFloat64()
				pay := arena[j*envelopeBytes : (j+1)*envelopeBytes]
				binary.LittleEndian.PutUint32(pay[0:4], uint32(cell))
				binary.LittleEndian.PutUint32(pay[4:8], uint32(rng.Intn(s.N)))
				binary.LittleEndian.PutUint64(pay[8:16], math.Float64bits(v))
				binary.LittleEndian.PutUint64(pay[16:24], math.Float64bits(sigma))
				batch[j] = netsim.Message{From: from, To: to, Topic: fleet.MeasureTopic, Payload: pay}
			}
			rounds[round] = batch
		}
		rp.msgs = append(rp.msgs, rounds)
	}
	return rp, nil
}

// replayCollector mirrors fleet's zone collector: the first budget
// distinct cells, re-reports overwrite.
type replayCollector struct {
	zone   field.Zone
	cellAt map[int]int
	locs   []int
	vals   []float64
}

func (c *replayCollector) handle(m netsim.Message) {
	if len(m.Payload) != envelopeBytes {
		return
	}
	cell := int(binary.LittleEndian.Uint32(m.Payload[0:4]))
	v := math.Float64frombits(binary.LittleEndian.Uint64(m.Payload[8:16]))
	if at, ok := c.cellAt[cell]; ok {
		c.vals[at] = v
		return
	}
	if len(c.locs) >= fleetBudget {
		return
	}
	c.cellAt[cell] = len(c.locs)
	c.locs = append(c.locs, cell)
	c.vals = append(c.vals, v)
}

func (rp *fleetReplay) run(tr *tracer, op int64, pop *fleet.Population, ft *fleetTraced) error {
	root := tr.begin("fleet.replay", spanRef{}, op)
	defer root.end()
	var layers time.Duration
	for round := 0; round < fleetRounds; round++ {
		sp := tr.begin("fleet.tick", root, op)
		pop.Tick(1)
		layers += sp.end()
		sp = tr.begin("fleet.report", root, op)
		pop.Report(round)
		layers += sp.end()
	}

	net := netsim.New(rp.f.netSeed)
	net.SetAsync(true)
	net.SetDefaultLink(netsim.Link{LatencyMS: 1})
	plan := netsim.NewFaultPlan()
	net.SetFaultPlan(plan)
	cols := make([]*replayCollector, len(rp.zones))
	for z, zone := range rp.zones {
		cols[z] = &replayCollector{zone: zone, cellAt: map[int]int{}}
		if err := net.Register(fleet.ZoneEndpoint(z), cols[z].handle); err != nil {
			return err
		}
	}
	for i := range rp.msgs {
		if err := net.Register(fleet.ShardEndpoint(i), nil); err != nil {
			return err
		}
	}
	applyFaults(plan, pop)
	for round := 0; round < fleetRounds; round++ {
		for i := range rp.msgs {
			a0 := allocBytes()
			sp := tr.begin("netsim.deliver_batch", root, op)
			_, err := net.DeliverBatch(rp.msgs[i][round])
			layers += sp.end()
			ft.netAlloc += allocBytes() - a0
			if err != nil {
				return err
			}
		}
		a0 := allocBytes()
		sp := tr.begin("netsim.flush", root, op)
		net.Flush()
		layers += sp.end()
		ft.netAlloc += allocBytes() - a0
	}

	// Decode every zone on GOMAXPROCS workers, as Runner.Run does.
	subs := make([]*field.Field, len(rp.zones))
	iters := make([]int, len(rp.zones))
	errs := make([]error, len(rp.zones))
	dsp := tr.begin("fleet.decode", root, op)
	parallel(len(rp.zones), func(z int) {
		c := cols[z]
		sp := tr.begin("cs.cold_decode", dsp, op)
		dec, err := cs.CHSOp(rp.ops[z], c.locs, c.vals, cs.CHSOptions{MaxSupport: fleetSupport, MaxIter: fleetSupport, Tol: 1e-8, PerIter: 1})
		sp.end()
		if err != nil {
			errs[z] = err
			return
		}
		iters[z] = dec.Iterations
		subs[z], errs[z] = field.FromVector(rp.zones[z].W, rp.zones[z].H, dec.Xhat)
	})
	layers += dsp.end()
	for z, err := range errs {
		if err != nil {
			return fmt.Errorf("zone %d decode: %w", z, err)
		}
	}
	ft.iters = iters

	sp := tr.begin("cloud.assemble", root, op)
	global := field.New(fleetDim, fleetDim)
	for z, zone := range rp.zones {
		if err := field.Insert(global, zone, subs[z]); err != nil {
			return err
		}
		_ = cs.NMSE(field.Extract(rp.f.truth, zone).Data, subs[z].Data)
	}
	nm := cs.NMSE(rp.f.truth.Data, global.Data)
	layers += sp.end()
	if !(nm < 1) {
		return fmt.Errorf("replayed reconstruction collapsed: NMSE %v", nm)
	}
	ft.layers = layers
	return nil
}

// parallel runs fn(0..n-1) on min(n, GOMAXPROCS) goroutines and joins.
func parallel(n int, fn func(int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (f *fleetWL) layers(traced, base *phase, tr *tracer, c counterDelta) []metricRow {
	var reports, tx, rx, lost, dup, reorder, itSum, itN float64
	var netAlloc, runMs, coverage []float64
	for _, r := range f.runs {
		reports += float64(r.reports)
		tx += float64(r.tx)
		rx += float64(r.rx)
		lost += float64(r.lost)
		dup += float64(r.dup)
		reorder += float64(r.reorder)
		netAlloc = append(netAlloc, float64(r.netAlloc)/1e6)
		for _, it := range r.iters {
			itSum += float64(it)
			itN++
		}
	}
	for _, r := range f.runs {
		runMs = append(runMs, ms(float64(r.run)))
		coverage = append(coverage, ratio(float64(r.layers), float64(r.run)))
	}
	n := float64(len(f.runs))
	hits := float64(c["basis.cache.hits"] + c[setupPrefix+"basis.cache.hits"])
	misses := float64(c["basis.cache.misses"] + c[setupPrefix+"basis.cache.misses"])
	rows := []metricRow{
		{"fleet.build_ms", ms(median(tr.perOp("fleet.build"))), "ms"},
		{"fleet.tick_ms", ms(median(tr.perOp("fleet.tick"))), "ms"},
		{"fleet.report_ms", ms(median(tr.perOp("fleet.report"))), "ms"},
		{"fleet.run_ms", median(runMs), "ms"},
		{"fleet.layer_coverage", median(coverage), "ratio"},
		{"netsim.deliver_batch_ms", ms(median(tr.perOp("netsim.deliver_batch"))), "ms"},
		{"netsim.flush_ms", ms(median(tr.perOp("netsim.flush"))), "ms"},
		{"netsim.alloc_mb", median(netAlloc), "MB"},
		{"netsim.envelopes", ratio(reports, n), "count"},
		{"netsim.delivered_ratio", ratio(rx, tx), "ratio"},
		{"netsim.lost", ratio(lost, n), "count"},
		{"netsim.duplicated", ratio(dup, n), "count"},
		{"netsim.reordered", ratio(reorder, n), "count"},
		{"cs.cold_decode_ms", ms(median(tr.perOp("cs.cold_decode"))), "ms"},
		{"cs.cold_iterations", ratio(itSum, itN), "count"},
		{"cloud.assemble_ms", ms(median(tr.perOp("cloud.assemble"))), "ms"},
		{"basis.cache_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"trace_overhead_pct", overheadPct(traced, base), "%"},
	}
	fmt.Printf("  fleet bases: %.0f campaigns; delivered_ratio = rx %.0f / tx %.0f; cache hits %.0f of %.0f lookups; iterations over %.0f zone decodes; coverage = replayed layer time / traced Run wall\n",
		n, rx, tx, hits, hits+misses, itN)
	return rows
}

// overheadPct is the tracing overhead: traced minus untraced median op
// latency, as a percentage of the untraced median.
func overheadPct(traced, untraced *phase) float64 {
	u := untraced.lat.quantile(0.5)
	return 100 * ratio(traced.lat.quantile(0.5)-u, u)
}

// serialBaseline reruns the campaign at GOMAXPROCS=1: the single-thread
// baseline, whose NMSE must be bit-identical to the parallel runs'.
func (f *fleetWL) serialBaseline(parallelPh *phase, o options) ([]metricRow, int64, int64) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	n := 3
	if o.short {
		n = 1
	}
	var times []float64
	var failed int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, _, _, err := f.campaign(nil, 0, spanRef{})
		d := time.Since(t0)
		if err == nil {
			err = f.check(res, false)
		}
		if err != nil {
			failed++
			fmt.Printf("  serial campaign FAILED: %v\n", err)
			continue
		}
		times = append(times, ms(float64(d)))
	}
	serial := median(times)
	fmt.Printf("  fleet serial baseline: %d campaigns at GOMAXPROCS=1, p50 %.1f ms, NMSE bit-identical to GOMAXPROCS=%d\n", len(times), serial, prev)
	return []metricRow{
		{"serial.campaign_ms", serial, "ms"},
		{"serial.speedup", ratio(serial, ms(parallelPh.lat.quantile(0.5))), "ratio"},
	}, int64(n), failed
}

func (f *fleetWL) close() {}
