package fleet

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// goldenFaults is the golden campaign's fault plan: Gilbert–Elliott
// uplinks on every shard but the first (whose link instead carries a
// plain lossy netsim.Link, so the no-verdict path and the link loss draw
// both run), dup and reorder at Flush, one crash window on zone 1's
// collector (down at enqueue and at Flush) and one partition window on
// shard 2's uplink.
func goldenFaults(r *Runner) {
	burst := netsim.GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.6}
	for _, s := range r.Pop.Shards {
		from, to := ShardEndpoint(s.Index), ZoneEndpoint(s.Zone)
		if s.Index == 0 {
			r.Net.SetLink(from, to, netsim.Link{LatencyMS: 3, LossProb: 0.1})
			continue
		}
		r.Plan.SetBurstLink(from, to, burst)
	}
	r.Plan.SetDuplicateProb(0.02)
	r.Plan.SetReorderProb(0.05)
	r.Plan.Crash(ZoneEndpoint(1), 6000, 9000)
	s2 := r.Pop.Shards[2]
	r.Plan.Partition(ShardEndpoint(2), ZoneEndpoint(s2.Zone), 11000, 15000)
}

// TestFleetCampaignGolden pins a faulted campaign's outputs bit for bit:
// the global NMSE, simulated time, traffic totals and batch outcomes.
// Every fault-verdict branch runs (down, partition, burst loss, burst
// delivery, plain link loss, dup, reorder, down-at-flush), so any change
// to the netsim RNG stream, verdict order or accounting moves at least
// one pinned value. The values were captured from the string-keyed
// netsim implementation; a refactor of the transport must reproduce
// them unchanged.
func TestFleetCampaignGolden(t *testing.T) {
	cfg := Config{
		Nodes: 20000, ShardSize: 1024,
		FieldW: 64, FieldH: 64, ZoneRows: 2, ZoneCols: 2, Seed: 2024,
	}
	obs.Enable()
	defer obs.Disable()
	branches := []string{"netsim.fault.down", "netsim.fault.partitioned", "netsim.fault.burst_lost",
		"netsim.fault.duplicated", "netsim.fault.reordered"}
	before := make([]int64, len(branches))
	for i, name := range branches {
		before[i] = obs.GetCounter(name).Value()
	}
	res := runFleet(t, cfg, 256, CampaignConfig{Rounds: 16, MaxSupport: 40}, goldenFaults)
	for i, name := range branches {
		if obs.GetCounter(name).Value() == before[i] {
			t.Errorf("fault branch %s never ran; the golden campaign must exercise it", name)
		}
	}

	const (
		wantNMSEBits    = uint64(0x3f3e8759a9fe6fc3) // 0.0004658311754555078
		wantSimTimeBits = uint64(0x40e338c000000000) // 39366
	)
	wantTotals := netsim.Stats{TxMessages: 39056, RxMessages: 35588, TxBytes: 937344, RxBytes: 854112, Dropped: 4146}
	const wantLost, wantDown, wantEnvelopes, wantReports = 3858, 944, 35588, 40000

	if got := math.Float64bits(res.GlobalNMSE); got != wantNMSEBits {
		t.Errorf("GlobalNMSE %v (bits %#x), want bits %#x", res.GlobalNMSE, got, wantNMSEBits)
	}
	if got := math.Float64bits(res.SimTimeMS); got != wantSimTimeBits {
		t.Errorf("SimTimeMS %v (bits %#x), want bits %#x", res.SimTimeMS, got, wantSimTimeBits)
	}
	if res.Totals != wantTotals {
		t.Errorf("Totals %+v, want %+v", res.Totals, wantTotals)
	}
	if res.Lost != wantLost || res.Down != wantDown || res.Envelopes != wantEnvelopes || res.Reports != wantReports {
		t.Errorf("Lost/Down/Envelopes/Reports = %d/%d/%d/%d, want %d/%d/%d/%d",
			res.Lost, res.Down, res.Envelopes, res.Reports, wantLost, wantDown, wantEnvelopes, wantReports)
	}
}
