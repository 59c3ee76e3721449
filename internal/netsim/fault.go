// Fault-injection substrate: a FaultPlan scripts link partitions, node
// crash/restart, Gilbert–Elliott burst loss, and duplicate/reorder
// corruption for the async delivery path. Every fault decision is keyed
// on the network's deterministic message counter or drawn from its
// seeded RNG — never wall clock — so a faulted run replays identically
// from its seed, which is what lets the chaos tests assert exact
// outcomes under GOMAXPROCS=1 and N alike.
package netsim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Fault observability (no-ops until obs.Enable). These count injected
// faults by mechanism; the drops they cause are additionally counted in
// netsim.lost.messages and the per-node Stats so Totals() stays the
// authoritative accounting.
var (
	obsFaultDown      = obs.GetCounter("netsim.fault.down")
	obsFaultPartition = obs.GetCounter("netsim.fault.partitioned")
	obsFaultBurst     = obs.GetCounter("netsim.fault.burst_lost")
	obsFaultDup       = obs.GetCounter("netsim.fault.duplicated")
	obsFaultReorder   = obs.GetCounter("netsim.fault.reordered")
)

// ErrNodeDown is the sentinel matched by errors.Is for sends involving a
// crashed node. The concrete error is a *NodeDownError carrying the node
// ID; it marks itself retryable so the bus retry layer treats a crashed
// peer as transient (it may restart).
var ErrNodeDown = errors.New("netsim: node down")

// NodeDownError reports a send to or from a node the fault plan has
// taken down. No transmission is charged: the failure is detected at the
// MAC/route layer before the radio spends energy, which keeps the
// "error ⇒ nothing charged" accounting invariant that Broadcast's
// attempted count relies on.
type NodeDownError struct{ ID string }

func (e *NodeDownError) Error() string { return fmt.Sprintf("netsim: node %q down", e.ID) }

// Is matches the ErrNodeDown sentinel.
func (e *NodeDownError) Is(target error) bool { return target == ErrNodeDown }

// Retryable marks the failure transient for retry-policy classification:
// a crashed node may restart within the caller's deadline.
func (e *NodeDownError) Retryable() bool { return true }

// GilbertElliott parameterizes a two-state burst-loss channel: the link
// flips between a good and a bad state with the given transition
// probabilities, and drops messages at the state's loss rate. Configured
// on a link it replaces the link's plain LossProb model.
type GilbertElliott struct {
	PGoodToBad float64 // per-message P(good → bad)
	PBadToGood float64 // per-message P(bad → good)
	LossGood   float64 // loss probability while good (often 0)
	LossBad    float64 // loss probability while bad (the burst)
}

// window is a half-open interval [From, To) of network message counts.
type window struct{ from, to int }

// inWindows reports whether any window contains message count i.
func inWindows(ws []window, i int) bool {
	for _, w := range ws {
		if i >= w.from && i < w.to {
			return true
		}
	}
	return false
}

// burstLink is one Gilbert–Elliott channel's live state.
type burstLink struct {
	cfg GilbertElliott
	bad bool
}

// linkKey names a directed link in a plan. A struct key, unlike a
// concatenated "from→to" string, cannot alias two different pairs.
type linkKey struct{ from, to string }

// FaultPlan scripts deterministic failures for one Network. All
// schedules are keyed on the network's message counter (the index Send
// assigns to each transmission attempt), not wall clock, so a plan
// replays identically for a fixed seed. A plan is safe for concurrent
// use and may be mutated while traffic flows (Down/Up model a live
// operator or supervisor).
//
// The plan is configured by endpoint name. A Network does not consult
// these maps per message: it caches each endpoint's and each pair's
// resolved state under its own interned IDs, and re-resolves lazily
// whenever gen — bumped by every mutation — has moved. The cache lives
// on the Network, so one plan shared by several networks stays correct.
type FaultPlan struct {
	mu          sync.Mutex
	gen         uint64                 // guarded by mu; bumped by every mutation
	down        map[string]bool        // guarded by mu; nodes currently crashed
	crashes     map[string][]window    // guarded by mu; scheduled crash windows per node
	parts       map[linkKey][]window   // guarded by mu; partition windows per directed link
	burst       map[linkKey]*burstLink // guarded by mu; Gilbert–Elliott state per directed link
	dupProb     float64                // guarded by mu; async duplicate probability
	reorderProb float64                // guarded by mu; async reorder probability
}

// NewFaultPlan returns an empty plan (no faults).
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{
		down:    make(map[string]bool),
		crashes: make(map[string][]window),
		parts:   make(map[linkKey][]window),
		burst:   make(map[linkKey]*burstLink),
	}
}

// Down crashes a node immediately: sends to or from it return a typed
// *NodeDownError until Up is called.
func (p *FaultPlan) Down(id string) {
	p.mu.Lock()
	p.down[id] = true
	p.gen++
	p.mu.Unlock()
}

// Up restarts a node taken down with Down.
func (p *FaultPlan) Up(id string) {
	p.mu.Lock()
	delete(p.down, id)
	p.gen++
	p.mu.Unlock()
}

// Crash schedules a crash/restart cycle: the node is down for message
// counts in [fromMsg, toMsg) and back up afterwards.
func (p *FaultPlan) Crash(id string, fromMsg, toMsg int) {
	p.mu.Lock()
	p.crashes[id] = append(p.crashes[id], window{fromMsg, toMsg})
	p.gen++
	p.mu.Unlock()
}

// Partition severs the a↔b link (both directions) for message counts in
// [fromMsg, toMsg): messages on the link are silently dropped — the
// sender's radio is still charged, mirroring loss semantics.
func (p *FaultPlan) Partition(a, b string, fromMsg, toMsg int) {
	p.mu.Lock()
	ab, ba := linkKey{a, b}, linkKey{b, a}
	p.parts[ab] = append(p.parts[ab], window{fromMsg, toMsg})
	p.parts[ba] = append(p.parts[ba], window{fromMsg, toMsg})
	p.gen++
	p.mu.Unlock()
}

// SetBurstLink installs a Gilbert–Elliott burst-loss channel on the
// directed from→to link, replacing the link's plain LossProb model.
func (p *FaultPlan) SetBurstLink(from, to string, cfg GilbertElliott) {
	p.mu.Lock()
	p.burst[linkKey{from, to}] = &burstLink{cfg: cfg}
	p.gen++
	p.mu.Unlock()
}

// SetDuplexBurstLink installs the same burst-loss channel on both
// directions of a link (independent state per direction).
func (p *FaultPlan) SetDuplexBurstLink(a, b string, cfg GilbertElliott) {
	p.SetBurstLink(a, b, cfg)
	p.SetBurstLink(b, a, cfg)
}

// SetDuplicateProb sets the probability that an async-queued message is
// delivered twice at Flush.
func (p *FaultPlan) SetDuplicateProb(q float64) {
	p.mu.Lock()
	p.dupProb = q
	p.gen++
	p.mu.Unlock()
}

// SetReorderProb sets the probability that an async-queued message is
// deferred behind the rest of its Flush batch.
func (p *FaultPlan) SetReorderProb(q float64) {
	p.mu.Lock()
	p.reorderProb = q
	p.gen++
	p.mu.Unlock()
}

// genLocked returns the plan's mutation generation.
func (p *FaultPlan) genLocked() uint64 { return p.gen }

// nodeFaultsLocked returns a node's live down flag and crash windows.
func (p *FaultPlan) nodeFaultsLocked(id string) (down bool, crashes []window) {
	return p.down[id], p.crashes[id]
}

// linkFaultsLocked returns a directed link's partition windows and burst
// channel (nil: none).
func (p *FaultPlan) linkFaultsLocked(from, to string) ([]window, *burstLink) {
	k := linkKey{from, to}
	return p.parts[k], p.burst[k]
}

// dupReorderLocked returns the async corruption knobs.
func (p *FaultPlan) dupReorderLocked() (dup, reorder float64) {
	return p.dupProb, p.reorderProb
}

// epFaults is a network's cached copy of one endpoint's plan state,
// current while gen equals the network's faultGen.
type epFaults struct {
	gen     uint64
	down    bool
	crashes []window
}

// pairFaults is a network's cached copy of one directed pair's plan
// state, current while gen equals the network's faultGen.
type pairFaults struct {
	gen   uint64
	parts []window
	burst *burstLink
}

// faultAction is the plan's verdict for one transmission attempt.
type faultAction int

const (
	faultNone         faultAction = iota // no opinion; apply the link's own loss model
	faultDown                            // a party is crashed: typed error, nothing charged
	faultPartition                       // link partitioned: charged, silently dropped
	faultBurst                           // burst channel dropped it: charged, silently dropped
	faultDeliverBurst                    // burst channel delivered it: skip the plain loss draw
)

// downLocked reports whether endpoint id is down at msgIdx, refreshing
// the endpoint's cached plan state if the generation moved. The caller
// holds n.mu and the installed plan's lock (see lockPlanLocked).
func (n *Network) downLocked(id int32, msgIdx int) bool {
	e := &n.eps[id]
	f := &e.faults
	if f.gen != n.faultGen {
		f.down, f.crashes = n.plan.nodeFaultsLocked(e.name)
		f.gen = n.faultGen
	}
	return f.down || inWindows(f.crashes, msgIdx)
}

// verdictLocked decides one transmission's fate from the cached plan
// state, under the same locks as downLocked. The burst channel walks on
// the network's seeded RNG so burst-state walks are reproducible; the
// draw order (sender down, receiver down, partition, burst transition,
// burst loss) is part of the determinism contract. The second result is
// the down endpoint's ID on faultDown.
func (n *Network) verdictLocked(ps *pairState, msgIdx int) (faultAction, int32) {
	if n.downLocked(ps.from, msgIdx) {
		return faultDown, ps.from
	}
	if n.downLocked(ps.to, msgIdx) {
		return faultDown, ps.to
	}
	f := &ps.faults
	if f.gen != n.faultGen {
		f.parts, f.burst = n.plan.linkFaultsLocked(n.eps[ps.from].name, n.eps[ps.to].name)
		f.gen = n.faultGen
	}
	if inWindows(f.parts, msgIdx) {
		return faultPartition, -1
	}
	bl := f.burst
	if bl == nil {
		return faultNone, -1
	}
	if bl.bad {
		if n.rng.Float64() < bl.cfg.PBadToGood {
			bl.bad = false
		}
	} else {
		if n.rng.Float64() < bl.cfg.PGoodToBad {
			bl.bad = true
		}
	}
	loss := bl.cfg.LossGood
	if bl.bad {
		loss = bl.cfg.LossBad
	}
	if loss > 0 && n.rng.Float64() < loss {
		return faultBurst, -1
	}
	return faultDeliverBurst, -1
}
