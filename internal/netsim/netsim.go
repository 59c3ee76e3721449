// Package netsim is the simulated transport substrate: an in-process
// message network with per-link loss and latency bookkeeping and — the
// part the evaluation leans on — exact per-node transmission and byte
// accounting. The paper's O(N²)→O(NM) transmission claim (after Luo et
// al.) is about how many radio sends the gathering scheme needs, which the
// counters here measure directly.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Global traffic observability across all Network instances (no-ops until
// obs.Enable). The per-network Stats counters remain the authoritative
// per-node accounting; these mirror them so a live /metrics.json or an
// experiments -obs-out dump shows the same byte totals as Totals().
var (
	obsTxMessages = obs.GetCounter("netsim.tx.messages")
	obsTxBytes    = obs.GetCounter("netsim.tx.bytes")
	obsRxMessages = obs.GetCounter("netsim.rx.messages")
	obsRxBytes    = obs.GetCounter("netsim.rx.bytes")
	obsLost       = obs.GetCounter("netsim.lost.messages")
	obsLatency    = obs.GetHistogram("netsim.link.latency_ms", obs.LatencyBuckets)
)

// Message is one datagram between simulated nodes.
type Message struct {
	From, To string
	Topic    string
	Payload  []byte
}

// Handler consumes a delivered message.
type Handler func(Message)

// Link describes one directed link's quality.
type Link struct {
	LatencyMS float64 // recorded, not slept: simulation time bookkeeping
	LossProb  float64 // [0,1]
}

// Stats is a snapshot of one node's traffic counters.
type Stats struct {
	TxMessages, RxMessages int
	TxBytes, RxBytes       int
	Dropped                int
}

// Network is an in-process simulated network. All methods are safe for
// concurrent use.
//
// Endpoint names are the only public address, but inside the network
// every name is interned once to a dense int32 ID: handlers, stats and
// cached fault state live in the eps slice, links and per-pair fault
// state in the pairs slice, and the async queue carries resolved IDs,
// so the per-message path is integer indexing. Names are resolved with
// one map lookup each, behind a one-entry memo of the last (From, To)
// pair, which a fleet batch (one shard → one zone) hits on every
// message after the first.
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand         // guarded by mu
	ids      map[string]int32   // guarded by mu; interned endpoint names
	eps      []endpoint         // guarded by mu; indexed by endpoint ID
	pairIdx  map[[2]int32]int32 // guarded by mu; (from, to) endpoint IDs → index into pairs
	pairs    []pairState        // guarded by mu; directed links seen by SetLink or traffic
	memo     pairMemo           // guarded by mu; last resolved (From, To)
	defLink  Link               // guarded by mu
	simTime  float64            // guarded by mu; accumulated virtual latency across delivered messages
	msgCount int                // guarded by mu; transmission attempts so far (fault-plan clock)
	plan     *FaultPlan         // guarded by mu; nil = no faults
	planGen  uint64             // guarded by mu; n.plan's generation when last checked (SetFaultPlan invalidates the cache itself)
	faultGen uint64             // guarded by mu; current fault-cache generation (eps/pairs entries carry the one they were resolved at)
	async    bool               // guarded by mu; queue deliveries until Flush
	queue    []queued           // guarded by mu; pending async deliveries, drained in place by Flush
	deferred []queued           // guarded by mu; Flush's reorder scratch
	dlv      []delivery         // guarded by mu; handler-delivery buffer, handed out while handlers run (nil while out)
}

// endpoint is one interned name. A name passed to SetLink before
// Register is interned unregistered: it holds link configuration but
// cannot send or receive, and the accessors skip it.
type endpoint struct {
	name       string
	registered bool
	handler    Handler
	stats      Stats
	faults     epFaults // cached plan state for this endpoint
}

// pairState is one directed link: its configured quality and the cached
// plan state for the pair.
type pairState struct {
	from, to int32
	link     Link
	hasLink  bool // false: the network's default link applies
	faults   pairFaults
}

// pairMemo remembers the last resolved (From, To) names. Entries are
// never unregistered and IDs are never reused, so a memo stays valid
// until the next miss overwrites it.
type pairMemo struct {
	ok       bool
	from, to string
	pair     int32
}

// queued is one async message awaiting Flush, with its endpoints
// already resolved to their pair.
type queued struct {
	msg  Message
	pair int32
}

// delivery is one handler invocation owed after the lock is released.
type delivery struct {
	msg     Message
	h       Handler
	latency float64
}

// ErrUnknownNode reports a send to an unregistered node.
var ErrUnknownNode = errors.New("netsim: unknown node")

// New returns an empty network; seed makes loss deterministic.
func New(seed int64) *Network {
	return &Network{
		rng:     rand.New(rand.NewSource(seed)),
		ids:     make(map[string]int32),
		pairIdx: make(map[[2]int32]int32),
	}
}

// internLocked returns name's endpoint ID, adding it unregistered on
// first sight.
func (n *Network) internLocked(name string) int32 {
	if id, ok := n.ids[name]; ok {
		return id
	}
	id := int32(len(n.eps))
	n.ids[name] = id
	n.eps = append(n.eps, endpoint{name: name})
	return id
}

// pairLocked returns the index of the from→to pair, adding it on first
// sight.
func (n *Network) pairLocked(from, to int32) int32 {
	k := [2]int32{from, to}
	if i, ok := n.pairIdx[k]; ok {
		return i
	}
	i := int32(len(n.pairs))
	n.pairIdx[k] = i
	n.pairs = append(n.pairs, pairState{from: from, to: to})
	return i
}

// Register adds a node with its delivery handler (nil for a sink that
// just counts).
func (n *Network) Register(id string, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	i := n.internLocked(id)
	if n.eps[i].registered {
		return fmt.Errorf("netsim: node %q already registered", id)
	}
	n.eps[i].registered = true
	n.eps[i].handler = h
	return nil
}

// SetDefaultLink sets the link quality used when no explicit link exists.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	n.defLink = l
	n.mu.Unlock()
}

// SetLink sets a directed link's quality. The endpoints need not be
// registered yet; the link applies once they are.
func (n *Network) SetLink(from, to string, l Link) {
	n.mu.Lock()
	ps := &n.pairs[n.pairLocked(n.internLocked(from), n.internLocked(to))]
	ps.link, ps.hasLink = l, true
	n.mu.Unlock()
}

// SetFaultPlan installs (or, with nil, removes) the fault plan consulted
// on every transmission attempt. See FaultPlan for the semantics.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	n.plan = p
	n.faultGen++ // nothing cached from the previous plan survives
	n.mu.Unlock()
}

// MsgCount returns the number of transmission attempts so far — the
// deterministic clock that fault-plan windows are keyed on.
func (n *Network) MsgCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.msgCount
}

// SetAsync toggles asynchronous delivery: when on, messages that survive
// loss are queued instead of handled inline, and Flush delivers the
// batch (applying the fault plan's duplicate/reorder knobs). Call Flush
// before turning async off, or queued messages will sit until the next
// Flush.
func (n *Network) SetAsync(on bool) {
	n.mu.Lock()
	n.async = on
	n.mu.Unlock()
}

// Pending returns the number of messages queued for async delivery.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// Send delivers a message, applying the fault plan and link loss and
// counting traffic. The transmission is charged to the sender even if
// the message is lost (the radio still spent the energy), but NOT when
// an error is returned: a down or unknown endpoint is detected before
// the radio transmits, so "error ⇒ nothing charged" holds. Delivery is
// synchronous unless SetAsync is on.
func (n *Network) Send(msg Message) error {
	_, err := n.Deliver(msg)
	return err
}

// txOutcome classifies one transmission attempt inside transmitLocked.
type txOutcome uint8

const (
	txErr       txOutcome = iota // unknown endpoint: nothing charged
	txDown                       // a party is down: nothing charged
	txLost                       // charged to the sender, dropped in flight
	txQueued                     // accepted onto the async queue
	txDelivered                  // sync delivery: rx charged, handler pending
)

// obsDelta batches observability increments accumulated while the
// network lock is held; flush applies them to the global counters after
// unlock, so a DeliverBatch of thousands of messages costs a handful of
// atomic adds instead of a few per message.
type obsDelta struct {
	txMsgs, txBytes, rxMsgs, rxBytes, lost     int64
	down, partition, burst, duplicate, reorder int64
}

func (d *obsDelta) flush() {
	if d.txMsgs != 0 {
		obsTxMessages.Add(d.txMsgs)
		obsTxBytes.Add(d.txBytes)
	}
	if d.rxMsgs != 0 {
		obsRxMessages.Add(d.rxMsgs)
		obsRxBytes.Add(d.rxBytes)
	}
	if d.lost != 0 {
		obsLost.Add(d.lost)
	}
	if d.down != 0 {
		obsFaultDown.Add(d.down)
	}
	if d.partition != 0 {
		obsFaultPartition.Add(d.partition)
	}
	if d.burst != 0 {
		obsFaultBurst.Add(d.burst)
	}
	if d.duplicate != 0 {
		obsFaultDup.Add(d.duplicate)
	}
	if d.reorder != 0 {
		obsFaultReorder.Add(d.reorder)
	}
}

// resolveLocked maps a message's endpoint names to its pair index: the
// memo on a repeat of the last pair, otherwise one map lookup per name.
// Both endpoints must be registered.
func (n *Network) resolveLocked(from, to string) (int32, error) {
	m := &n.memo
	if m.ok && from == m.from && to == m.to {
		return m.pair, nil
	}
	f, ok := n.ids[from]
	if !ok || !n.eps[f].registered {
		return -1, fmt.Errorf("%w: sender %q", ErrUnknownNode, from)
	}
	t, ok := n.ids[to]
	if !ok || !n.eps[t].registered {
		return -1, fmt.Errorf("%w: receiver %q", ErrUnknownNode, to)
	}
	i := n.pairLocked(f, t)
	*m = pairMemo{ok: true, from: from, to: to, pair: i}
	return i, nil
}

// linkLocked returns the pair's effective link quality.
func (n *Network) linkLocked(ps *pairState) Link {
	if ps.hasLink {
		return ps.link
	}
	return n.defLink
}

// lockPlanLocked takes the installed plan's lock — once per Deliver,
// DeliverBatch or Flush, never per message — and starts a new fault-cache
// generation if the plan changed since the network last looked. The
// caller holds n.mu (lock order Network.mu → FaultPlan.mu) and unlocks
// the returned plan, when non-nil, before releasing n.mu.
func (n *Network) lockPlanLocked() *FaultPlan {
	p := n.plan
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if g := p.genLocked(); g != n.planGen {
		n.planGen = g
		n.faultGen++
	}
	return p
}

// transmitLocked runs one transmission attempt under n.mu (and the
// plan's lock, if a plan is installed): fault-plan verdict, tx
// accounting, loss draw, then either async enqueue or sync rx
// accounting. It consumes exactly the RNG draws Deliver historically
// consumed, in the same order, so a batch of calls is stream-identical
// to sequential Deliver calls with the same seed. Observability deltas
// go to d (the caller flushes after unlock); on txDelivered the caller
// still owes the handler invocation and the latency observation. downID
// names the down endpoint on txDown; err is non-nil only for txErr.
func (n *Network) transmitLocked(msg *Message, d *obsDelta) (out txOutcome, h Handler, latencyMS float64, downID string, err error) {
	pi, err := n.resolveLocked(msg.From, msg.To)
	if err != nil {
		return txErr, nil, 0, "", err
	}
	ps := &n.pairs[pi]
	idx := n.msgCount
	n.msgCount++
	size := len(msg.Payload)
	tx := &n.eps[ps.from].stats
	skipLoss := false
	if n.plan != nil {
		act, id := n.verdictLocked(ps, idx)
		switch act {
		case faultDown:
			d.down++
			return txDown, nil, 0, n.eps[id].name, nil
		case faultPartition, faultBurst:
			tx.TxMessages++
			tx.TxBytes += size
			tx.Dropped++
			d.txMsgs++
			d.txBytes += int64(size)
			d.lost++
			if act == faultPartition {
				d.partition++
			} else {
				d.burst++
			}
			return txLost, nil, 0, "", nil
		case faultDeliverBurst:
			skipLoss = true // the burst channel already decided delivery
		}
	}
	tx.TxMessages++
	tx.TxBytes += size
	d.txMsgs++
	d.txBytes += int64(size)
	link := n.linkLocked(ps)
	if !skipLoss && link.LossProb > 0 && n.rng.Float64() < link.LossProb {
		tx.Dropped++
		d.lost++
		return txLost, nil, 0, "", nil // lost in transit; not an error
	}
	if n.async {
		n.queue = append(n.queue, queued{msg: *msg, pair: pi})
		return txQueued, nil, 0, "", nil // accepted; rx accounting happens at Flush
	}
	rx := &n.eps[ps.to]
	rx.stats.RxMessages++
	rx.stats.RxBytes += size
	n.simTime += link.LatencyMS
	d.rxMsgs++
	d.rxBytes += int64(size)
	return txDelivered, rx.handler, link.LatencyMS, "", nil
}

// Deliver is Send exposing the delivery outcome: delivered=false with a
// nil error means the message was transmitted (and charged) but lost in
// flight — loss is not an error, but interceptors bridging this network
// into a bus need to know whether to fan out. In async mode delivered
// means "queued"; the fate of queued messages is decided at Flush.
func (n *Network) Deliver(msg Message) (delivered bool, err error) {
	var d obsDelta
	n.mu.Lock()
	p := n.lockPlanLocked()
	out, h, latency, downID, err := n.transmitLocked(&msg, &d)
	if p != nil {
		p.mu.Unlock()
	}
	n.mu.Unlock()
	d.flush()
	switch out {
	case txErr:
		return false, err
	case txDown:
		return false, &NodeDownError{ID: downID}
	case txLost:
		return false, nil
	case txQueued:
		return true, nil
	}
	obsLatency.Observe(latency)
	if h != nil {
		h(msg)
	}
	return true, nil
}

// BatchResult classifies the messages of one DeliverBatch call.
type BatchResult struct {
	Queued    int // accepted onto the async queue (fate decided at Flush)
	Delivered int // sync mode: rx charged and handler run
	Lost      int // charged to the sender, dropped in flight
	Down      int // a down endpoint: skipped, nothing charged
}

// DeliverBatch transmits a slice of messages under one acquisition of the
// network lock and of the fault plan's lock — the fleet layer's enqueue
// path, where a shard's round of measurement envelopes would otherwise
// pay a lock handshake and a few atomic counter updates per message.
// Per-message semantics are identical to calling Deliver in slice order
// (same fault verdicts, same RNG draw order, same per-node accounting),
// so batched enqueue followed by Flush is equivalent to sequential sends;
// TestSendDeliverEquivalence pins this. Two deviations, both deliberate:
// a down endpoint does not fail the batch — the message is skipped with
// nothing charged (the "error ⇒ nothing charged" contract) and counted in
// Down — and only an unknown endpoint aborts, returning the partial
// result alongside the error. In sync mode handlers run after the locks
// are released, in slice order.
func (n *Network) DeliverBatch(msgs []Message) (BatchResult, error) {
	var (
		res    BatchResult
		d      obsDelta
		batErr error
	)
	n.mu.Lock()
	p := n.lockPlanLocked()
	out := n.dlv
	for i := range msgs {
		o, h, latency, _, err := n.transmitLocked(&msgs[i], &d)
		if o == txErr {
			batErr = err
			break // abort; messages already charged still get their handlers
		}
		switch o {
		case txDown:
			res.Down++
		case txLost:
			res.Lost++
		case txQueued:
			res.Queued++
		case txDelivered:
			res.Delivered++
			out = append(out, delivery{msgs[i], h, latency})
		}
	}
	if p != nil {
		p.mu.Unlock()
	}
	if len(out) > 0 {
		n.dlv = nil // handed out until runDeliveries returns it
	}
	n.mu.Unlock()
	d.flush()
	if len(out) > 0 {
		n.runDeliveries(out)
	}
	return res, batErr
}

// runDeliveries invokes the handlers owed for out, in order, with no lock
// held, then clears out (so it pins no payloads) and hands it back as the
// network's delivery buffer. The buffer is handed out while handlers run:
// a handler that re-enters Deliver, DeliverBatch or Flush, or a concurrent
// Flush, finds none and appends to a fresh one, and the larger of the two
// is kept on return.
func (n *Network) runDeliveries(out []delivery) {
	for i := range out {
		obsLatency.Observe(out[i].latency)
		if h := out[i].h; h != nil {
			h(out[i].msg)
		}
	}
	clear(out)
	n.mu.Lock()
	if cap(out) > cap(n.dlv) {
		n.dlv = out[:0]
	}
	n.mu.Unlock()
}

// Flush delivers the async queue, applying the fault plan's reorder and
// duplicate knobs: each message may be deferred behind the rest of the
// batch, and each delivery may be doubled.
//
// Charged-vs-delivered invariant (the queued-message analogue of Send's
// "error ⇒ nothing charged"): every queued message was already tx-charged
// to its sender at enqueue, and Flush resolves it exactly once —
//
//   - receiver down at flush time: the sender is charged exactly one
//     Dropped, nothing is rx-charged, and the duplicate draw is never
//     consulted (a copy of a message that cannot be delivered is not a
//     duplicate event);
//   - otherwise: rx messages/bytes and link latency are charged once per
//     delivered copy, and n.simTime accumulates in delivery order — the
//     queue order after the reorder pass, which is the order handlers run.
//
// Under this contract the obs mirrors reconcile with Totals():
// netsim.rx.messages grows by exactly the handler deliveries performed,
// netsim.lost.messages by the senders' Dropped growth, netsim.fault.dup
// only for copies actually delivered, and netsim.fault.down once per
// message dropped to a down receiver. TestFlushAccountingInvariant pins
// all of it. Returns the number of handler deliveries performed.
//
// The whole queue is resolved under the locks, so Flush drains it in
// place and keeps its capacity for the next round; handlers then run
// unlocked from the delivery buffer (see runDeliveries). A message a
// handler sends meanwhile lands on the emptied queue for the next Flush.
func (n *Network) Flush() int {
	var d obsDelta
	n.mu.Lock()
	p := n.lockPlanLocked()
	q := n.queue
	var dupP, reoP float64
	if p != nil {
		dupP, reoP = p.dupReorderLocked()
	}
	if reoP > 0 && len(q) > 1 {
		// Stable partition in place: kept messages compact to the front,
		// deferred ones follow in their original order.
		kept, def := 0, n.deferred
		for i := range q {
			if n.rng.Float64() < reoP {
				def = append(def, q[i])
				d.reorder++
			} else {
				q[kept] = q[i]
				kept++
			}
		}
		copy(q[kept:], def)
		clear(def)
		n.deferred = def[:0]
	}
	out := n.dlv
	for i := range q {
		m := &q[i]
		ps := &n.pairs[m.pair]
		// Down check first: a message to a receiver that crashed after
		// enqueue is dropped before the duplicate draw, so the dup RNG
		// stream and netsim.fault.dup only see deliverable messages and
		// the sender is charged one Dropped regardless of what a
		// duplicate draw would have said.
		if p != nil && n.downLocked(ps.to, n.msgCount) {
			n.eps[ps.from].stats.Dropped++
			d.lost++
			d.down++
			continue
		}
		copies := 1
		if dupP > 0 && n.rng.Float64() < dupP {
			copies = 2
			d.duplicate++
		}
		latency := n.linkLocked(ps).LatencyMS
		size := len(m.msg.Payload)
		rx := &n.eps[ps.to]
		for c := 0; c < copies; c++ {
			rx.stats.RxMessages++
			rx.stats.RxBytes += size
			n.simTime += latency
			d.rxMsgs++
			d.rxBytes += int64(size)
			out = append(out, delivery{m.msg, rx.handler, latency})
		}
	}
	clear(q)
	n.queue = q[:0]
	if p != nil {
		p.mu.Unlock()
	}
	if len(out) > 0 {
		n.dlv = nil // handed out until runDeliveries returns it
	}
	n.mu.Unlock()
	d.flush()
	if len(out) > 0 {
		n.runDeliveries(out)
	}
	return len(out)
}

// SetDuplexLink sets both directions of a link to the same quality.
func (n *Network) SetDuplexLink(a, b string, l Link) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
}

// Broadcast sends the payload from one node to every other registered
// node, returning how many transmissions were attempted (and therefore
// charged to the sender — Send charges even on loss but never on error).
// Loss applies per receiver independently. On a mid-loop failure the
// count of transmissions attempted before the failing one is returned
// alongside the error, so the caller's view agrees with the sender's
// byte/tx accounting instead of reporting zero for a partially charged
// broadcast.
func (n *Network) Broadcast(from, topic string, payload []byte) (int, error) {
	n.mu.Lock()
	if id, ok := n.ids[from]; !ok || !n.eps[id].registered {
		n.mu.Unlock()
		return 0, fmt.Errorf("%w: sender %q", ErrUnknownNode, from)
	}
	targets := make([]string, 0, len(n.eps))
	for i := range n.eps {
		if e := &n.eps[i]; e.registered && e.name != from {
			targets = append(targets, e.name)
		}
	}
	n.mu.Unlock()
	sort.Strings(targets) // deterministic delivery order
	attempted := 0
	for _, to := range targets {
		if err := n.Send(Message{From: from, To: to, Topic: topic, Payload: payload}); err != nil {
			return attempted, err
		}
		attempted++
	}
	return attempted, nil
}

// NodeStats returns a copy of a node's counters.
func (n *Network) NodeStats(id string) (Stats, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	i, ok := n.ids[id]
	if !ok || !n.eps[i].registered {
		return Stats{}, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return n.eps[i].stats, nil
}

// Totals sums the counters across all nodes.
func (n *Network) Totals() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t Stats
	for i := range n.eps {
		if s := &n.eps[i].stats; n.eps[i].registered {
			t.TxMessages += s.TxMessages
			t.RxMessages += s.RxMessages
			t.TxBytes += s.TxBytes
			t.RxBytes += s.RxBytes
			t.Dropped += s.Dropped
		}
	}
	return t
}

// MaxTx returns the node with the highest transmit count and that count —
// the bottleneck metric for the Fig. 1 hierarchy experiment. Ties go to
// the lexicographically smallest name.
func (n *Network) MaxTx() (string, int) {
	return n.maxBy(func(s *Stats) int { return s.TxMessages })
}

// MaxRx returns the node with the highest receive count and that count.
func (n *Network) MaxRx() (string, int) {
	return n.maxBy(func(s *Stats) int { return s.RxMessages })
}

// maxBy returns the registered node maximising count, breaking ties by
// the smallest name (deterministic whatever the registration order), or
// ("", -1) with no nodes.
func (n *Network) maxBy(count func(*Stats) int) (string, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	best, bestN := "", -1
	for i := range n.eps {
		e := &n.eps[i]
		if !e.registered {
			continue
		}
		if c := count(&e.stats); c > bestN || (c == bestN && e.name < best) {
			best, bestN = e.name, c
		}
	}
	return best, bestN
}

// SimTimeMS returns the accumulated virtual latency of all delivered
// messages.
func (n *Network) SimTimeMS() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.simTime
}

// ResetStats zeros all counters, keeping topology.
func (n *Network) ResetStats() {
	n.mu.Lock()
	for i := range n.eps {
		n.eps[i].stats = Stats{}
	}
	n.simTime = 0
	n.mu.Unlock()
}
