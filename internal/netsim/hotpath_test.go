package netsim

import (
	"errors"
	"fmt"
	"testing"
)

// TestLinkKeysDoNotAlias is the regression test for concatenated link
// keys: links, partitions and burst channels used to be keyed by the
// string from+"→"+to, so the pairs ("a→b", "c") and ("a", "b→c") shared
// one key and a fault on either hit both. Each case configures a fault
// on the first pair and checks that traffic on the second is untouched.
func TestLinkKeysDoNotAlias(t *testing.T) {
	cases := []struct {
		name  string
		fault func(n *Network, p *FaultPlan)
	}{
		{"link", func(n *Network, _ *FaultPlan) { n.SetLink("a→b", "c", Link{LossProb: 1}) }},
		{"partition", func(_ *Network, p *FaultPlan) { p.Partition("a→b", "c", 0, 1000) }},
		{"burst", func(_ *Network, p *FaultPlan) {
			p.SetBurstLink("a→b", "c", GilbertElliott{PGoodToBad: 1, LossBad: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, p, got := faultNet(t, 3, "a", "b→c", "a→b", "c")
			tc.fault(n, p)
			for i := 0; i < 10; i++ {
				if delivered, err := n.Deliver(Message{From: "a", To: "b→c"}); err != nil || !delivered {
					t.Fatalf("a → b→c: delivered=%v err=%v; the a→b → c fault leaked onto it", delivered, err)
				}
				if delivered, err := n.Deliver(Message{From: "a→b", To: "c"}); err != nil || delivered {
					t.Fatalf("a→b → c: delivered=%v err=%v; want a silent drop", delivered, err)
				}
			}
			if *got["b→c"] != 10 || *got["c"] != 0 {
				t.Fatalf("handlers saw b→c=%d c=%d, want 10 and 0", *got["b→c"], *got["c"])
			}
		})
	}
}

// TestFaultCacheInvalidation: the network caches each endpoint's and
// pair's resolved plan state, so every plan and link mutation made
// between two DeliverBatch calls must take effect on the very next
// message.
func TestFaultCacheInvalidation(t *testing.T) {
	n, p, _ := faultNet(t, 5, "a", "b", "c")
	batch := []Message{{From: "a", To: "b", Payload: []byte("x")}}
	expect := func(step string, want BatchResult) {
		t.Helper()
		res, err := n.DeliverBatch(batch)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if res != want {
			t.Fatalf("%s: batch result %+v, want %+v", step, res, want)
		}
	}
	delivered := BatchResult{Delivered: 1}
	lost := BatchResult{Lost: 1}
	down := BatchResult{Down: 1}

	expect("warm cache", delivered)
	p.Down("b")
	expect("Down", down)
	p.Up("b")
	expect("Up", delivered)
	next := n.MsgCount()
	p.Crash("a", next, next+1)
	expect("Crash window", down)
	expect("after Crash window", delivered)
	next = n.MsgCount()
	p.Partition("b", "a", next, next+1) // both directions
	expect("Partition", lost)
	expect("after Partition", delivered)
	p.SetBurstLink("a", "b", GilbertElliott{PGoodToBad: 1, LossBad: 1})
	expect("SetBurstLink", lost)
	p.SetBurstLink("a", "b", GilbertElliott{}) // a clean channel replaces it
	expect("SetBurstLink replaced", delivered)

	// Plain link loss applies only without a burst channel; a fresh
	// plan drops the burst link.
	n.SetFaultPlan(NewFaultPlan())
	n.SetLink("a", "b", Link{LossProb: 1})
	expect("SetLink", lost)
	n.SetLink("a", "b", Link{})
	expect("SetLink cleared", delivered)

	// SetDefaultLink reaches a pair with no explicit link, whether or not
	// the pair has carried traffic yet.
	batch[0].To = "c"
	expect("warm a→c", delivered)
	n.SetDefaultLink(Link{LossProb: 1})
	expect("SetDefaultLink", lost)
	batch[0].From, batch[0].To = "c", "b"
	expect("SetDefaultLink, fresh pair", lost)
	batch[0].From, batch[0].To = "a", "b"
	expect("explicit link wins", delivered)
}

// TestSharedPlanAcrossNetworks: one FaultPlan installed on two networks
// that interned their endpoints in different orders gives each network
// the name-keyed verdicts — the per-network cache must never leak one
// network's endpoint IDs into the other.
func TestSharedPlanAcrossNetworks(t *testing.T) {
	p := NewFaultPlan()
	nets := make([]*Network, 2)
	orders := [][]string{{"a", "b", "c", "d"}, {"d", "c", "b", "a"}}
	for i := range nets {
		nets[i] = New(int64(i))
		nets[i].SetFaultPlan(p)
		for _, id := range orders[i] {
			if err := nets[i].Register(id, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	type want struct {
		from, to string
		outcome  string // "ok", "lost", "down"
	}
	check := func(step string, cases []want) {
		t.Helper()
		for _, c := range cases {
			for i, n := range nets {
				delivered, err := n.Deliver(Message{From: c.from, To: c.to})
				got := "ok"
				switch {
				case errors.Is(err, ErrNodeDown):
					got = "down"
				case err != nil:
					t.Fatalf("%s: net %d %s→%s: %v", step, i, c.from, c.to, err)
				case !delivered:
					got = "lost"
				}
				if got != c.outcome {
					t.Fatalf("%s: net %d (order %v) %s→%s = %s, want %s", step, i, orders[i], c.from, c.to, got, c.outcome)
				}
			}
		}
	}
	p.Down("a")
	p.Partition("b", "c", 0, 1<<30)
	p.SetBurstLink("d", "b", GilbertElliott{PGoodToBad: 1, LossBad: 1})
	cases := []want{
		{"a", "b", "down"}, {"b", "a", "down"},
		{"b", "c", "lost"}, {"c", "b", "lost"},
		{"d", "b", "lost"}, {"b", "d", "ok"},
		{"c", "d", "ok"}, {"d", "c", "ok"},
	}
	check("initial plan", cases)
	p.Up("a")
	p.Down("d")
	check("after Up/Down", []want{
		{"a", "b", "ok"}, {"b", "a", "ok"},
		{"d", "b", "down"}, {"c", "d", "down"},
		{"b", "c", "lost"}, {"a", "c", "ok"},
	})
}

// TestSetLinkBeforeRegister: SetLink may name endpoints that are not
// registered yet. The link applies once they register; until then the
// names are invisible to Broadcast, Totals, MaxTx, MaxRx and NodeStats,
// and traffic to or from them fails as unknown.
func TestSetLinkBeforeRegister(t *testing.T) {
	n := New(9)
	n.SetLink("x", "y", Link{LossProb: 1, LatencyMS: 4})
	if id, c := n.MaxTx(); id != "" || c != -1 {
		t.Fatalf("MaxTx with no registered nodes = (%q, %d), want (\"\", -1)", id, c)
	}
	if id, c := n.MaxRx(); id != "" || c != -1 {
		t.Fatalf("MaxRx with no registered nodes = (%q, %d), want (\"\", -1)", id, c)
	}
	if _, err := n.NodeStats("x"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("NodeStats of a link-only name = %v, want ErrUnknownNode", err)
	}
	if _, err := n.Broadcast("x", "t", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Broadcast from a link-only name = %v, want ErrUnknownNode", err)
	}
	got := map[string]int{}
	for _, id := range []string{"y", "z"} {
		id := id
		if err := n.Register(id, func(Message) { got[id]++ }); err != nil {
			t.Fatal(err)
		}
	}
	if sent, err := n.Broadcast("z", "t", []byte("p")); err != nil || sent != 1 || got["y"] != 1 {
		t.Fatalf("Broadcast from z: sent=%d err=%v y=%d; want exactly y reached", sent, err, got["y"])
	}
	if _, err := n.Deliver(Message{From: "x", To: "y"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send from a link-only name = %v, want ErrUnknownNode", err)
	}
	if tot := n.Totals(); tot.TxMessages != 1 || tot.RxMessages != 1 {
		t.Fatalf("totals %+v, want only the broadcast", tot)
	}

	if err := n.Register("x", nil); err != nil {
		t.Fatalf("registering a link-only name: %v", err)
	}
	if err := n.Register("x", nil); err == nil {
		t.Fatal("second Register of x succeeded")
	}
	for i := 0; i < 5; i++ {
		if delivered, err := n.Deliver(Message{From: "x", To: "y"}); err != nil || delivered {
			t.Fatalf("x→y after Register: delivered=%v err=%v; the early SetLink must apply", delivered, err)
		}
	}
	if id, c := n.MaxTx(); id != "x" || c != 5 {
		t.Fatalf("MaxTx = (%q, %d), want (x, 5)", id, c)
	}
}

// fleetRig is a fleet-shaped network: shard senders, each with a
// reusable batch to its zone's collector, Gilbert–Elliott uplinks and
// dup/reorder at Flush — the shape of one fleet campaign round.
type fleetRig struct {
	n         *Network
	batches   [][]Message
	delivered int
}

func newFleetRig(tb testing.TB, shards, zones, perShard int) *fleetRig {
	tb.Helper()
	r := &fleetRig{n: New(77)}
	r.n.SetAsync(true)
	r.n.SetDefaultLink(Link{LatencyMS: 1})
	p := NewFaultPlan()
	r.n.SetFaultPlan(p)
	p.SetDuplicateProb(0.02)
	p.SetReorderProb(0.05)
	count := func(Message) { r.delivered++ }
	for z := 0; z < zones; z++ {
		if err := r.n.Register(fmt.Sprintf("lc%d", z), count); err != nil {
			tb.Fatal(err)
		}
	}
	for s := 0; s < shards; s++ {
		from, to := fmt.Sprintf("fleet/s%d", s), fmt.Sprintf("lc%d", s%zones)
		if err := r.n.Register(from, nil); err != nil {
			tb.Fatal(err)
		}
		p.SetBurstLink(from, to, GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.18, LossBad: 0.5})
		arena := make([]byte, perShard*24)
		batch := make([]Message, perShard)
		for j := range batch {
			batch[j] = Message{From: from, To: to, Topic: "fleet/measure", Payload: arena[j*24 : (j+1)*24]}
		}
		r.batches = append(r.batches, batch)
	}
	return r
}

func (r *fleetRig) round(tb testing.TB) {
	for _, b := range r.batches {
		if _, err := r.n.DeliverBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	r.n.Flush()
}

// TestFleetRoundAllocsNothing: once warmed, a fleet-shaped round —
// DeliverBatch per shard, then Flush, with burst loss, dup and reorder —
// allocates nothing: the queue, the reorder scratch and the delivery
// buffer are reused across rounds.
func TestFleetRoundAllocsNothing(t *testing.T) {
	r := newFleetRig(t, 12, 4, 1024)
	for i := 0; i < 10; i++ {
		r.round(t)
	}
	if allocs := testing.AllocsPerRun(20, func() { r.round(t) }); allocs != 0 {
		t.Fatalf("warmed fleet round allocates %v times, want 0", allocs)
	}
	if r.delivered == 0 {
		t.Fatal("rig delivered nothing")
	}
}

// TestHandlerDeliverDuringFlush: a handler that sends while an async
// Flush is running its deliveries has its message queued for the next
// Flush — never lost, never delivered twice — and a handler that flushes
// re-entrantly delivers what is pending exactly once.
func TestHandlerDeliverDuringFlush(t *testing.T) {
	n := New(21)
	n.SetAsync(true)
	got := map[string]int{}
	forward := func(m Message) {
		got["b"]++
		if _, err := n.Deliver(Message{From: "b", To: "c", Payload: m.Payload}); err != nil {
			t.Error(err)
		}
	}
	for id, h := range map[string]Handler{
		"a": nil,
		"b": forward,
		"c": func(Message) { got["c"]++ },
	} {
		if err := n.Register(id, h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := n.Deliver(Message{From: "a", To: "b", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if d := n.Flush(); d != 3 || got["b"] != 3 || got["c"] != 0 {
		t.Fatalf("first flush delivered %d (b=%d c=%d), want 3 to b only", d, got["b"], got["c"])
	}
	if n.Pending() != 3 {
		t.Fatalf("pending %d after first flush, want the 3 forwarded messages", n.Pending())
	}
	if d := n.Flush(); d != 3 || got["c"] != 3 {
		t.Fatalf("second flush delivered %d (c=%d), want 3", d, got["c"])
	}
	if d := n.Flush(); d != 0 || n.Pending() != 0 {
		t.Fatalf("third flush delivered %d, pending %d; want nothing left", d, n.Pending())
	}

	// Re-entrant Flush from a handler: the nested Flush delivers the
	// messages the handler just queued, and the outer Flush still
	// delivers the rest of its own batch — the nested one must not write
	// into the delivery buffer the outer one is still reading.
	nested := 0
	if err := n.Register("d", func(Message) {
		nested++
		for i := 0; i < 3; i++ {
			if _, err := n.Deliver(Message{From: "d", To: "c"}); err != nil {
				t.Error(err)
			}
		}
		if d := n.Flush(); d != 3 {
			t.Errorf("nested flush delivered %d, want 3", d)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("e", func(Message) { got["e"]++ }); err != nil {
		t.Fatal(err)
	}
	for _, to := range []string{"d", "e", "e"} {
		if _, err := n.Deliver(Message{From: "a", To: to}); err != nil {
			t.Fatal(err)
		}
	}
	c0 := got["c"]
	if d := n.Flush(); d != 3 || nested != 1 || got["e"] != 2 || got["c"] != c0+3 || n.Pending() != 0 {
		t.Fatalf("outer flush delivered %d (d=%d e=%d, c grew %d, pending %d); want 3 (1, 2, 3, 0)",
			d, nested, got["e"], got["c"]-c0, n.Pending())
	}
	tot := n.Totals()
	if tot.RxMessages != tot.TxMessages-tot.Dropped {
		t.Fatalf("rx %d != tx %d - dropped %d", tot.RxMessages, tot.TxMessages, tot.Dropped)
	}
}

// BenchmarkNetsimFleetRound is one fleet-shaped round at the perfbench
// campaign's per-round size (12 shards of ~1k envelopes to 4 zones, with
// burst loss, dup and reorder): DeliverBatch per shard, then Flush.
func BenchmarkNetsimFleetRound(b *testing.B) {
	r := newFleetRig(b, 12, 4, 1042)
	for i := 0; i < 10; i++ {
		r.round(b) // warm the queue, scratch and delivery buffers to their steady size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round(b)
	}
}
