package netsim

import (
	"testing"

	"repro/internal/obs"
)

// fuzzNames are the endpoints a FuzzDeliverBatch input draws from; the
// last one is never registered, so addressing it exercises the unknown
// endpoint abort.
var fuzzNames = []string{"a", "b", "c", "d", "ghost"}

// fuzzOps decodes fuzz bytes into network traffic and fault-plan
// mutations. Every read past the end yields zero, so any input is a
// valid program.
type fuzzOps struct {
	b []byte
	i int
}

func (f *fuzzOps) next() byte {
	if f.i >= len(f.b) {
		return 0
	}
	c := f.b[f.i]
	f.i++
	return c
}

func (f *fuzzOps) name() string  { return fuzzNames[int(f.next())%len(fuzzNames)] }
func (f *fuzzOps) prob() float64 { return float64(f.next()) / 255 }
func (f *fuzzOps) count() int    { return int(f.next()) }

// FuzzDeliverBatch drives a network with batches, single sends, flushes
// and fault-plan mutations taken from the fuzz bytes. Whatever the
// input, it never panics, and after a final Flush the queue is empty,
// the obs mirrors equal Totals(), and rx = tx − dropped + duplicated.
func FuzzDeliverBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 8, 0, 1, 1, 2, 0, 2, 1})
	f.Add([]byte{3, 1, 5, 2, 40, 200, 6, 0, 1, 120, 60, 9, 200, 0, 12, 0, 1, 2, 3, 0, 1, 1})
	f.Add([]byte{1, 7, 1, 3, 0, 3, 10, 9, 80, 9, 255, 0, 16, 1, 2, 1, 3, 2, 3, 0, 1, 8, 2, 0, 1})
	f.Add([]byte{2, 4, 0, 2, 0, 8, 0, 4, 2, 5, 3, 0, 9, 1, 0, 5, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		obs.Enable()
		defer obs.Disable()
		before := snapNetsimObs()

		ops := &fuzzOps{b: data}
		n := New(int64(ops.next()))
		p := NewFaultPlan()
		n.SetFaultPlan(p)
		n.SetAsync(ops.next()%2 == 0)
		// Register a rotation of a..d so ID order varies with the input.
		rot := int(ops.next())
		for k := 0; k < 4; k++ {
			if err := n.Register(fuzzNames[(rot+k)%4], nil); err != nil {
				t.Fatal(err)
			}
		}
		var batch []Message
		for steps := 0; ops.i < len(data) && steps < 256; steps++ {
			switch ops.next() % 12 {
			case 0, 1:
				batch = batch[:0]
				for k := ops.count() % 24; k > 0; k-- {
					batch = append(batch, Message{From: ops.name(), To: ops.name(), Payload: make([]byte, ops.count()%32)})
				}
				_, _ = n.DeliverBatch(batch)
			case 2:
				_, _ = n.Deliver(Message{From: ops.name(), To: ops.name(), Payload: make([]byte, ops.count()%32)})
			case 3:
				n.Flush()
			case 4:
				p.Down(ops.name())
			case 5:
				p.Up(ops.name())
			case 6:
				from := n.MsgCount() + ops.count()%16
				p.Crash(ops.name(), from, from+ops.count()%16)
			case 7:
				from := n.MsgCount() + ops.count()%16
				p.Partition(ops.name(), ops.name(), from, from+ops.count()%16)
			case 8:
				p.SetBurstLink(ops.name(), ops.name(), GilbertElliott{
					PGoodToBad: ops.prob(), PBadToGood: ops.prob(), LossGood: ops.prob() / 4, LossBad: ops.prob(),
				})
			case 9:
				p.SetDuplicateProb(ops.prob())
				p.SetReorderProb(ops.prob())
			case 10:
				n.SetLink(ops.name(), ops.name(), Link{LatencyMS: float64(ops.count() % 8), LossProb: ops.prob()})
			case 11:
				n.SetAsync(ops.next()%2 == 0)
			}
		}
		n.Flush()

		if n.Pending() != 0 {
			t.Fatalf("%d messages pending after Flush", n.Pending())
		}
		d := snapNetsimObs().sub(before)
		tot := n.Totals()
		if d.txM != int64(tot.TxMessages) || d.txB != int64(tot.TxBytes) ||
			d.rxM != int64(tot.RxMessages) || d.rxB != int64(tot.RxBytes) || d.lost != int64(tot.Dropped) {
			t.Fatalf("obs deltas %+v do not reconcile with Totals %+v", d, tot)
		}
		if int64(tot.RxMessages) != int64(tot.TxMessages)-int64(tot.Dropped)+d.dup {
			t.Fatalf("rx %d != tx %d - dropped %d + dup %d", tot.RxMessages, tot.TxMessages, tot.Dropped, d.dup)
		}
	})
}
