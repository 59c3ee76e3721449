package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/snapshot"
)

// warmGoldenHash is the FNV-1a hash of every window's NMSE bits and field
// bits over warmGoldenWindows windows of the warm-started 64×64 pipeline
// below. It was captured before the pipelined seed factorization and the
// pooled decode workspace landed, so it pins the warm decode path bit for
// bit: a reassociated dot product or a stale pooled buffer moves it.
const (
	warmGoldenWindows = 120
	warmGoldenHash    = uint64(0x9da49548f8282f33)
)

// The warm window decode must stay bit-identical: same gathers, same seed
// factorization, same residual checks, same final solve — window after
// window, on the geometry of the repository's stream-window benchmark
// (64×64, 2×2 zones, budget 800, SeedRelTol 0.5).
func TestStreamWarmGolden(t *testing.T) {
	const dim = 64
	sd, err := core.New(core.Options{
		FieldW: dim, FieldH: dim, ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 8,
		Seed: 11, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	evolve := func(step int, tm float64) *field.Field {
		w := 2 * math.Pi * tm / 20
		return field.GenPlumes(dim, dim, 10, []field.Plume{
			{Row: 18 + 4*math.Sin(w), Col: 18, Sigma: 8, Amplitude: 25},
			{Row: 43, Col: 42 - 4*math.Cos(w), Sigma: 10, Amplitude: 18},
		})
	}
	if err := sd.SetTruth(evolve(0, 0)); err != nil {
		t.Fatal(err)
	}
	p, err := New(sd, snapshot.NewRegistry(2), Config{
		Budget: 800, WarmStart: true, SeedRelTol: 0.5, Evolve: evolve, DT: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := 0; i < warmGoldenWindows; i++ {
		s, err := p.Step()
		if err != nil {
			t.Fatalf("window %d: %v", i+1, err)
		}
		if s.Shortfall != 0 || s.BrokersFailed != 0 {
			t.Fatalf("window %d degraded: shortfall %d, brokers failed %d", i+1, s.Shortfall, s.BrokersFailed)
		}
		put(s.NMSE)
		for _, v := range s.Field.Data {
			put(v)
		}
	}
	if got := h.Sum64(); got != warmGoldenHash {
		t.Fatalf("warm window hash %#016x, want %#016x", got, warmGoldenHash)
	}
}
