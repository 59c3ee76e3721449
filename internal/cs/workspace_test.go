package cs

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/basis"
)

// warmZone is one zone of a 64×64 field split 2×2: a 32×32 separable DCT,
// 200 sensors on a smooth plume, and the warm options of a streaming
// window (support cap len(locs)/3 = 66, SeedRelTol 0.5) seeded with the
// 66-atom support a previous window recovered.
func warmZone(tb testing.TB, seed int64) (basis.Operator, []int, []float64, CHSOptions) {
	tb.Helper()
	const h, w, m, k = 32, 32, 200, 66
	op, err := basis.CachedOperator2D(basis.KindDCT, h, w)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	r0, c0 := 8+16*rng.Float64(), 8+16*rng.Float64()
	x := make([]float64, h*w)
	for c := 0; c < w; c++ {
		for r := 0; r < h; r++ {
			d2 := (float64(r)-r0)*(float64(r)-r0) + (float64(c)-c0)*(float64(c)-c0)
			x[c*h+r] = 10 + 25*math.Exp(-d2/(2*6*6))
		}
	}
	locs, err := RandomLocations(rng, h*w, m)
	if err != nil {
		tb.Fatal(err)
	}
	y, err := Measure(x, locs, rng, []float64{0.1})
	if err != nil {
		tb.Fatal(err)
	}
	prev, err := CHSOp(op, locs, y, CHSOptions{MaxSupport: k, MaxIter: k, Tol: 1e-8, PerIter: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if len(prev.Support) != k {
		tb.Fatalf("seed decode recovered %d atoms, want %d", len(prev.Support), k)
	}
	return op, locs, y, CHSOptions{MaxSupport: k, Tol: 1e-8, PerIter: 1, SeedSupport: prev.Support, SeedRelTol: 0.5}
}

// A steady-state warm decode draws all of its scratch from the pooled
// workspace. What it still allocates is what it returns: the Result with
// its Alpha, Support and Xhat, and the solved coefficients.
func TestWarmCHSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool retention; alloc counts are meaningless")
	}
	op, locs, y, opts := warmZone(t, 3)
	var res *Result
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if res, err = CHSOp(op, locs, y, opts); err != nil {
			t.Fatal(err)
		}
	})
	if res.Iterations != 0 || len(res.Support) != opts.MaxSupport {
		t.Fatalf("decode was not warm: %d iterations, %d atoms", res.Iterations, len(res.Support))
	}
	if allocs > warmCHSAllocs {
		t.Fatalf("warm CHS decode allocates %v times, want <= %d", allocs, warmCHSAllocs)
	}
}

// warmCHSAllocs is the warm decode's allocation count: Result, Alpha,
// Support, Xhat and the solved coefficients.
const warmCHSAllocs = 5

// Pooled workspaces must not carry state from one decode to the next:
// interleaving decodes of other data, other shapes and the dense path
// leaves every result bit-identical to the first decode of its input.
func TestWorkspaceReuseIsBitIdentical(t *testing.T) {
	op, locs, y, opts := warmZone(t, 5)
	op2, locs2, y2, opts2 := warmZone(t, 6)
	first, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := opts
	cold.SeedSupport = nil
	firstCold, err := CHSOp(op, locs, y, cold)
	if err != nil {
		t.Fatal(err)
	}
	ompFirst, err := OMPSeededOp(op, locs, y, 40, 0, opts.SeedSupport[:40])
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// Other data on the same shape, a rejected seed, another shape.
		if _, err := CHSOp(op2, locs2, y2, opts2); err != nil {
			t.Fatal(err)
		}
		stale := opts2
		stale.SeedSupport = []int{0, 1, 1}
		if _, err := CHSOp(op2, locs2, y2, stale); err != nil {
			t.Fatal(err)
		}
		if _, err := OMPOp(op2, locs2[:50], y2[:50], 12, 0); err != nil {
			t.Fatal(err)
		}
		again, err := CHSOp(op, locs, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "warm after reuse", first, again)
		againCold, err := CHSOp(op, locs, y, cold)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "cold after reuse", firstCold, againCold)
		ompAgain, err := OMPSeededOp(op, locs, y, 40, 0, opts.SeedSupport[:40])
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "seeded OMP after reuse", ompFirst, ompAgain)
	}
	// Results never alias the pooled scratch.
	again, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	again.Alpha[0], again.Xhat[0], again.Support[0] = math.NaN(), math.NaN(), -1
	assertBitIdentical(t, "after mutating a returned result", first, mustCHS(t, op, locs, y, opts))
}

// Decodes running at once on several goroutines share the pools; each
// must get a workspace of its own and return the serial result.
func TestWorkspaceConcurrentDecodes(t *testing.T) {
	type problem struct {
		op   basis.Operator
		locs []int
		y    []float64
		opts CHSOptions
		want *Result
	}
	var probs []problem
	for seed := int64(7); seed < 10; seed++ {
		op, locs, y, opts := warmZone(t, seed)
		probs = append(probs, problem{op, locs, y, opts, mustCHS(t, op, locs, y, opts)})
	}
	const goroutines, decodes = 4, 12
	var got [goroutines][decodes]*Result
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < decodes; i++ {
				p := probs[(g+i)%len(probs)]
				res, err := CHSOp(p.op, p.locs, p.y, p.opts)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = res
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for i, res := range got[g] {
			assertBitIdentical(t, "concurrent decode", probs[(g+i)%len(probs)].want, res)
		}
	}
}

func mustCHS(t *testing.T, op basis.Operator, locs []int, y []float64, opts CHSOptions) *Result {
	t.Helper()
	res, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// BenchmarkWarmCHS64Grid is one steady-state warm window decode of one
// zone of a 64×64 field: the 66-atom seed factored, the residual checked,
// the final solve and synthesis.
func BenchmarkWarmCHS64Grid(b *testing.B) {
	op, locs, y, opts := warmZone(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CHSOp(op, locs, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}
