package cs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/basis"
	"repro/internal/mat"
)

// goldenProblem is one fixed-seed decode problem over an explicit DCT
// matrix: a k-sparse signal sampled at m random sensors with noise sigma.
type goldenProblem struct {
	phi     *mat.Matrix
	y       []float64
	locs    []int
	support []int
	sigmas  []float64
}

func newGoldenProblem(seed int64, n, k, m int, sigma float64) goldenProblem {
	rng := rand.New(rand.NewSource(seed))
	phi := basis.DCT(n)
	x, _, support := sparseSignal(rng, phi, k)
	locs, _ := RandomLocations(rng, n, m)
	sigmas := make([]float64, m)
	for i := range sigmas {
		sigmas[i] = sigma * (1 + float64(i%2)*4)
	}
	var noise []float64
	if sigma > 0 {
		noise = sigmas
	}
	y, _ := Measure(x, locs, rng, noise)
	return goldenProblem{phi: phi, y: y, locs: locs, support: support, sigmas: sigmas}
}

// resultHash is FNV-1a over the little-endian IEEE-754 bits of Alpha,
// Xhat and Residual, so any last-bit drift in a decode changes it.
func resultHash(res *Result) uint64 {
	var b []byte
	for _, v := range res.Alpha {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range res.Xhat {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Residual))
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestDenseReferenceGolden pins every decoder on the dense reference path
// (an explicit DCT matrix wrapped by basis.FromMatrix) bit for bit:
// support in admission order, iteration count and a hash of the recovered
// coefficients, field and residual. Published numbers that run on this
// path (learned bases, A4's BPDN column) depend on it staying exact, so a
// change to the dense dictionary that moves any bit fails here.
func TestDenseReferenceGolden(t *testing.T) {
	p := newGoldenProblem(201, 64, 4, 24, 0.01)
	bp := newGoldenProblem(202, 32, 3, 14, 0)
	dn := newGoldenProblem(203, 32, 3, 16, 0.05)
	mu := make([]float64, 64)
	for i := range mu {
		mu[i] = 5 + float64(i%7)
	}
	yc := make([]float64, len(p.y))
	for i, l := range p.locs {
		yc[i] = p.y[i] + mu[l]
	}
	v := NoiseCovariance(p.sigmas, 1e-6)
	cold, err := OMPOp(dense(p.phi), p.locs, p.y, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed := []int{cold.Support[1], cold.Support[0]}

	cases := []struct {
		name    string
		decode  func() (*Result, error)
		support []int
		iters   int
		hash    uint64
	}{
		{"omp", func() (*Result, error) { return OMPOp(dense(p.phi), p.locs, p.y, 6, 0) },
			[]int{27, 38, 52, 3, 59, 1}, 6, 0xf99ea29818f0efa6},
		{"omp-seeded", func() (*Result, error) { return OMPSeededOp(dense(p.phi), p.locs, p.y, 6, 0, seed) },
			[]int{38, 27, 52, 3, 59, 1}, 4, 0x174aaabb835f4c20},
		{"omp-centered", func() (*Result, error) { return OMPCenteredOp(dense(p.phi), p.locs, yc, mu, 4, 1e-9) },
			[]int{27, 38, 52, 3}, 4, 0x2b1e95e6e31e905e},
		{"chs-ols", func() (*Result, error) { return CHSOp(dense(p.phi), p.locs, p.y, CHSOptions{Tol: 1e-6}) },
			[]int{27, 38, 3, 52, 59, 26, 29, 39, 22, 37, 48, 45, 16, 33, 63, 18, 10, 60, 7, 28, 57, 8, 5, 31}, 24, 0x1ddb5ce189fa1691},
		{"chs-gls", func() (*Result, error) {
			return CHSOp(dense(p.phi), p.locs, p.y, CHSOptions{MaxSupport: 5, PerIter: 2, V: v})
		}, []int{27, 38, 3, 52, 59}, 3, 0x23a6a6f85c2c9dbe},
		{"iht", func() (*Result, error) { return IHTOp(dense(p.phi), p.locs, p.y, IHTOptions{K: 4}) },
			[]int{3, 27, 38, 52}, 18, 0xed7497a344e75c4e},
		{"cosamp", func() (*Result, error) { return CoSaMPOp(dense(p.phi), p.locs, p.y, CoSaMPOptions{K: 4}) },
			[]int{3, 27, 38, 52}, 7, 0xb0c5fc22af601233},
		{"fixed-ols", func() (*Result, error) { return FixedSupportOLSOp(dense(p.phi), p.locs, p.y, p.support) },
			[]int{3, 38, 52, 27}, 1, 0x55e416a5dde75d5c},
		{"fixed-gls", func() (*Result, error) { return FixedSupportGLSOp(dense(p.phi), p.locs, p.y, p.support, v) },
			[]int{3, 38, 52, 27}, 1, 0xad915b6e47c45470},
		{"bp", func() (*Result, error) { return BasisPursuit(dense(bp.phi), bp.locs, bp.y, 1e-7) },
			[]int{6, 15, 18}, 189, 0xb5bf24746c55066c},
		{"bpdn", func() (*Result, error) { return BPDN(dense(dn.phi), dn.locs, dn.y, 0.1, 1e-6) },
			[]int{1, 5, 8, 9, 10, 12, 13, 14, 20, 21, 22}, 324, 0x7ac7f26ebd6eb5d3},
	}
	for _, c := range cases {
		res, err := c.decode()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := resultHash(res)
		if !slices.Equal(res.Support, c.support) || res.Iterations != c.iters || got != c.hash {
			t.Errorf("%s: support %#v iters %d hash %#x; want %#v, %d, %#x",
				c.name, res.Support, res.Iterations, got, c.support, c.iters, c.hash)
		}
	}
}
