package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAppend is the textbook two-pass modified Gram–Schmidt append, with a
// separate Dot and update per step — the loop Append and AppendSeed fuse.
// It is the bit-level reference both must reproduce.
func refAppend(f *IncrementalQR, col []float64) error {
	v := f.q[f.k*f.m : (f.k+1)*f.m]
	copy(v, col)
	norm0 := Norm2(col)
	rk := f.r[f.k*f.maxCols:]
	for j := 0; j < f.k; j++ {
		rk[j] = 0
	}
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < f.k; j++ {
			qj := f.q[j*f.m : (j+1)*f.m]
			d := Dot(qj, v)
			rk[j] += d
			for i, qv := range qj {
				v[i] -= d * qv
			}
		}
	}
	nv := Norm2(v)
	if nv <= 1e-12*math.Max(norm0, 1) {
		return ErrSingular
	}
	rk[f.k] = nv
	inv := 1 / nv
	for i := range v {
		v[i] *= inv
	}
	f.k++
	return nil
}

// qrState is the observable state of a factorization after a seed run.
type qrState struct {
	k     int   // columns factored
	idx   int   // index the run stopped at (columns appended)
	err   error // ErrSingular or nil
	q, r  []float64
	resid []float64
}

// snapshotQR copies the factored part of Q and the upper triangle of R.
func snapshotQR(f *IncrementalQR, idx int, err error, resid []float64) qrState {
	st := qrState{k: f.k, idx: idx, err: err, resid: CloneVec(resid)}
	st.q = CloneVec(f.q[:f.k*f.m])
	for j := 0; j < f.k; j++ {
		st.r = append(st.r, f.r[j*f.maxCols:j*f.maxCols+j+1]...)
	}
	return st
}

func bitsEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func sameState(t *testing.T, name string, got, want qrState) {
	t.Helper()
	if got.k != want.k || got.idx != want.idx || !errors.Is(got.err, want.err) || (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: k/idx/err = %d/%d/%v, want %d/%d/%v", name, got.k, got.idx, got.err, want.k, want.idx, want.err)
	}
	for _, c := range []struct {
		what      string
		got, want []float64
	}{{"Q", got.q, want.q}, {"R", got.r, want.r}, {"resid", got.resid, want.resid}} {
		if i, ok := bitsEqual(c.got, c.want); !ok {
			t.Fatalf("%s: %s differs at %d", name, c.what, i)
		}
	}
}

// seedRuns factors the columns of a (the first pre of them by Append,
// the rest as one seed) three ways — the reference loop, Append with
// DeflateLatest, and AppendSeed — and requires identical bits.
func seedRuns(t *testing.T, name string, a *Matrix, y []float64, pre int) qrState {
	t.Helper()
	m, n := a.Rows, a.Cols
	col := func(j int) []float64 {
		c := make([]float64, m)
		for i := range c {
			c[i] = a.At(i, j)
		}
		return c
	}
	run := func(appendOne func(*IncrementalQR, []float64) error, seed bool) qrState {
		f, err := NewIncrementalQR(m, n)
		if err != nil {
			t.Fatal(err)
		}
		resid := CloneVec(y)
		for j := 0; j < pre; j++ {
			if err := f.Append(col(j)); err != nil {
				t.Fatalf("%s: prefix column %d: %v", name, j, err)
			}
			axpyDot(resid, f.q[j*m:(j+1)*m], Dot(f.q[j*m:(j+1)*m], resid))
		}
		if seed {
			for c := 0; c < n-pre; c++ {
				copy(f.Slot(c), col(pre+c))
			}
			idx, err := f.AppendSeed(n-pre, resid)
			return snapshotQR(f, pre+idx, err, resid)
		}
		for j := pre; j < n; j++ {
			if err := appendOne(f, col(j)); err != nil {
				return snapshotQR(f, j, err, resid)
			}
			if _, err := f.DeflateLatest(resid); err != nil {
				t.Fatal(err)
			}
		}
		return snapshotQR(f, n, nil, resid)
	}
	ref := run(refAppend, false)
	seq := run((*IncrementalQR).Append, false)
	seed := run(nil, true)
	sameState(t, name+" Append", seq, ref)
	sameState(t, name+" AppendSeed", seed, ref)
	return ref
}

func randVec(rng *rand.Rand, m int) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// sampledDCT returns the m×k matrix of orthonormal DCT-II basis columns
// cols restricted to the rows rows — the coherent point-sampled
// dictionaries the decoders factor.
func sampledDCT(n int, rows, cols []int) *Matrix {
	a := New(len(rows), len(cols))
	for i, r := range rows {
		for c, j := range cols {
			s := math.Sqrt(2 / float64(n))
			if j == 0 {
				s = math.Sqrt(1 / float64(n))
			}
			a.Set(i, c, s*math.Cos(math.Pi*(float64(r)+0.5)*float64(j)/float64(n)))
		}
	}
	return a
}

// AppendSeed, and the fused Append, must reproduce the unfused reference
// loop bit for bit: Q, R, the deflated residual, the stop index and the
// error, on random, coherent and rank-deficient inputs.
func TestPropAppendSeedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		m, n := 200, 66
		if trial%4 == 3 {
			m = 1 + rng.Intn(40)
			n = 1 + rng.Intn(m)
		}
		a := randTall(rng, m, n)
		pre := 0
		if trial%2 == 1 {
			pre = rng.Intn(n)
		}
		seedRuns(t, fmt.Sprintf("random %dx%d pre %d", m, n, pre), a, randVec(rng, m), pre)
	}
	for trial := 0; trial < 10; trial++ {
		rows := rng.Perm(1024)[:200]
		cols := rng.Perm(1024)[:66]
		a := sampledDCT(1024, rows, cols)
		seedRuns(t, fmt.Sprintf("dct trial %d", trial), a, randVec(rng, 200), trial%3)
	}
	for trial := 0; trial < 10; trial++ {
		m, n := 60, 20
		a := randTall(rng, m, n)
		// Column dep is a combination of earlier ones (or an exact copy);
		// every method must stop there with the same partial state.
		dep := 2 + rng.Intn(n-2)
		x, z := rng.Intn(dep), rng.Intn(dep)
		for i := 0; i < m; i++ {
			v := a.At(i, x)
			if trial%2 == 0 {
				v = 2*a.At(i, x) - 0.5*a.At(i, z)
			}
			a.Set(i, dep, v)
		}
		ref := seedRuns(t, fmt.Sprintf("deficient col %d", dep), a, randVec(rng, m), trial%3)
		if !errors.Is(ref.err, ErrSingular) || ref.idx != dep {
			t.Fatalf("deficient col %d: reference stopped at %d with %v", dep, ref.idx, ref.err)
		}
	}
}

func TestAppendSeedShapeErrors(t *testing.T) {
	f, err := NewIncrementalQR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AppendSeed(3, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("past capacity: err = %v, want ErrShape", err)
	}
	if _, err := f.AppendSeed(1, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short resid: err = %v, want ErrShape", err)
	}
	if n, err := f.AppendSeed(0, nil); n != 0 || err != nil {
		t.Fatalf("empty seed: %d, %v", n, err)
	}
	copy(f.Slot(0), []float64{1, 0, 0, 0})
	copy(f.Slot(1), []float64{0, 2, 0, 0})
	if n, err := f.AppendSeed(2, nil); n != 2 || err != nil || f.Len() != 2 {
		t.Fatalf("AppendSeed = %d, %v (Len %d), want 2, nil (Len 2)", n, err, f.Len())
	}
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Len after Reset = %d", f.Len())
	}
}

func benchQRInput(m, n int) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(9))
	return randTall(rng, m, n), randVec(rng, m)
}

// BenchmarkIncrementalQRSeed200x66 is the warm decoder's seed pass: 66
// columns of 200 rows factored with AppendSeed, residual deflated.
func BenchmarkIncrementalQRSeed200x66(b *testing.B) {
	a, y := benchQRInput(200, 66)
	f, err := NewIncrementalQR(200, 66)
	if err != nil {
		b.Fatal(err)
	}
	resid := make([]float64, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		f.Reset()
		copy(resid, y)
		for c := 0; c < a.Cols; c++ {
			s := f.Slot(c)
			for i := range s {
				s[i] = a.Data[i*a.Cols+c]
			}
		}
		if _, err := f.AppendSeed(a.Cols, resid); err != nil {
			b.Fatal(err)
		}
	}
}
