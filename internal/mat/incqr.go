package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrAlias reports an in-place kernel whose output buffer aliases an input.
var ErrAlias = errors.New("mat: output aliases input")

// IncrementalQR maintains a thin QR factorization A = Q·R of a tall matrix
// whose columns arrive one at a time — the factorization greedy decoders
// (OMP, CHS) grow per iteration. Appending a column costs O(m·k) via
// modified Gram–Schmidt with one re-orthogonalization pass, instead of the
// O(m·k²) full Householder refactorization per iteration; dropping the most
// recently appended column is O(1).
//
// Q's columns are stored contiguously (column j at q[j*m:(j+1)*m]) so the
// append-time projections are sequential scans.
type IncrementalQR struct {
	m, maxCols int
	k          int
	q          []float64 // m×maxCols, column-contiguous
	r          []float64 // upper triangular, column-contiguous: R[i][j] at r[j*maxCols+i], i <= j
}

// NewIncrementalQR returns an empty factorization for m-row columns with
// capacity maxCols (requires 0 < maxCols <= m for full column rank).
func NewIncrementalQR(m, maxCols int) (*IncrementalQR, error) {
	if m <= 0 || maxCols <= 0 {
		return nil, fmt.Errorf("%w: IncrementalQR needs positive dims, got m=%d maxCols=%d", ErrShape, m, maxCols)
	}
	if maxCols > m {
		return nil, fmt.Errorf("%w: IncrementalQR capacity %d exceeds row count %d", ErrShape, maxCols, m)
	}
	return &IncrementalQR{
		m: m, maxCols: maxCols,
		q: make([]float64, m*maxCols),
		r: make([]float64, maxCols*maxCols),
	}, nil
}

// Len returns the number of columns currently factored.
func (f *IncrementalQR) Len() int { return f.k }

// Rows returns the row dimension m.
func (f *IncrementalQR) Rows() int { return f.m }

// Append factors one more column into Q·R. It returns ErrSingular without
// modifying the factorization when the new column is (numerically) linearly
// dependent on the current ones, and ErrShape when the column length or the
// capacity doesn't fit.
func (f *IncrementalQR) Append(col []float64) error {
	if len(col) != f.m {
		return fmt.Errorf("%w: column length %d, want %d", ErrShape, len(col), f.m)
	}
	if f.k >= f.maxCols {
		return fmt.Errorf("%w: IncrementalQR at capacity %d", ErrShape, f.maxCols)
	}
	copy(f.Slot(0), col)
	norm0 := Norm2(col)
	rk := f.rcol(f.k)
	// Modified Gram–Schmidt with a second pass: the re-orthogonalization
	// ("twice is enough") keeps Q orthonormal to machine precision even for
	// the coherent point-sampled basis columns OMP selects near convergence.
	f.mgsPass(f.Slot(0), rk, f.k)
	f.mgsPass(f.Slot(0), rk, f.k)
	return f.commit(norm0)
}

// Slot returns the storage of column Len()+c, the c-th column after the
// factored ones. A caller that knows its next columns up front writes them
// there and factors them in place with AppendSeed, with no copy. Slot
// panics when Len()+c is at or past the capacity.
func (f *IncrementalQR) Slot(c int) []float64 {
	s := f.k + c
	return f.q[s*f.m : (s+1)*f.m : (s+1)*f.m]
}

// AppendSeed factors the next cols columns, already written to Slot(0) …
// Slot(cols−1), in order, and deflates resid (when non-nil) against each
// newly orthogonalized column right after it is factored: the same Q, R
// and resid, bit for bit, as cols calls of Append each followed by
// DeflateLatest(resid).
//
// Column c's second Gram–Schmidt pass and column c+1's first pass both
// sweep q₀…q_{c−1}, and neither reads the other's vector, so they run in
// one sweep: two independent dot chains in flight instead of one
// latency-bound chain. Each vector still sees the same updates in the same
// order, and every dot still sums its terms in ascending row order.
//
// It returns the number of columns factored. On a numerically dependent
// column it returns that column's index (relative to the first slot) with
// ErrSingular: the columns before it stay factored and resid stays deflated
// against them — exactly the state the sequential Append loop stops in —
// while the contents of that slot and the ones after it are unspecified.
func (f *IncrementalQR) AppendSeed(cols int, resid []float64) (int, error) {
	if cols < 0 || f.k+cols > f.maxCols {
		return 0, fmt.Errorf("%w: %d seed columns after %d exceed capacity %d", ErrShape, cols, f.k, f.maxCols)
	}
	if resid != nil && len(resid) != f.m {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrShape, len(resid), f.m)
	}
	if cols == 0 {
		return 0, nil
	}
	next := f.Slot(0)
	nextNorm := Norm2(next)
	f.mgsPass(next, f.rcol(f.k), f.k) // column 0's first pass
	for c := 0; c < cols; c++ {
		s := f.k
		v, rk, norm0 := next, f.r[s*f.maxCols:(s+1)*f.maxCols], nextNorm
		var rn []float64
		if c+1 < cols {
			next, rn = f.Slot(1), f.rcol(s+1)
			nextNorm = Norm2(next)
			f.mgsPair(v, rk, next, rn, s)
		} else {
			f.mgsPass(v, rk, s)
		}
		if err := f.commit(norm0); err != nil {
			return c, err
		}
		qs := f.q[s*f.m : (s+1)*f.m]
		if resid != nil {
			axpyDot(resid, qs, Dot(qs, resid))
		}
		if rn != nil {
			// The last step of column c+1's first pass: against the
			// direction just committed.
			d := Dot(qs, next)
			rn[s] += d
			axpyDot(next, qs, d)
		}
	}
	return cols, nil
}

// rcol returns R's column j with its first j entries zeroed, ready for the
// Gram–Schmidt coefficients to accumulate into.
func (f *IncrementalQR) rcol(j int) []float64 {
	rj := f.r[j*f.maxCols : (j+1)*f.maxCols]
	for i := 0; i < j; i++ {
		rj[i] = 0
	}
	return rj
}

// commit finishes the column in Slot(0) after its two Gram–Schmidt passes:
// the rank test, the diagonal of R and the normalization.
func (f *IncrementalQR) commit(norm0 float64) error {
	v := f.Slot(0)
	nv := Norm2(v)
	// Relative rank test: a residual this far below the column's own norm
	// means the column lies in span(Q) to working precision.
	if nv <= 1e-12*math.Max(norm0, 1) {
		return ErrSingular
	}
	f.r[f.k*f.maxCols+f.k] = nv
	inv := 1 / nv
	for i := range v {
		v[i] *= inv
	}
	f.k++
	return nil
}

// mgsPass runs one modified Gram–Schmidt pass of v against q₀…q_{k−1},
// adding each projection coefficient into rk. Step j's update of v is
// fused into the loop that computes step j+1's dot: v[i] is updated
// before that dot reads it, and the dot still sums in ascending i, so the
// result is bit-identical to a Dot followed by a separate update. The
// expression shapes (v[i] - d*q[i], s += q[i]*v[i]) match the unfused
// loops, so a compiler that fuses multiply-adds fuses both alike.
func (f *IncrementalQR) mgsPass(v, rk []float64, k int) {
	if k == 0 {
		return
	}
	m := f.m
	d := Dot(f.q[:m], v)
	for j := 0; j < k-1; j++ {
		rk[j] += d
		qj := f.q[j*m : (j+1)*m : (j+1)*m]
		qn := f.q[(j+1)*m : (j+2)*m]
		qn, v := qn[:len(qj)], v[:len(qj)]
		s := 0.0
		for i, qv := range qj {
			vi := v[i] - d*qv
			v[i] = vi
			s += qn[i] * vi
		}
		d = s
	}
	rk[k-1] += d
	axpyDot(v, f.q[(k-1)*m:k*m], d)
}

// mgsPair is mgsPass for two vectors in one sweep over q₀…q_{k−1}: a
// (coefficients into ra) and b (into rb). The two dot chains are
// independent, so each row's loads of qⱼ and q_{j+1} feed both.
func (f *IncrementalQR) mgsPair(a, ra, b, rb []float64, k int) {
	if k == 0 {
		return
	}
	m := f.m
	q0 := f.q[:m]
	a, b = a[:len(q0)], b[:len(q0)]
	da, db := 0.0, 0.0
	for i, qv := range q0 {
		da += qv * a[i]
		db += qv * b[i]
	}
	for j := 0; j < k-1; j++ {
		ra[j] += da
		rb[j] += db
		qj := f.q[j*m : (j+1)*m : (j+1)*m]
		qn := f.q[(j+1)*m : (j+2)*m]
		qn, a, b := qn[:len(qj)], a[:len(qj)], b[:len(qj)]
		sa, sb := 0.0, 0.0
		for i, qv := range qj {
			ai := a[i] - da*qv
			a[i] = ai
			sa += qn[i] * ai
			bi := b[i] - db*qv
			b[i] = bi
			sb += qn[i] * bi
		}
		da, db = sa, sb
	}
	ra[k-1] += da
	rb[k-1] += db
	qk := f.q[(k-1)*m : k*m]
	axpyDot(a, qk, da)
	axpyDot(b, qk, db)
}

// axpyDot subtracts d·q from v in place: v[i] -= d*q[i].
func axpyDot(v, q []float64, d float64) {
	v = v[:len(q)]
	for i, qv := range q {
		v[i] -= d * qv
	}
}

// Reset empties the factorization, keeping its storage for reuse.
func (f *IncrementalQR) Reset() { f.k = 0 }

// Drop removes the most recently appended column (no-op when empty).
func (f *IncrementalQR) Drop() {
	if f.k > 0 {
		f.k--
	}
}

// DeflateLatest subtracts from v its projection onto the newest Q column:
// v ← v − (q_k·v)·q_k. For a residual r = y − QQᵀy maintained across
// appends this is the O(m) residual update of orthogonal matching pursuit
// (the new column is orthogonal to all previous ones, so one deflation
// keeps r exact). Returns the removed coefficient q_k·v.
func (f *IncrementalQR) DeflateLatest(v []float64) (float64, error) {
	if f.k == 0 {
		return 0, errors.New("mat: DeflateLatest on empty factorization")
	}
	if len(v) != f.m {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrShape, len(v), f.m)
	}
	qk := f.q[(f.k-1)*f.m : f.k*f.m]
	d := Dot(qk, v)
	axpyDot(v, qk, d)
	return d, nil
}

// Solve returns the least-squares coefficients x minimizing ‖A·x − y‖₂ for
// the factored A: x = R⁻¹Qᵀy.
func (f *IncrementalQR) Solve(y []float64) ([]float64, error) {
	x := make([]float64, f.k)
	if err := f.SolveInto(x, y); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto writes the least-squares coefficients into x (length Len()).
func (f *IncrementalQR) SolveInto(x, y []float64) error {
	if len(y) != f.m {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(y), f.m)
	}
	if len(x) != f.k {
		return fmt.Errorf("%w: solution length %d, want %d", ErrShape, len(x), f.k)
	}
	// x ← Qᵀy.
	for j := 0; j < f.k; j++ {
		x[j] = Dot(f.q[j*f.m:(j+1)*f.m], y)
	}
	// Back-substitute R·x = Qᵀy (R stored column-contiguous: R[i][j] at
	// r[j*maxCols+i]).
	for i := f.k - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < f.k; j++ {
			s -= f.r[j*f.maxCols+i] * x[j]
		}
		d := f.r[i*f.maxCols+i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}
