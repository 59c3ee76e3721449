package cs

import (
	"sync"

	"repro/internal/basis"
	"repro/internal/mat"
)

// Decode scratch reuse. A streaming deployment decodes every zone every
// window with the same shape — m sensors, the same support cap, an n-cell
// grid — so the OMP and CHS cores draw their scratch from a pool keyed on
// that shape instead of allocating it per decode: the incremental-QR
// storage, the sensor residual, the correlation and column buffers, the
// support and duplicate marks, and the matrix-free dictionary's buffers.
// Every buffer is reinitialized on acquire (or fully overwritten before it
// is read), so a pooled decode is bit-identical to a fresh one; the
// Result's Alpha, Support and Xhat are always freshly allocated, because
// callers keep them (snapshots publish them).

// wsKey is the shape a workspace is sized for.
type wsKey struct{ m, maxSupport, n int }

// workspaces maps a wsKey to the *sync.Pool of its workspaces. A process
// sees few shapes (one per zone geometry and budget), so the map keeps
// one pool per shape seen; the pooled workspaces themselves are reclaimed
// by the GC like any sync.Pool's.
var workspaces sync.Map

// workspace is the scratch of one OMP or CHS decode.
type workspace struct {
	pool      *sync.Pool         // the pool of its shape
	qr        *mat.IncrementalQR // m × maxSupport
	resid     []float64          // m: sensor residual
	col       []float64          // m: one gathered dictionary column
	corr      []float64          // n: correlation scan Φ̃ᵀr (CHS: α_r)
	colNorm   []float64          // n: OMP's column norms, allocated on first use
	inSupport []bool             // n: support membership
	mark      []bool             // n: duplicate marks, all false between uses
	od        opDict             // the matrix-free dictionary's buffers
}

// acquireWorkspace returns a reinitialized workspace for a decode of
// len(locs) measurements over op with at most maxSupport atoms, together
// with the decode dictionary (drawn from the workspace on the matrix-free
// path). Release it with releaseWorkspace once the Result is packed.
func acquireWorkspace(op basis.Operator, locs []int, maxSupport int) (*workspace, dict, error) {
	if len(locs) == 0 {
		return nil, nil, ErrNoMeasurements
	}
	key := wsKey{m: len(locs), maxSupport: maxSupport, n: op.Dim()}
	p, ok := workspaces.Load(key)
	if !ok {
		p, _ = workspaces.LoadOrStore(key, &sync.Pool{})
	}
	pool := p.(*sync.Pool)
	ws, _ := pool.Get().(*workspace)
	if ws == nil {
		qr, err := mat.NewIncrementalQR(key.m, key.maxSupport)
		if err != nil {
			return nil, nil, err
		}
		ws = &workspace{
			pool: pool, qr: qr,
			resid:     make([]float64, key.m),
			col:       make([]float64, key.m),
			corr:      make([]float64, key.n),
			inSupport: make([]bool, key.n),
			mark:      make([]bool, key.n),
		}
	}
	ws.qr.Reset()
	clear(ws.inSupport)
	clear(ws.mark)
	var d dict = &ws.od
	if _, dense := op.(*basis.MatrixOp); dense {
		var err error
		if d, err = dictFor(op, locs); err != nil {
			releaseWorkspace(ws)
			return nil, nil, err
		}
	} else if err := ws.od.reset(op, locs); err != nil {
		releaseWorkspace(ws)
		return nil, nil, err
	}
	return ws, d, nil
}

// releaseWorkspace returns ws to its shape's pool. Nothing the decode
// returns may alias it.
func releaseWorkspace(ws *workspace) {
	ws.od.op, ws.od.locs = nil, nil // drop references to the caller's data
	ws.pool.Put(ws)
}

// distinct reports whether every index in idx lies in [0, n) and none
// repeats — map-free, over marks that are all false on entry (length n)
// and are left all false.
func distinct(idx []int, n int, mark []bool) bool {
	ok, set := true, 0
	for _, j := range idx {
		if j < 0 || j >= n || mark[j] {
			ok = false
			break
		}
		mark[j] = true
		set++
	}
	for _, j := range idx[:set] {
		mark[j] = false
	}
	return ok
}

// zeroed returns buf resized to n entries, all zero, reusing its storage
// when it is large enough.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
