package cs

import (
	"errors"

	"repro/internal/mat"
)

// Warm-start plumbing shared by the OMP and CHS cores. A seed is a support
// recovered by an earlier decode of the same dictionary (Result.Support,
// in admission order). Seeding replays exactly the Append/DeflateLatest
// sequence the greedy loop would have performed for those columns — the
// correlation scans it skips never touch the QR factors or the residual —
// so a seed that matches what the cold decode would have admitted leaves
// the decoder in a bit-identical state.

// validSeed reports whether a seed can be folded into the factors at all:
// non-empty, within the support cap, all indices in range and distinct.
// Invalid seeds are silently discarded (the caller decodes cold): a stale
// support from a differently-sized window is an expected input, not an
// error. mark (length n) is all false on entry and is left all false.
func validSeed(seed []int, n, maxSupport int, mark []bool) bool {
	return len(seed) > 0 && len(seed) <= maxSupport && distinct(seed, n, mark)
}

// seedFactors gathers the seed columns straight into the incremental-QR
// column slots and factors them in one pipelined pass, deflating the
// residual after each — the Append/DeflateLatest sequence of the greedy
// loop, bit for bit (mat.IncrementalQR.AppendSeed). It returns the grown
// support and ok=false when a seed column is linearly dependent on its
// predecessors (the caller restarts cold). Hard errors (dictionary access
// on a validated index) propagate.
func seedFactors(d dict, qr *mat.IncrementalQR, resid []float64, support []int, inSupport []bool, seed []int) ([]int, bool, error) {
	for c, j := range seed {
		if err := d.col(qr.Slot(c), j); err != nil {
			return support, false, err
		}
	}
	got, err := qr.AppendSeed(len(seed), resid)
	for _, j := range seed[:got] {
		support = append(support, j)
		inSupport[j] = true
	}
	switch {
	case errors.Is(err, mat.ErrSingular):
		return support, false, nil // rank-deficient seed: decode cold
	case err != nil:
		return support, false, err
	}
	return support, true, nil
}

// coldRestart discards a failed seed: empty factors, full residual, empty
// support. The inSupport marks set during seeding are cleared in place.
func coldRestart(ws *workspace, y []float64, support []int) []int {
	for _, j := range support {
		ws.inSupport[j] = false
	}
	ws.qr.Reset()
	copy(ws.resid, y)
	return support[:0]
}
