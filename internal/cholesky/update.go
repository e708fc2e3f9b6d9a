package cholesky

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrUpdatePattern is returned when a rank-1 update vector has nonzeros
// outside the pattern of the factor column it first touches: folding it in
// would create new fill, which UpdateSparse cannot do in place. Callers fall back
// to a full refactorization.
var ErrUpdatePattern = errors.New("cholesky: rank-1 update pattern exceeds factor structure")

// UpdateSparse applies the rank-1 modification A ← A + sign·v·vᵀ (sign = +1
// update, −1 downdate) to the factorization in place, using the
// Carlson/Gill–Golub–Murray sparse row algorithm: hyperbolic (downdate) or
// Givens-like (update) rotations applied only along the elimination-tree
// path from the first nonzero of P·v to the root, so the cost is the fill
// of that path — O(polylog n) under a nested-dissection order on
// sparsifier-shaped matrices — rather than a full refactorization, and
// never O(n).
//
// v is given as parallel index/value slices (indices in the matrix's
// original, pre-permutation space, no duplicates). The update is exact (no
// fill is created) iff the pattern of P·v is contained in the pattern of
// the factor column of its minimum permuted index; otherwise
// ErrUpdatePattern is returned and the factor is unchanged. A downdate that
// would make the matrix numerically semidefinite returns ErrNotSPD; the
// factor is then partially modified and must be rebuilt.
//
// UpdateSparse mutates the shared numeric values: it must not run
// concurrently with Solve on the receiver or on any Session sharing this
// factor.
func (f *Factor) UpdateSparse(idx []int, val []float64, sign int) error {
	if sign != 1 && sign != -1 {
		panic(fmt.Sprintf("cholesky: Update sign %d, want +1 or -1", sign))
	}
	if len(idx) != len(val) {
		panic("cholesky: UpdateSparse index/value length mismatch")
	}
	if len(idx) == 0 {
		return nil
	}
	// Map to permuted row indices and find the path start f0.
	f0 := int32(f.n)
	for _, i := range idx {
		if i < 0 || i >= f.n {
			return fmt.Errorf("cholesky: update index %d out of range [0,%d)", i, f.n)
		}
		if p := f.inv[i]; p < f0 {
			f0 = p
		}
	}
	// No-fill precondition (Davis–Hager): pattern(P·v) ⊆ pattern(L(:,f0)).
	// Column patterns are stored ascending with the diagonal first, so each
	// remaining index is a binary search away.
	rows := f.rowIdx[f.colPtr[f0]:f.colPtr[f0+1]]
	for _, i := range idx {
		p := f.inv[i]
		if p == f0 {
			continue
		}
		if _, ok := slices.BinarySearch(rows, p); !ok {
			return ErrUpdatePattern
		}
	}
	if f.upWork == nil {
		f.upWork = make([]float64, f.n)
	}
	w := f.upWork
	for k, i := range idx {
		w[f.inv[i]] += val[k]
	}
	if err := f.updown(w, int(f0), sign); err != nil {
		// The walk aborted mid-path; w is dirty along the visited prefix.
		clear(w)
		return err
	}
	return nil
}

// updown performs the factor modification for L·Lᵀ + sigma·w·wᵀ along the
// etree path from f0 to the root (CSparse cs_updown). w is a dense
// workspace whose nonzeros are confined to the path's column patterns; on
// success it is zero again on exit.
func (f *Factor) updown(w []float64, f0 int, sigma int) error {
	beta := 1.0
	sgn := float64(sigma)
	for j := f0; j != -1; j = f.parent[j] {
		p0 := f.colPtr[j]
		alpha := w[j] / f.val[p0]
		beta2 := beta*beta + sgn*alpha*alpha
		if beta2 <= 0 || math.IsNaN(beta2) {
			return fmt.Errorf("%w: rank-1 downdate annihilates pivot %d", ErrNotSPD, j)
		}
		beta2 = math.Sqrt(beta2)
		var delta, gamma float64
		if sigma > 0 {
			delta = beta / beta2
			gamma = alpha / (beta2 * beta)
			f.val[p0] = delta*f.val[p0] + gamma*w[j]
		} else {
			delta = beta2 / beta
			gamma = -alpha / (beta2 * beta)
			f.val[p0] = delta * f.val[p0]
		}
		w[j] = 0
		// One rotation per entry: w ← w − α·L, L ← δ·L + γ·w, where the w
		// feeding L is the old one on an update and the new one on a
		// downdate. Gathered up to the column's run, sliced along it.
		mid, hi := f.runAt[j], f.colPtr[j+1]
		for p := p0 + 1; p < mid; p++ {
			i := f.rowIdx[p]
			w1 := w[i]
			w2 := w1 - alpha*f.val[p]
			w[i] = w2
			if sigma > 0 {
				w2 = w1
			}
			f.val[p] = delta*f.val[p] + gamma*w2
		}
		if mid < hi {
			vs := f.val[mid:hi]
			ws := w[f.rowIdx[mid]:][:len(vs)]
			for q, v := range vs {
				w1 := ws[q]
				w2 := w1 - alpha*v
				ws[q] = w2
				if sigma > 0 {
					w2 = w1
				}
				vs[q] = delta*v + gamma*w2
			}
		}
		beta = beta2
	}
	return nil
}

// ApplyEdge folds a sparsifier edge change into the factored reduced
// Laplacian: adding dw to the weight of edge (u,v) is the rank-1 change
// ±√|dw|·(e_u−e_v)(e_u−e_v)ᵀ of L_P, restricted to the grounded system
// (a term incident to the ground vertex keeps only the other endpoint).
// An insertion whose endpoints the factor pattern cannot absorb returns
// ErrUpdatePattern, and a deletion/downweight that would disconnect the
// sparsifier surfaces as ErrNotSPD — in both cases the caller refactors.
func (ls *LapSolver) ApplyEdge(u, v int, dw float64) error {
	if u == v || u < 0 || v < 0 || u >= ls.n || v >= ls.n {
		return fmt.Errorf("cholesky: ApplyEdge invalid edge (%d,%d) on %d vertices", u, v, ls.n)
	}
	if dw == 0 || ls.n == 1 {
		return nil
	}
	sign := 1
	if dw < 0 {
		sign = -1
	}
	s := math.Sqrt(math.Abs(dw))
	ls.upIdx = ls.upIdx[:0]
	ls.upVal = ls.upVal[:0]
	switch {
	case u == ls.ground:
		ls.upIdx = append(ls.upIdx, v)
		ls.upVal = append(ls.upVal, s)
	case v == ls.ground:
		ls.upIdx = append(ls.upIdx, u)
		ls.upVal = append(ls.upVal, s)
	default:
		ls.upIdx = append(ls.upIdx, u, v)
		ls.upVal = append(ls.upVal, s, -s)
	}
	return ls.factor.UpdateSparse(ls.upIdx, ls.upVal, sign)
}
