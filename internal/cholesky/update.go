package cholesky

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"graphspar/internal/graph"
)

// UpdateSparse applies the rank-1 modification A ← A + sign·v·vᵀ (sign = +1
// update, −1 downdate) to the factorization in place, using the
// Carlson/Gill–Golub–Murray sparse row algorithm: hyperbolic (downdate) or
// Givens-like (update) rotations applied only along the elimination-tree
// path from the first nonzero of P·v to the root, so the cost is the fill
// of that path rather than a full refactorization. Under minimum degree
// that path is short on sparsifiers with off-tree edges; on a bare tree it
// can run as deep as the tree's diameter.
//
// v is given as parallel index/value slices (indices in the matrix's
// original, pre-permutation space, no duplicates). The path starts at the
// factor column of the minimum permuted index of v. When P·v has a nonzero
// outside that column's pattern, the pattern grows first (growth): the
// column gains the missing rows, the columns above it on the new
// elimination tree gain what that forces, the factor is laid out again
// with the new entries zero, and the rotations then run along the new
// tree. The pattern never shrinks: a downdate to zero keeps its entries.
// A downdate that would make the matrix numerically semidefinite returns
// ErrNotSPD; the factor is then partially modified and must be rebuilt.
//
// UpdateSparse mutates the shared numeric values: it must not run
// concurrently with Solve on the receiver or on any Session sharing this
// factor. An update that grows the pattern moves the factor's entries,
// within its arrays or into new ones: a Session taken before it must not
// be used after it.
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
	// The update stays inside the pattern iff pattern(P·v) ⊆
	// pattern(L(:,f0)) (Davis–Hager); grow it where it is not.
	gr := growth{f: f}
	for _, i := range idx {
		gr.absorb(f0, f.inv[i])
	}
	if err := gr.relayout(); err != nil {
		return err
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

// hasRow reports whether row r ≥ j is in column j's pattern: the
// diagonal, a row inside the column's run (a range check), or one of its
// gathered entries (a binary search; they are stored ascending with the
// diagonal first).
func (f *Factor) hasRow(j, r int32) bool {
	if r == j || (f.runRow[j] <= r && r < f.runRow[j]+f.runPtr[j+1]-f.runPtr[j]) {
		return true
	}
	_, ok := slices.BinarySearchFunc(f.ent[f.colPtr[j]+1:f.colPtr[j+1]], r, func(e entry, row int32) int { return cmp.Compare(e.row, row) })
	return ok
}

// growth is the symbolic half of a rank-1 update that needs fill — the
// pattern update of Davis & Hager ("Modifying a sparse Cholesky
// factorization", SIAM J. Matrix Anal. Appl. 20(3), 1999), what
// CHOLMOD's updown runs before its numeric pass. It collects the rows the
// pattern gains beside the factor, with the elimination tree they imply,
// and relayout merges them into the factor's storage in one pass, however
// many updates absorbed rows in between. The grown pattern is the
// symbolic factor, under the factor's order, of the matrix plus every
// absorbed update, so it stays closed: each column's rows above its
// parent are rows of the parent.
type growth struct {
	f      *Factor
	add    map[int32][]int32 // column → the rows it gains, ascending
	parent []int             // the grown elimination tree; nil until a column gains a row
}

// has reports whether row r ≥ j is in column j's grown pattern.
func (g *growth) has(j, r int32) bool {
	if g.f.hasRow(j, r) {
		return true
	}
	_, ok := slices.BinarySearch(g.add[j], r)
	return ok
}

// absorb makes column j's grown pattern hold row r ≥ j. A new row enters
// column j; j's parent becomes its smallest off-diagonal row; the parent
// gains the rows of j above it that it lacks — all of them when the
// parent moved, only j's new ones otherwise, the rest being there by
// closure — and so on up the new tree, stopping at the first column that
// gains nothing.
func (g *growth) absorb(j, r int32) {
	if g.has(j, r) {
		return
	}
	if g.parent == nil {
		g.add = make(map[int32][]int32)
		g.parent = slices.Clone(g.f.parent)
	}
	fresh := []int32{r}
	for len(fresh) > 0 {
		for _, q := range fresh {
			rows := g.add[j]
			at, _ := slices.BinarySearch(rows, q)
			g.add[j] = slices.Insert(rows, at, q)
		}
		k := int32(g.parent[j])
		moved := k < 0 || fresh[0] < k
		if moved {
			k = fresh[0]
			g.parent[j] = int(k)
		}
		var next []int32
		gain := func(q int32) {
			if q > k && !g.has(k, q) {
				next = append(next, q)
			}
		}
		if moved {
			f := g.f
			for _, e := range f.ent[f.colPtr[j]+1 : f.colPtr[j+1]] {
				gain(e.row)
			}
			for q := f.runRow[j]; q < f.runRow[j]+f.runPtr[j+1]-f.runPtr[j]; q++ {
				gain(q)
			}
			for _, q := range g.add[j] {
				gain(q)
			}
			slices.Sort(next)
		} else {
			for _, q := range fresh {
				gain(q)
			}
		}
		j, fresh = k, next
	}
}

// relayout lays the factor out again with the absorbed rows merged in,
// their values zero, and installs the grown elimination tree. Each grown
// column is split anew by runOf; the unchanged columns between two grown
// ones move as one block of entries and one of run values, shifted by
// what the grown columns before them gained, and their pointers with
// them. The blocks move within the factor's own arrays, from the last
// back so that none overwrites one not yet moved, while every shift is
// forward and the arrays' capacity holds the growth; otherwise into new
// arrays with an eighth to spare. Nothing absorbed, nothing done; a grown
// nnz(L) past the int32 limit returns ErrTooLarge with the factor
// untouched.
func (g *growth) relayout() error {
	if g.parent == nil {
		return nil
	}
	f := g.f
	n := f.n
	cols := make([]int32, 0, len(g.add))
	for j := range g.add {
		cols = append(cols, j)
	}
	slices.Sort(cols)
	// grown[c] is column cols[c] in row order, runLen[c] its run's length;
	// shiftEnt[s] and shiftRun[s] are how far the block of columns after
	// cols[s-1] (s = 0: before cols[0]) moves along ent and run.
	grown := make([][]entry, len(cols))
	runLen := make([]int32, len(cols))
	first := make([]int32, len(cols))
	shiftEnt := make([]int, len(cols)+1)
	shiftRun := make([]int, len(cols)+1)
	forward := true
	for c, j := range cols {
		col := grownColumn(f, j, g.add[j])
		stretch := int32(0)
		for q := len(col) - 1; q > 0 && (q == len(col)-1 || col[q].row+1 == col[q+1].row); q-- {
			stretch++
		}
		grown[c] = col
		runLen[c], first[c] = runOf(n, stretch, col[len(col)-1].row)
		shiftEnt[c+1] = shiftEnt[c] + len(col) - int(runLen[c]) - int(f.colPtr[j+1]-f.colPtr[j])
		shiftRun[c+1] = shiftRun[c] + int(runLen[c]-(f.runPtr[j+1]-f.runPtr[j]))
		forward = forward && shiftEnt[c+1] >= 0 && shiftRun[c+1] >= 0
	}
	growEnt, growRun := shiftEnt[len(cols)], shiftRun[len(cols)]
	if err := checkIndexable("nnz(L)", f.NNZ()+growEnt+growRun); err != nil {
		return err
	}
	nEnt, nRun := len(f.ent)+growEnt, len(f.run)+growRun
	inPlace := forward && nEnt <= cap(f.ent) && nRun <= cap(f.run)
	var ent []entry
	var run []float64
	if inPlace {
		ent, run = f.ent[:nEnt], f.run[:nRun]
	} else {
		ent, run = make([]entry, nEnt, nEnt+nEnt/8), make([]float64, nRun, nRun+nRun/8)
	}
	hi := n
	for s := len(cols); s >= 0; s-- {
		lo := 0
		if s > 0 {
			lo = int(cols[s-1]) + 1
		}
		if p0, p1 := f.colPtr[lo], f.colPtr[hi]; !inPlace || shiftEnt[s] != 0 {
			copy(ent[int(p0)+shiftEnt[s]:], f.ent[p0:p1])
		}
		if r0, r1 := f.runPtr[lo], f.runPtr[hi]; !inPlace || shiftRun[s] != 0 {
			copy(run[int(r0)+shiftRun[s]:], f.run[r0:r1])
		}
		if s == 0 {
			break
		}
		j, col := cols[s-1], grown[s-1]
		gathered := len(col) - int(runLen[s-1])
		copy(ent[int(f.colPtr[j])+shiftEnt[s-1]:][:gathered], col)
		vs := run[int(f.runPtr[j])+shiftRun[s-1]:][:runLen[s-1]]
		for q, e := range col[gathered:] {
			vs[q] = e.val
		}
		hi = int(j)
	}
	// The pointers follow: a column starts as far along as the grown
	// columns before it moved it.
	c := 0
	for j := int(cols[0]) + 1; j <= n; j++ {
		if c < len(cols) && int(cols[c]) == j-1 {
			f.runRow[j-1] = first[c]
			c++
		}
		f.colPtr[j] += int32(shiftEnt[c])
		f.runPtr[j] += int32(shiftRun[c])
	}
	f.ent, f.run, f.parent = ent, run, g.parent
	return nil
}

// grownColumn lists column j in row order — its diagonal, its gathered
// entries, its run with the rows spelled out — with the rows add
// (ascending, none already present) merged in at value zero.
func grownColumn(f *Factor, j int32, add []int32) []entry {
	old := f.ent[f.colPtr[j]:f.colPtr[j+1]]
	run, r0 := f.run[f.runPtr[j]:f.runPtr[j+1]], f.runRow[j]
	total := len(old) + len(run)
	at := func(q int) entry {
		if q < len(old) {
			return old[q]
		}
		return entry{r0 + int32(q-len(old)), run[q-len(old)]}
	}
	col := make([]entry, 0, total+len(add))
	q := 0
	for _, r := range add {
		for ; q < total && at(q).row < r; q++ {
			col = append(col, at(q))
		}
		col = append(col, entry{row: r})
	}
	for ; q < total; q++ {
		col = append(col, at(q))
	}
	return col
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
		diag := &f.ent[p0]
		alpha := w[j] / diag.val
		beta2 := beta*beta + sgn*alpha*alpha
		if beta2 <= 0 || math.IsNaN(beta2) {
			return fmt.Errorf("%w: rank-1 downdate annihilates pivot %d", ErrNotSPD, j)
		}
		beta2 = math.Sqrt(beta2)
		var delta, gamma float64
		if sigma > 0 {
			delta = beta / beta2
			gamma = alpha / (beta2 * beta)
			diag.val = delta*diag.val + gamma*w[j]
		} else {
			delta = beta2 / beta
			gamma = -alpha / (beta2 * beta)
			diag.val = delta * diag.val
		}
		w[j] = 0
		// One rotation per entry: w ← w − α·L, L ← δ·L + γ·w, where the w
		// feeding L is the old one on an update and the new one on a
		// downdate. Gathered up to the column's run, sliced along it.
		gathered := f.ent[p0+1 : f.colPtr[j+1]]
		for q := range gathered {
			e := &gathered[q]
			w1 := w[e.row]
			w2 := w1 - alpha*e.val
			w[e.row] = w2
			if sigma > 0 {
				w2 = w1
			}
			e.val = delta*e.val + gamma*w2
		}
		if r0, r1 := f.runPtr[j], f.runPtr[j+1]; r0 < r1 {
			vs := f.run[r0:r1]
			ws := w[f.runRow[j]:][:len(vs)]
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
// An edge outside the factor's pattern grows the pattern first (see
// UpdateSparse, and Grow for a batch of them); a deletion or downweight
// that would disconnect the sparsifier surfaces as ErrNotSPD, and the
// caller refactors.
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

// Grow extends the factor's pattern so that ApplyEdge on each of edges
// (weights ignored) stays inside it: the symbolic update of every edge,
// then one relayout for all of them, where ApplyEdge alone would lay the
// factor out again for each edge that needs fill. Values are unchanged;
// the new entries are zero. Like a growing ApplyEdge, it invalidates any
// Session taken before it. A grown nnz(L) past the int32 limit returns
// ErrTooLarge with the factor untouched.
func (ls *LapSolver) Grow(edges []graph.Edge) error {
	if ls.n == 1 {
		return nil
	}
	f := ls.factor
	gr := growth{f: f}
	for _, e := range edges {
		if e.U == ls.ground || e.V == ls.ground {
			continue // one nonzero: the column's own diagonal
		}
		a, b := f.inv[e.U], f.inv[e.V]
		gr.absorb(min(a, b), max(a, b))
	}
	return gr.relayout()
}
