package cholesky

import (
	"math/bits"

	"graphspar/internal/sparse"
)

// MinDegree computes a greedy minimum-degree elimination ordering of the
// symmetric matrix's graph — the classic fill-reducing heuristic behind
// AMD/CHOLMOD. Ultra-sparse near-tree matrices (spanning tree + few
// off-tree edges, exactly what similarity-aware sparsifiers look like)
// factor with almost no fill under this ordering, where bandwidth
// orderings like RCM pay a large penalty.
//
// The elimination graph is explicit: one sorted int32 neighbor list per
// vertex, carved from a single arena, and a lazy binary min-heap keyed by
// degree alone. Eliminating v rewrites each neighbor's list as the sorted
// merge (adj[u] ∖ {v}) ∪ (adj[v] ∖ {u}), so a pivot of degree k costs
// O(Σ_u |adj[u]| + k²) — proportional to the fill the ordering produces,
// cheap whenever the ordering is good. A degree-1 pivot only decrements
// its neighbor's degree and leaves a tombstone behind, so a hub shedding
// leaves stays O(1) per leaf. Once the remaining graph is dense enough
// that a bitset row per vertex is no larger than the lists (average
// degree ≥ remaining/32), the tail of the elimination runs on bitsets:
// a merge is a word-wise OR and a degree a popcount.
//
// Ties are broken by the heap's layout, and every factor downstream
// depends on the exact order, so the heap replays container/heap's
// up/down rules and the push sequence is fixed: all vertices in index
// order, then after each pivot its neighbors in ascending order with
// their new degrees; a popped entry whose degree is stale is pushed back
// with the current one. Returns perm with perm[new] = old.
func MinDegree(a *sparse.CSR) []int {
	n := a.Rows
	order := make([]int, 0, n)
	s := newElimGraph(a)
	for v := 0; v < n; v++ {
		s.push(int32(v), s.deg[v])
	}
	// Whatever the heap still holds once every vertex is ordered is dead.
	for len(order) < n {
		it := s.pop()
		v := it.v
		d := s.deg[v]
		if d < 0 {
			continue
		}
		if it.deg != d {
			// Stale entry: reinsert with the current degree.
			s.push(v, d)
			continue
		}
		if remaining := n - len(order); !s.dense && 32*s.live >= remaining*remaining {
			s.densify()
		}
		order = append(order, int(v))
		if s.dense {
			s.eliminateDense(v)
		} else {
			s.eliminate(v)
		}
	}
	return order
}

type degEntry struct{ v, deg int32 }

// elimGraph is the state of one MinDegree run.
type elimGraph struct {
	arena []int32 // the neighbor lists; new lists are appended at the tail
	spare []int32 // compaction target, swapped with arena
	off   []int   // arena offset of v's list
	size  []int32 // stored entries of v's list, tombstones included
	deg   []int32 // live neighbors of v; -1 once eliminated
	live  int     // Σ deg over live vertices, maintained while on lists
	heap  []degEntry

	dense bool     // the tail runs on rows, not lists
	words int      // uint64 words per bitset row
	rows  []uint64 // one row per vertex that was live at the switch
	ids   []int32  // row index → vertex
	rank  []int    // vertex → row index
}

// push and pop replay container/heap's Push and Pop on a degree-only
// Less, moving the sifted entry through a hole instead of swapping — the
// resulting layout is the same.
func (s *elimGraph) push(v, deg int32) {
	h := append(s.heap, degEntry{})
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if deg >= h[i].deg {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = degEntry{v, deg}
	s.heap = h
}

func (s *elimGraph) pop() degEntry {
	h := s.heap
	n := len(h) - 1
	top, x := h[0], h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			j := 2*i + 1
			if j+1 < n {
				// The smaller child, the left one on a tie, picked without a
				// branch: degrees are non-negative, so the difference's sign
				// bit is the comparison.
				j += int(uint32(h[j+1].deg-h[j].deg) >> 31)
			} else if j >= n {
				break
			}
			if h[j].deg >= x.deg {
				break
			}
			h[i] = h[j]
			i = j
		}
		h[i] = x
	}
	s.heap = h
	return top
}

// newElimGraph builds the sorted, duplicate-free neighbor lists of the
// pattern of A ∪ Aᵀ minus the diagonal in two counting passes: scatter
// every off-diagonal (i,j) to rows i and j, then transpose that
// (symmetric) structure, which emits each row in ascending order.
func newElimGraph(a *sparse.CSR) *elimGraph {
	n := a.Rows
	s := &elimGraph{off: make([]int, n), size: make([]int32, n), deg: make([]int32, n)}
	cnt := s.size
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i {
				cnt[i]++
				cnt[j]++
			}
		}
	}
	total := 0
	for v := 0; v < n; v++ {
		s.off[v] = total
		total += int(cnt[v])
	}
	// Both arenas get room for the transposition (total entries) plus n of
	// slack; the duplicate-free lists are at most total and, for a
	// symmetric input, half of it, so the slack the compactor wants is
	// usually already there.
	s.spare = make([]int32, total+n)
	s.arena = make([]int32, total+n)
	s.heap = make([]degEntry, 0, 2*n)

	cur := append([]int(nil), s.off...)
	unsorted, sorted := s.spare, s.arena
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i {
				unsorted[cur[i]] = int32(j)
				cur[i]++
				unsorted[cur[j]] = int32(i)
				cur[j]++
			}
		}
	}
	copy(cur, s.off)
	for i := 0; i < n; i++ {
		for _, x := range unsorted[s.off[i] : s.off[i]+int(cnt[i])] {
			sorted[cur[x]] = int32(i)
			cur[x]++
		}
	}
	// Drop the duplicates, closing the gaps so the lists end up packed at
	// the front of the arena.
	w := 0
	for v := 0; v < n; v++ {
		list := sorted[s.off[v] : s.off[v]+int(cnt[v])]
		start := w
		for t, x := range list {
			if t == 0 || x != sorted[w-1] {
				sorted[w] = x
				w++
			}
		}
		s.off[v] = start
		s.size[v] = int32(w - start)
		s.deg[v] = s.size[v]
	}
	s.arena = sorted[:w]
	s.live = w
	return s
}

// list returns v's stored neighbor list.
func (s *elimGraph) list(v int32) []int32 {
	return s.arena[s.off[v] : s.off[v]+int(s.size[v])]
}

// purge drops the tombstones from v's list in place.
func (s *elimGraph) purge(v int32) {
	if s.size[v] == s.deg[v] {
		return
	}
	list := s.list(v)
	w := 0
	for _, x := range list {
		if s.deg[x] >= 0 {
			list[w] = x
			w++
		}
	}
	s.size[v] = int32(w)
}

// eliminate removes v from the list-form elimination graph, turning its
// neighbors into a clique, and pushes them with their new degrees.
func (s *elimGraph) eliminate(v int32) {
	s.purge(v)
	k := int(s.size[v])
	if k == 1 {
		// A leaf adds no edge: u only loses a neighbor, and the tombstone v
		// leaves in u's list is dropped by the next purge of u.
		u := s.list(v)[0]
		s.deg[v] = -1
		s.deg[u]--
		s.live -= 2
		s.push(u, s.deg[u])
		return
	}
	need := 0
	for _, u := range s.list(v) {
		need += int(s.size[u]) + k
	}
	if len(s.arena)+need > cap(s.arena) {
		s.compact(need) // while v is still live, so its list moves along
	}
	nbrs := s.list(v) // stays put: merged lists are appended past len(arena)
	s.deg[v] = -1
	s.live -= k
	for _, u := range nbrs {
		old := s.deg[u]
		s.purge(u)
		start := len(s.arena)
		s.arena = mergeLists(s.arena, s.list(u), nbrs, v, u)
		s.off[u] = start
		s.size[u] = int32(len(s.arena) - start)
		s.deg[u] = s.size[u]
		s.live += int(s.deg[u] - old)
		s.push(u, s.deg[u])
	}
}

// mergeLists appends (a ∖ {skipA}) ∪ (b ∖ {skipB}) to dst, which must
// have the capacity; a and b are sorted and may alias dst's prefix.
func mergeLists(dst, a, b []int32, skipA, skipB int32) []int32 {
	out := dst[len(dst):cap(dst)]
	w, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			out[w] = x
			if x != skipA {
				w++
			}
			i++
		case y < x:
			out[w] = y
			if y != skipB {
				w++
			}
			j++
		default: // in both lists, so neither v (not its own neighbor) nor u
			out[w] = x
			w++
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		out[w] = a[i]
		if a[i] != skipA {
			w++
		}
	}
	for ; j < len(b); j++ {
		out[w] = b[j]
		if b[j] != skipB {
			w++
		}
	}
	return dst[:len(dst)+w]
}

// compact copies the live lists to the front of the spare arena, sized
// so that need more entries fit with enough slack to amortize the copy,
// and swaps the arenas.
func (s *elimGraph) compact(need int) {
	n := len(s.deg)
	used := need
	for v := 0; v < n; v++ {
		if s.deg[v] >= 0 {
			used += int(s.size[v])
		}
	}
	if cap(s.spare) < 2*used+n {
		s.spare = make([]int32, 0, 3*used+2*n)
	}
	dst := s.spare[:0]
	for v := 0; v < n; v++ {
		if s.deg[v] >= 0 {
			start := len(dst)
			dst = append(dst, s.list(int32(v))...)
			s.off[v] = start
		}
	}
	s.arena, s.spare = dst, s.arena
}

// densify moves the live part of the elimination graph into bitset rows.
// Row indices follow vertex order, so a row's set bits enumerate its
// neighbors in the same ascending order the lists did.
func (s *elimGraph) densify() {
	s.dense = true
	s.rank = make([]int, len(s.deg))
	for v, d := range s.deg {
		if d >= 0 {
			s.rank[v] = len(s.ids)
			s.ids = append(s.ids, int32(v))
		}
	}
	s.words = (len(s.ids) + 63) / 64
	s.rows = make([]uint64, len(s.ids)*s.words)
	for c, v := range s.ids {
		row := s.rows[c*s.words : (c+1)*s.words]
		for _, x := range s.list(v) {
			if s.deg[x] >= 0 {
				r := s.rank[x]
				row[r>>6] |= 1 << (r & 63)
			}
		}
	}
	s.arena, s.spare = nil, nil
}

// eliminateDense is eliminate on the bitset rows.
func (s *elimGraph) eliminateDense(v int32) {
	s.deg[v] = -1
	c, words := s.rank[v], s.words
	pivot := s.rows[c*words : (c+1)*words]
	for wi, w := range pivot {
		for ; w != 0; w &= w - 1 {
			uc := wi<<6 + bits.TrailingZeros64(w)
			row := s.rows[uc*words : (uc+1)*words]
			d := 0
			for t, pw := range pivot {
				row[t] |= pw
				d += bits.OnesCount64(row[t])
			}
			// The union holds exactly two bits that are not neighbors of
			// u: v (u's row had it) and u itself (the pivot row had it).
			row[c>>6] &^= 1 << (c & 63)
			row[uc>>6] &^= 1 << (uc & 63)
			u := s.ids[uc]
			s.deg[u] = int32(d - 2)
			s.push(u, s.deg[u])
		}
	}
}
