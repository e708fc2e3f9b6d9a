package cholesky

import (
	"math"
	"math/bits"

	"graphspar/internal/sparse"
)

// MinDegree computes an approximate minimum degree (AMD) ordering of the
// symmetric matrix's graph, the pattern of A ∪ Aᵀ minus the diagonal: the
// algorithm of Amestoy, Davis & Duff (SIAM J. Matrix Anal. Appl. 17(4),
// 1996), CHOLMOD's default ordering. Ultra-sparse near-tree matrices
// (spanning tree + few off-tree edges, exactly what similarity-aware
// sparsifiers look like) factor with almost no fill under it, where
// bandwidth orderings like RCM pay a large penalty.
//
// The elimination graph is never written out. It is kept as a quotient
// graph in one int32 workspace of quotientLen entries: each variable (a
// vertex not yet eliminated) lists the elements it belongs to and the
// variables it is still adjacent to, and each element (an eliminated
// pivot) lists the variables of the clique its elimination formed. A pivot
// turns the union of its elements into one new element and absorbs them,
// so the lists never outgrow the input; an element whose variables all lie
// in the new one is absorbed too (aggressive absorption). Degrees are
// AMD's approximate external degrees, upper bounds computed from
// |Le ∖ Lme| per element e in time proportional to the lists touched, not
// from merged neighbor sets. Variables whose lists become identical merge
// into one supervariable, found by hashing the lists, each collision
// settled by comparing them; a variable left adjacent to the new element
// only is eliminated with the pivot (mass elimination). A row denser than
// max(16, 10√n) is left out and ordered last, as AMD does, so a hub costs
// no list scan per neighbor eliminated. Cost grows with the lists the
// pivots touch, not with the fill they cause.
//
// Tie rule: the pivot is the head of the lowest non-empty degree bucket,
// a variable entering a bucket goes to its head, and before any
// elimination the lowest index comes first. A pivot re-enters the
// variables of its element in the order the element lists them. No map is
// iterated: the order is a function of the input pattern alone. Returns
// perm with perm[new] = old: each pivot's element in pivot order, the
// variables merged into it ascending before the pivot itself, then the
// dense rows ascending.
func MinDegree(a *sparse.CSR) []int {
	s := newQuotientGraph(a)
	s.eliminate()
	return s.permutation()
}

// quotientLen is the length of MinDegree's workspace for n vertices
// whose lists are scattered from entries list entries: those and n. Each
// off-diagonal entry of A is scattered to both of its vertices' lists
// before the duplicates are dropped, so entries is twice A's off-diagonal
// count. A symmetric pattern's lists fill half of it once deduplicated,
// and the rest is elbow room; past the lists, the elimination needs n
// entries at the least (TestMinDegreeCompressionKeepsOrder).
func quotientLen(entries, n int) int {
	return entries + n
}

// maxHash caps the hash table the supervariable search buckets Lme in:
// it has the power of two at or above n buckets, at most maxHash. Only
// the variables of one element are in it at a time, so a table that
// stays in cache serves better than one slot per vertex.
const maxHash = 1 << 12

// empty marks an absent list, parent or bucket entry; flip(i) stores a
// parent i where a list offset would be, and is its own inverse.
const empty = -1

func flip(i int32) int32 { return -i - 2 }

// quotientGraph is the state of one MinDegree run. Object i is a variable
// while v[i].nv > 0 and its list is live, an element once it has been a
// pivot, and absorbed (pe = flip(parent)) when merged into a
// supervariable, mass-eliminated or absorbed as an element. An object's
// fields sit side by side in one 32-byte node: the pivot loop visits
// objects all over the graph, and one cache line then serves all of them.
type quotientGraph struct {
	n     int32
	iw    []int32 // the lists; object i's is iw[v[i].pe:][:v[i].ln]
	pfree int32   // iw[pfree:] is free
	v     []node
	head  []int32 // head[d]: first variable of degree bucket d
	hhead []int32 // hash buckets of the variables in Lme

	wflg, wbig int32
	mindeg     int32
	lemax      int32
	nel        int32   // variables eliminated so far, dense rows included
	pivots     []int32 // elements in the order they were formed
}

type node struct {
	pe   int32 // list offset, flip(parent) once absorbed, empty if none
	ln   int32 // list length
	elen int32 // a variable's list holds elen elements, then variables
	nv   int32 // supervariable size; 0 if absorbed; −size while in Lme
	deg  int32 // variable: approximate external degree; element: |Le|
	w    int32 // element: |Le ∖ Lme| + wflg during a pivot; marks
	next int32 // successor in a degree bucket or a hash bucket
	last int32 // predecessor in a degree bucket; hash key in Lme
}

// newQuotientGraph lays out each vertex's neighbor list and queues every
// vertex by degree. Empty rows are eliminated at once; dense rows are set
// aside for the end.
func newQuotientGraph(a *sparse.CSR) *quotientGraph {
	n := a.Rows
	s := &quotientGraph{
		n:      int32(n),
		v:      make([]node, n),
		head:   make([]int32, n),
		hhead:  make([]int32, 1<<bits.Len(uint(min(max(n, 1), maxHash)-1))),
		wbig:   math.MaxInt32 - int32(n),
		pivots: make([]int32, 0, n),
	}
	s.scatterRows(a)
	v := s.v
	dense := int32(max(16, 10*math.Sqrt(float64(n))))
	for i := range v {
		s.head[i] = empty
		v[i].nv, v[i].w, v[i].deg = 1, 1, v[i].ln
	}
	for h := range s.hhead {
		s.hhead[h] = empty
	}
	s.wflg = s.clearFlag(0)
	for i := int32(n) - 1; i >= 0; i-- {
		switch d := v[i].deg; {
		case d == 0:
			v[i].pe, v[i].elen, v[i].w = empty, empty, 0
			s.nel++
			s.pivots = append(s.pivots, i)
		case d > dense:
			v[i].pe, v[i].elen, v[i].nv = empty, empty, 0
			s.nel++
		default:
			s.push(i, d)
		}
	}
	return s
}

// scatterRows lays out the lists of A ∪ Aᵀ: every off-diagonal (i,j)
// scattered to the lists of i and j, then the lists packed to the front
// without duplicates, with a marker. Each list keeps the first occurrence
// of every neighbor, so a symmetric pattern with ascending rows lists
// each row's columns in order.
func (s *quotientGraph) scatterRows(a *sparse.CSR) {
	n, v := a.Rows, s.v
	scattered := 0
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i {
				v[i].ln++
				v[j].ln++
				scattered += 2
			}
		}
	}
	// A caller that can refuse the system checks quotientLen first
	// (newLapSolver does); here a workspace past int32 offsets is a broken
	// precondition.
	size := quotientLen(scattered, n)
	if err := checkIndexable("ordering workspace", size); err != nil {
		panic(err)
	}
	s.iw = make([]int32, size)
	iw := s.iw
	// head, whose buckets are filled only afterwards, holds each list's
	// scatter cursor, then the dedup marker: int32s side by side, where the
	// nodes' fields lie 32 bytes apart.
	cur := s.head
	var t int32
	for i := range cur {
		cur[i] = t
		t += v[i].ln
	}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i {
				iw[cur[i]] = int32(j)
				cur[i]++
				iw[cur[j]] = int32(i)
				cur[j]++
			}
		}
	}
	mark := cur
	for i := range mark {
		mark[i] = empty
	}
	var q, src int32
	for i := range v {
		end := src + v[i].ln
		v[i].pe = q
		for ; src < end; src++ { // each list is read ahead of where it is written
			if j := iw[src]; mark[j] != int32(i) {
				mark[j] = int32(i)
				iw[q] = j
				q++
			}
		}
		v[i].ln = q - v[i].pe
	}
	s.pfree = q
}

// clearFlag returns wflg, or resets the marks and returns 2 once wflg is
// too large to add n to. Afterwards every w is below the returned flag.
func (s *quotientGraph) clearFlag(wflg int32) int32 {
	if wflg >= 2 && wflg < s.wbig {
		return wflg
	}
	for x := range s.v {
		if s.v[x].w != 0 {
			s.v[x].w = 1
		}
	}
	return 2
}

// push puts variable i at the head of degree bucket d.
func (s *quotientGraph) push(i, d int32) {
	h := s.head[d]
	if h != empty {
		s.v[h].last = i
	}
	s.v[i].next, s.v[i].last = h, empty
	s.head[d] = i
}

// unlink takes variable i out of its degree bucket.
func (s *quotientGraph) unlink(i int32) {
	v := s.v
	p, q := v[i].last, v[i].next
	if q != empty {
		v[q].last = p
	}
	if p != empty {
		v[p].next = q
	} else {
		s.head[v[i].deg] = q
	}
}

// eliminate runs the pivot loop until every variable is eliminated.
func (s *quotientGraph) eliminate() {
	v := s.v
	for s.nel < s.n {
		for s.head[s.mindeg] == empty {
			s.mindeg++
		}
		me := s.head[s.mindeg]
		s.unlink(me)
		s.pivots = append(s.pivots, me)
		elenme, nvpiv := v[me].elen, v[me].nv
		s.nel += nvpiv
		v[me].nv = -nvpiv
		pme1, pme2, degme := s.formElement(me)
		v[me].pe, v[me].elen = pme1, empty
		s.wflg = s.clearFlag(s.wflg)
		lme := s.iw[pme1 : pme2+1]
		s.externalDegrees(lme)
		degme, nvpiv = s.updateDegrees(me, lme, degme, nvpiv)
		v[me].deg = degme
		s.lemax = max(s.lemax, degme)
		s.wflg = s.clearFlag(s.wflg + s.lemax)
		s.detectSupervariables(lme)
		s.finishElement(me, pme1, lme, degme, nvpiv, elenme)
	}
}

// formElement turns pivot me into an element: Lme, the principal
// variables adjacent to me directly or through its elements, each taken
// out of its degree bucket and flagged with a negated nv, and me's
// elements absorbed into it. With no elements Lme is built in place of
// me's list; otherwise it is appended at pfree, compressing the
// workspace first if it is full. Returns Lme's first and last offsets and
// its size in variables.
func (s *quotientGraph) formElement(me int32) (pme1, pme2, degme int32) {
	iw, v := s.iw, s.v
	vme := &v[me]
	elenme := vme.elen
	if elenme == 0 {
		pme1 = vme.pe
		pme2 = pme1 - 1
		for _, i := range iw[pme1 : pme1+vme.ln] {
			if nvi := v[i].nv; nvi > 0 {
				degme += nvi
				v[i].nv = -nvi
				pme2++
				iw[pme2] = i
				s.unlink(i)
			}
		}
		return pme1, pme2, degme
	}
	p := vme.pe
	pme1 = s.pfree
	slenme := vme.ln - elenme
	for k1 := int32(1); k1 <= elenme+1; k1++ {
		var e, pj, lne int32
		if k1 > elenme {
			e, pj, lne = me, p, slenme // me's own variables
		} else {
			e = iw[p]
			p++
			pj, lne = v[e].pe, v[e].ln
		}
		for k2 := int32(1); k2 <= lne; k2++ {
			i := iw[pj]
			pj++
			nvi := v[i].nv
			if nvi <= 0 {
				continue
			}
			if s.pfree >= int32(len(iw)) {
				// Leave only the unscanned rest of me and of e in their
				// lists, so the compression keeps just that.
				vme.pe = p
				vme.ln -= k1
				if vme.ln == 0 {
					vme.pe = empty
				}
				v[e].pe = pj
				v[e].ln = lne - k2
				if v[e].ln == 0 {
					v[e].pe = empty
				}
				pme1 = s.compress(pme1)
				pj, p = v[e].pe, vme.pe
			}
			degme += nvi
			v[i].nv = -nvi
			iw[s.pfree] = i
			s.pfree++
			s.unlink(i)
		}
		if e != me {
			v[e].pe = flip(me) // e is absorbed into me
			v[e].w = 0
		}
	}
	return pme1, s.pfree - 1, degme
}

// compress packs every live list to the front of the workspace, followed
// by the partial element at iw[pme1:pfree], and returns that element's
// new offset. Each live list's first entry is parked in pe and replaced by
// flip(owner), which no vertex id collides with, so one sweep finds the
// lists among the dead entries.
func (s *quotientGraph) compress(pme1 int32) int32 {
	iw, v := s.iw, s.v
	for j := range v {
		if pn := v[j].pe; pn >= 0 {
			v[j].pe = iw[pn]
			iw[pn] = flip(int32(j))
		}
	}
	var src, dst int32
	for src < pme1 {
		j := flip(iw[src])
		src++
		if j < 0 {
			continue
		}
		iw[dst] = v[j].pe
		v[j].pe = dst
		rest := v[j].ln - 1
		copy(iw[dst+1:dst+1+rest], iw[src:src+rest])
		dst += 1 + rest
		src += rest
	}
	copy(iw[dst:], iw[pme1:s.pfree])
	s.pfree = dst + s.pfree - pme1
	return dst
}

// externalDegrees sets w − wflg = |Le ∖ Lme| for every element e of a
// variable in Lme: the first visit starts from |Le|, every variable of Lme
// met in Le takes its size off.
func (s *quotientGraph) externalDegrees(lme []int32) {
	iw, v, wflg := s.iw, s.v, s.wflg
	for _, i := range lme {
		vi := &v[i]
		if vi.elen <= 0 {
			continue
		}
		nvi := -vi.nv
		for _, e := range iw[vi.pe : vi.pe+vi.elen] {
			ve := &v[e]
			switch we := ve.w; {
			case we >= wflg:
				ve.w = we - nvi
			case we != 0:
				ve.w = ve.deg + wflg - nvi
			}
		}
	}
}

// updateDegrees bounds each variable of Lme's external degree by the sum
// of |Le ∖ Lme| over its other elements and the sizes of its remaining
// variables, prunes its list (absorbed elements, variables in Lme or no
// longer principal), absorbs every element with nothing outside Lme, and
// puts me first in the list. A variable left adjacent to me only is
// eliminated with me. The others go to the hash bucket of their pruned
// list. Returns Lme's size and the pivot count after mass elimination.
func (s *quotientGraph) updateDegrees(me int32, lme []int32, degme, nvpiv int32) (int32, int32) {
	iw, v, wflg := s.iw, s.v, s.wflg
	mask := uint64(len(s.hhead) - 1)
	for _, i := range lme {
		vi := &v[i]
		p1 := vi.pe
		p2 := p1 + vi.elen
		pn := p1
		var hash uint64
		var d int32
		for _, e := range iw[p1:p2] {
			ve := &v[e]
			if ve.w == 0 {
				continue // absorbed
			}
			if dext := ve.w - wflg; dext > 0 {
				d += dext
				iw[pn] = e
				pn++
				hash += uint64(e)
			} else {
				ve.pe = flip(me) // aggressive absorption
				ve.w = 0
			}
		}
		vi.elen = pn - p1 + 1 // with me
		p3 := pn
		for _, j := range iw[p2 : p1+vi.ln] {
			if nvj := v[j].nv; nvj > 0 {
				d += nvj
				iw[pn] = j
				pn++
				hash += uint64(j)
			}
		}
		if vi.elen == 1 && p3 == pn {
			// Mass elimination: i is adjacent to me only.
			vi.pe = flip(me)
			nvi := -vi.nv
			degme -= nvi
			nvpiv += nvi
			s.nel += nvi
			vi.nv, vi.elen = 0, empty
			continue
		}
		vi.deg = min(vi.deg, d)
		// me goes first: the first variable moves to the end, the first
		// element to where that variable was. The list lost at least one
		// entry (me, or an element me absorbed), so the end is its own.
		iw[pn] = iw[p3]
		iw[p3] = iw[p1]
		iw[p1] = me
		vi.ln = pn - p1 + 1
		h := int32(hash & mask)
		vi.next = s.hhead[h]
		s.hhead[h] = i
		vi.last = h
	}
	return degme, nvpiv
}

// detectSupervariables merges variables of Lme with identical lists. Two
// such lists hash alike, so only a hash bucket's members are compared: the
// first member's list (me aside) is marked, each later one of the same
// length and element count is checked entry by entry against the marks,
// and a match is absorbed into the first. Each bucket is emptied.
func (s *quotientGraph) detectSupervariables(lme []int32) {
	iw, v := s.iw, s.v
	for _, i := range lme {
		if v[i].nv >= 0 {
			continue // mass-eliminated, or already absorbed here
		}
		h := v[i].last
		i = s.hhead[h]
		s.hhead[h] = empty
		for ; i != empty && v[i].next != empty; i = v[i].next {
			vi := &v[i]
			for _, x := range iw[vi.pe+1 : vi.pe+vi.ln] {
				v[x].w = s.wflg
			}
			jlast := i
			for j := vi.next; j != empty; {
				vj := &v[j]
				same := vj.ln == vi.ln && vj.elen == vi.elen
				if same {
					for _, x := range iw[vj.pe+1 : vj.pe+vj.ln] {
						if v[x].w != s.wflg {
							same = false
							break
						}
					}
				}
				if same {
					vj.pe = flip(i)
					vi.nv += vj.nv // both negative while in Lme
					vj.nv, vj.elen = 0, empty
					j = vj.next
					v[jlast].next = j
				} else {
					jlast, j = j, vj.next
				}
			}
			s.wflg++
		}
	}
}

// finishElement puts each principal variable of Lme back in a degree
// bucket, its degree the bound plus what me adds, capped by the variables
// left; keeps only those in me's list; and frees what the list no longer
// needs.
func (s *quotientGraph) finishElement(me, pme1 int32, lme []int32, degme, nvpiv, elenme int32) {
	v := s.v
	nleft := s.n - s.nel
	p := 0
	for _, i := range lme {
		nvi := -v[i].nv
		if nvi <= 0 {
			continue
		}
		v[i].nv = nvi
		d := min(v[i].deg+degme-nvi, nleft-nvi)
		v[i].deg = d
		s.push(i, d)
		s.mindeg = min(s.mindeg, d)
		lme[p] = i
		p++
	}
	v[me].nv = nvpiv
	v[me].ln = int32(p)
	if p == 0 {
		v[me].pe = empty // a root: nothing left to absorb it into
		v[me].w = 0
	}
	if elenme != 0 {
		s.pfree = pme1 + int32(p) // Lme was appended at the end
	}
}

// permutation lays the elements out in pivot order, each taking one slot
// per variable eliminated with it: first the variables absorbed into it,
// ascending, then the pivot itself. The dense rows come last. (A postorder
// of the assembly tree has the same fill, but puts a column next to the
// one it updates: on the σ² = 100 grid192 sparsifier that made each
// solve 40 % slower.)
func (s *quotientGraph) permutation() []int {
	v := s.v
	pos := int32(0)
	for _, e := range s.pivots {
		v[e].deg = pos // free now: the next slot of e's block
		pos += v[e].nv
	}
	perm := make([]int, s.n)
	for i := range v {
		if v[i].nv != 0 || v[i].pe == empty {
			continue
		}
		e := flip(v[i].pe)
		for v[e].nv == 0 {
			e = flip(v[e].pe)
		}
		for j := int32(i); v[j].nv == 0; { // path compression
			up := flip(v[j].pe)
			v[j].pe = flip(e)
			j = up
		}
		perm[v[e].deg] = i
		v[e].deg++
	}
	for _, e := range s.pivots {
		perm[v[e].deg] = int(e)
	}
	for i := range v {
		if v[i].nv == 0 && v[i].pe == empty {
			perm[pos] = i
			pos++
		}
	}
	return perm
}
