// Package gen synthesizes the graph families used as stand-ins for the
// paper's SuiteSparse test cases (DESIGN.md §3 lists the mapping):
//
//   - Grid2D / Grid3D — circuit (G2/G3_circuit), thermal, ecology, tmt_sym,
//     parabolic_fem and fe_rotor/brack2/auto classes;
//   - TriMesh — triangulated 2D meshes (thermal1, raefsky class);
//   - Annulus — airfoil-like mesh around a hole (Fig. 1);
//   - KNN — random geometric k-nearest-neighbor graphs (pdb1HYS protein
//     and RCV-80NN classes);
//   - BarabasiAlbert (+ Coauthorship triangle closure) — social and
//     co-authorship networks (coAuthorsDBLP class);
//   - WattsStrogatz — small-world data networks;
//   - DenseRandom — the dense `appu` class;
//   - RandomRegular — expander-like controls.
//
// All generators take an explicit seed and guarantee connected outputs.
package gen

import (
	"fmt"
	"math"
	"sort"

	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

// WeightMode selects how edge weights are assigned by grid/mesh builders.
type WeightMode int

// Weight modes.
const (
	UnitWeights    WeightMode = iota // every edge weight 1
	UniformWeights                   // uniform in [0.1, 1.1), the paper's "random edge weights"
	LogUniform                       // 10^U(-3,0): heavy-tailed weights, stresses stretch
)

func weight(mode WeightMode, rng *vecmath.RNG) float64 {
	switch mode {
	case UniformWeights:
		return 0.1 + rng.Float64()
	case LogUniform:
		return math.Pow(10, -3*rng.Float64())
	default:
		return 1
	}
}

// Grid2D returns the rows×cols 4-neighbor lattice.
func Grid2D(rows, cols int, mode WeightMode, seed uint64) (*graph.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: Grid2D dimensions %dx%d invalid", rows, cols)
	}
	rng := vecmath.NewRNG(seed)
	id := func(r, c int) int { return r*cols + c }
	edges := make([]graph.Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: weight(mode, rng)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: weight(mode, rng)})
			}
		}
	}
	return graph.New(rows*cols, edges)
}

// Grid3D returns the nx×ny×nz 6-neighbor lattice.
func Grid3D(nx, ny, nz int, mode WeightMode, seed uint64) (*graph.Graph, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("gen: Grid3D dimensions %dx%dx%d invalid", nx, ny, nz)
	}
	rng := vecmath.NewRNG(seed)
	id := func(x, y, z int) int { return (x*ny+y)*nz + z }
	var edges []graph.Edge
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				if x+1 < nx {
					edges = append(edges, graph.Edge{U: id(x, y, z), V: id(x+1, y, z), W: weight(mode, rng)})
				}
				if y+1 < ny {
					edges = append(edges, graph.Edge{U: id(x, y, z), V: id(x, y+1, z), W: weight(mode, rng)})
				}
				if z+1 < nz {
					edges = append(edges, graph.Edge{U: id(x, y, z), V: id(x, y, z+1), W: weight(mode, rng)})
				}
			}
		}
	}
	return graph.New(nx*ny*nz, edges)
}

// TriMesh returns a rows×cols grid with one diagonal per cell, i.e. a
// structured triangulation — the classic FEM stiffness pattern.
func TriMesh(rows, cols int, mode WeightMode, seed uint64) (*graph.Graph, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("gen: TriMesh needs at least 2x2, got %dx%d", rows, cols)
	}
	rng := vecmath.NewRNG(seed)
	id := func(r, c int) int { return r*cols + c }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: weight(mode, rng)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: weight(mode, rng)})
			}
			if r+1 < rows && c+1 < cols {
				// Alternate diagonal direction per cell parity for an
				// isotropic-looking triangulation.
				if (r+c)%2 == 0 {
					edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c+1), W: weight(mode, rng)})
				} else {
					edges = append(edges, graph.Edge{U: id(r, c+1), V: id(r+1, c), W: weight(mode, rng)})
				}
			}
		}
	}
	return graph.New(rows*cols, edges)
}

// Annulus builds a triangulated ring mesh: `rings` concentric circles of
// `perRing` vertices around an elliptical hole, consecutive rings joined by
// quads split into triangles. Its spectral drawing shows the hole, making
// it the stand-in for the paper's airfoil graph (Fig. 1).
func Annulus(rings, perRing int, mode WeightMode, seed uint64) (*graph.Graph, []([2]float64), error) {
	if rings < 2 || perRing < 3 {
		return nil, nil, fmt.Errorf("gen: Annulus needs rings>=2, perRing>=3; got %d,%d", rings, perRing)
	}
	rng := vecmath.NewRNG(seed)
	n := rings * perRing
	pos := make([][2]float64, n)
	id := func(r, k int) int { return r*perRing + k }
	for r := 0; r < rings; r++ {
		rad := 1 + 2*float64(r)/float64(rings-1)
		for k := 0; k < perRing; k++ {
			th := 2 * math.Pi * float64(k) / float64(perRing)
			// Elliptical hole: squash x to make it wing-like.
			pos[id(r, k)] = [2]float64{1.6 * rad * math.Cos(th), rad * math.Sin(th)}
		}
	}
	var edges []graph.Edge
	for r := 0; r < rings; r++ {
		for k := 0; k < perRing; k++ {
			nk := (k + 1) % perRing
			edges = append(edges, graph.Edge{U: id(r, k), V: id(r, nk), W: weight(mode, rng)})
			if r+1 < rings {
				edges = append(edges, graph.Edge{U: id(r, k), V: id(r+1, k), W: weight(mode, rng)})
				edges = append(edges, graph.Edge{U: id(r, k), V: id(r+1, nk), W: weight(mode, rng)})
			}
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, pos, nil
}

// KNN builds a k-nearest-neighbor graph over n uniform random points in
// the unit square (dim=2) or cube (dim=3), with Gaussian-kernel weights
// exp(-d²/σ²) as is standard for machine-learning similarity graphs
// (the RCV-80NN test case is an 80-NN graph). If the raw kNN graph is
// disconnected, edges between x-sorted consecutive points in different
// components are added so the result is always connected.
func KNN(n, k, dim int, seed uint64) (*graph.Graph, error) {
	if n < 2 || k < 1 || k >= n || (dim != 2 && dim != 3) {
		return nil, fmt.Errorf("gen: KNN(n=%d, k=%d, dim=%d) invalid", n, k, dim)
	}
	rng := vecmath.NewRNG(seed)
	pts := make([][3]float64, n)
	for i := range pts {
		for d := 0; d < dim; d++ {
			pts[i][d] = rng.Float64()
		}
	}
	dist2 := func(a, b int) float64 {
		var s float64
		for d := 0; d < dim; d++ {
			dd := pts[a][d] - pts[b][d]
			s += dd * dd
		}
		return s
	}

	// Grid-bucket accelerated kNN (sufficient for uniform points).
	cells := int(math.Max(1, math.Floor(math.Pow(float64(n)/8, 1/float64(dim)))))
	bucket := make(map[[3]int][]int)
	cellOf := func(i int) [3]int {
		var c [3]int
		for d := 0; d < dim; d++ {
			v := int(pts[i][d] * float64(cells))
			if v >= cells {
				v = cells - 1
			}
			c[d] = v
		}
		return c
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		bucket[c] = append(bucket[c], i)
	}
	type cand struct {
		j int
		d float64
	}
	// Mutual nearest-neighbor pairs must yield one edge, not a doubled
	// weight, so collect pairs in a set first.
	pairs := make(map[[2]int]float64)
	sigma2 := math.Pow(float64(k)/float64(n), 2/float64(dim)) // typical kNN radius²
	cbuf := make([]cand, 0, 64)
	for i := 0; i < n; i++ {
		cbuf = cbuf[:0]
		c := cellOf(i)
		for ring := 1; ; ring++ {
			cbuf = cbuf[:0]
			lo, hi := -ring, ring
			for dx := lo; dx <= hi; dx++ {
				for dy := lo; dy <= hi; dy++ {
					zlo, zhi := 0, 0
					if dim == 3 {
						zlo, zhi = lo, hi
					}
					for dz := zlo; dz <= zhi; dz++ {
						cc := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
						for _, j := range bucket[cc] {
							if j != i {
								cbuf = append(cbuf, cand{j, dist2(i, j)})
							}
						}
					}
				}
			}
			if len(cbuf) >= k || ring > cells {
				break
			}
		}
		sort.Slice(cbuf, func(a, b int) bool { return cbuf[a].d < cbuf[b].d })
		kk := k
		if kk > len(cbuf) {
			kk = len(cbuf)
		}
		for _, cd := range cbuf[:kk] {
			w := math.Exp(-cd.d / sigma2)
			if w < 1e-12 {
				w = 1e-12
			}
			u, v := i, cd.j
			if u > v {
				u, v = v, u
			}
			pairs[[2]int{u, v}] = w
		}
	}
	edges := make([]graph.Edge, 0, len(pairs))
	for p, w := range pairs {
		edges = append(edges, graph.Edge{U: p[0], V: p[1], W: w})
	}
	// The pairs are distinct with U < V: sorted, they are graph.New's own
	// order, which it then does not sort again.
	sort.Slice(edges, func(a, b int) bool {
		return edges[a].U < edges[b].U || (edges[a].U == edges[b].U && edges[a].V < edges[b].V)
	})
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, err
	}
	if g.IsConnected() {
		return g, nil
	}
	// Stitch components along the x-sorted order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pts[order[a]][0] < pts[order[b]][0] })
	labels, _ := g.Components()
	var extra []graph.Edge
	for i := 0; i+1 < n; i++ {
		a, b := order[i], order[i+1]
		if labels[a] != labels[b] {
			w := math.Exp(-dist2(a, b) / sigma2)
			if w < 1e-12 {
				w = 1e-12
			}
			extra = append(extra, graph.Edge{U: a, V: b, W: w})
			// Merge the labels naively (few components expected).
			from, to := labels[b], labels[a]
			for v := range labels {
				if labels[v] == from {
					labels[v] = to
				}
			}
		}
	}
	return g.AddEdges(extra)
}

// BarabasiAlbert grows a preferential-attachment graph: each new vertex
// attaches to m existing vertices chosen proportionally to degree. The
// resulting power-law degree distribution matches social-network test
// cases. Weights are 1.
func BarabasiAlbert(n, m int, seed uint64) (*graph.Graph, error) {
	if n < 2 || m < 1 || m >= n {
		return nil, fmt.Errorf("gen: BarabasiAlbert(n=%d, m=%d) invalid", n, m)
	}
	rng := vecmath.NewRNG(seed)
	// Repeated-endpoint list for preferential sampling.
	targets := make([]int, 0, 2*m*n)
	var edges []graph.Edge
	// Seed clique on m+1 vertices.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
			targets = append(targets, i, j)
		}
	}
	// The m distinct endpoints in draw order; the map only de-duplicates.
	picks := make([]int, 0, m)
	chosen := make(map[int]bool, m)
	for v := m + 1; v < n; v++ {
		picks = picks[:0]
		clear(chosen)
		for len(picks) < m {
			if u := targets[rng.Intn(len(targets))]; !chosen[u] {
				chosen[u] = true
				picks = append(picks, u)
			}
		}
		for _, u := range picks {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			targets = append(targets, u, v)
		}
	}
	return graph.New(n, edges)
}

// Coauthorship returns a Barabási–Albert graph with extra triangle-closing
// edges: for a fraction `closure` of vertices, two random neighbors are
// connected. High clustering plus power-law degrees approximates
// co-authorship networks (coAuthorsDBLP class).
func Coauthorship(n, m int, closure float64, seed uint64) (*graph.Graph, error) {
	g, err := BarabasiAlbert(n, m, seed)
	if err != nil {
		return nil, err
	}
	if closure < 0 || closure > 1 {
		return nil, fmt.Errorf("gen: closure fraction %v outside [0,1]", closure)
	}
	rng := vecmath.NewRNG(seed ^ 0xc0ffee)
	in := graph.NewIncidence(g)
	var extra []graph.Edge
	for v := 0; v < n; v++ {
		if rng.Float64() >= closure {
			continue
		}
		nbrs, _ := in.Arcs(v)
		if len(nbrs) < 2 {
			continue
		}
		a, b := nbrs[rng.Intn(len(nbrs))], nbrs[rng.Intn(len(nbrs))]
		if a != b {
			extra = append(extra, graph.Edge{U: int(a), V: int(b), W: 1})
		}
	}
	return g.AddEdges(extra)
}

// WattsStrogatz builds the small-world model: a ring lattice where every
// vertex connects to its k nearest ring neighbors (k even), with each edge
// rewired to a random endpoint with probability beta. Connectivity is kept
// by never rewiring the immediate-neighbor ring.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*graph.Graph, error) {
	if n < 4 || k < 2 || k%2 != 0 || k >= n || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: WattsStrogatz(n=%d, k=%d, beta=%v) invalid", n, k, beta)
	}
	rng := vecmath.NewRNG(seed)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			u := (v + j) % n
			if j > 1 && rng.Float64() < beta {
				// Rewire the far end to a random vertex.
				w := rng.Intn(n)
				if w != v {
					u = w
				}
			}
			if u != v {
				edges = append(edges, graph.Edge{U: v, V: u, W: 1})
			}
		}
	}
	return graph.New(n, edges)
}

// DenseRandom returns a graph where every vertex has approximately avgDeg
// random neighbors with uniform weights — the stand-in for `appu`
// (a random graph with ~130 average degree). A spanning ring keeps it
// connected.
func DenseRandom(n, avgDeg int, seed uint64) (*graph.Graph, error) {
	if n < 3 || avgDeg < 2 || avgDeg >= n {
		return nil, fmt.Errorf("gen: DenseRandom(n=%d, avgDeg=%d) invalid", n, avgDeg)
	}
	rng := vecmath.NewRNG(seed)
	edges := make([]graph.Edge, 0, n*avgDeg/2+n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: (v + 1) % n, W: 0.1 + rng.Float64()})
	}
	want := n * (avgDeg - 2) / 2
	for e := 0; e < want; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: 0.1 + rng.Float64()})
		}
	}
	return graph.New(n, edges)
}

// RandomRegular builds an approximately d-regular graph via the
// configuration model with retry-free self-loop/duplicate dropping, plus a
// ring for connectivity. Used as an expander-like control case.
func RandomRegular(n, d int, seed uint64) (*graph.Graph, error) {
	if n < 3 || d < 2 || d >= n {
		return nil, fmt.Errorf("gen: RandomRegular(n=%d, d=%d) invalid", n, d)
	}
	rng := vecmath.NewRNG(seed)
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			stubs = append(stubs, v)
		}
	}
	// Shuffle and pair.
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	var edges []graph.Edge
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: (v + 1) % n, W: 1})
	}
	return graph.New(n, edges)
}

// Barbell returns two K_k cliques joined by a path of pathLen edges, with
// the chosen weight mode on every edge. Every path edge is a bridge, which
// makes the graph the canonical stress case for connectivity-sensitive
// code: a spanning backbone must carry the whole path, and deleting any
// path edge disconnects the graph. Vertices 0..k-1 form the left clique,
// the path interior follows, and the right clique occupies the last k ids.
func Barbell(k, pathLen int, mode WeightMode, seed uint64) (*graph.Graph, error) {
	if k < 3 || pathLen < 1 {
		return nil, fmt.Errorf("gen: Barbell(k=%d, pathLen=%d) invalid", k, pathLen)
	}
	rng := vecmath.NewRNG(seed)
	n := 2*k + pathLen - 1
	var edges []graph.Edge
	clique := func(base int) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: weight(mode, rng)})
			}
		}
	}
	clique(0)
	clique(k + pathLen - 1)
	// Path from the last left-clique vertex through pathLen-1 interior
	// vertices to the first right-clique vertex.
	for i := 0; i < pathLen; i++ {
		edges = append(edges, graph.Edge{U: k - 1 + i, V: k + i, W: weight(mode, rng)})
	}
	return graph.New(n, edges)
}
