package core_test

import (
	"fmt"

	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/testkit/fixture"
)

// ExampleSparsify demonstrates the basic similarity-aware sparsification
// flow: pick a σ² target and receive a sparsifier whose relative condition
// number is bounded by it.
func ExampleSparsify() {
	g, err := gen.Grid2D(40, 40, gen.UniformWeights, 42)
	if err != nil {
		panic(err)
	}
	res, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Println("spanning subgraph:", res.Sparsifier.N() == g.N())
	fmt.Println("connected:", res.Sparsifier.IsConnected())
	fmt.Println("guarantee met:", res.SigmaSqAchieved <= 100)
	fmt.Println("ultra-sparse:", res.Sparsifier.M() < g.M())
	// Output:
	// spanning subgraph: true
	// connected: true
	// guarantee met: true
	// ultra-sparse: true
}

// ExampleThreshold shows the σ-aware filtering threshold of eq. 15: the
// larger the similarity target, the higher the bar an off-tree edge must
// clear.
func ExampleThreshold() {
	lmin, lmax := 1.0, 1000.0
	t := 2
	fmt.Printf("θ(σ²=100) = %.3e\n", core.Threshold(100, lmin, lmax, t))
	fmt.Printf("θ(σ²=500) = %.3e\n", core.Threshold(500, lmin, lmax, t))
	// Output:
	// θ(σ²=100) = 1.000e-05
	// θ(σ²=500) = 3.125e-02
}

// ExampleEstimateLambdaMin computes the node-coloring bound of eq. 18 for
// a triangle versus its spanning path.
func ExampleEstimateLambdaMin() {
	g, _ := fixture.Complete(3)
	p, _ := fixture.Path(3)
	fmt.Printf("λ̃min = %.2f\n", core.EstimateLambdaMin(g, p))
	// Output:
	// λ̃min = 1.00
}
