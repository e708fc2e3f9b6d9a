package graphspar_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"graphspar"
)

// The facade is built with functional options; WithSigma2 is the only
// required one, and validation errors are typed.
func ExampleNew() {
	// A σ² target is required — the zero value cannot certify anything.
	_, err := graphspar.New()
	fmt.Println(errors.Is(err, graphspar.ErrBadSigma2))

	// A minimal valid configuration.
	s, err := graphspar.New(graphspar.WithSigma2(100), graphspar.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Sigma2())
	// Output:
	// true
	// 100
}

// Run sparsifies a graph to the configured σ² target and returns the
// unified Result: the sparsifier subgraph plus its similarity
// certificate.
func ExampleSparsifier_Run() {
	g, err := graphspar.LoadGraph("grid:10x10:unit", 1)
	if err != nil {
		log.Fatal(err)
	}
	s, err := graphspar.New(graphspar.WithSigma2(50), graphspar.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertices:", res.Sparsifier.N())
	fmt.Println("connected:", res.Sparsifier.IsConnected())
	fmt.Println("certified:", res.TargetMet && res.VerifiedCond <= 50)
	// Output:
	// vertices: 100
	// connected: true
	// certified: true
}

// WithMode pins the execution path — here the multilevel hierarchy
// engine, which coarsens the graph, sparsifies the coarsest level with
// the full pipeline, and interpolates + re-filters the selection back
// level by level. The certificate is verified on the original graph.
func ExampleWithMode() {
	g, err := graphspar.LoadGraph("grid:32x32:unit", 1)
	if err != nil {
		log.Fatal(err)
	}
	s, err := graphspar.New(
		graphspar.WithSigma2(50),
		graphspar.WithSeed(1),
		graphspar.WithMode(graphspar.ModeMultilevel),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multilevel:", res.Multilevel)
	fmt.Println("levels:", res.CoarsenDepth > 1)
	fmt.Println("certified:", res.TargetMet && res.VerifiedCond <= 50)
	// Output:
	// multilevel: true
	// levels: true
	// certified: true
}

// Maintain returns a live Stream: apply batched edge updates and the
// sparsifier's σ² certificate is kept valid incrementally instead of
// re-running the pipeline per mutation.
func ExampleSparsifier_Maintain() {
	g, err := graphspar.LoadGraph("grid:8x8:unit", 1)
	if err != nil {
		log.Fatal(err)
	}
	s, err := graphspar.New(graphspar.WithSigma2(60), graphspar.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	st, err := s.Maintain(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	batch := []graphspar.Update{
		graphspar.Insert(0, 63, 1.5),
		graphspar.Reweight(0, 1, 2.0),
	}
	if err := st.Apply(context.Background(), batch); err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph edges:", st.Graph().M())
	fmt.Println("certificate holds:", st.TargetMet())
	// Output:
	// graph edges: 113
	// certificate holds: true
}
