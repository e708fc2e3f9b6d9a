// Command graphsparlint is graphspar's custom static-analysis suite:
// vet-style analyzers that mechanically enforce the repository's
// determinism, cancellation, error-wrapping and metric-cardinality
// conventions.
//
// It runs under the vet harness:
//
//	go build -o "$(go env GOPATH)/bin/graphsparlint" ./cmd/graphsparlint
//	go vet -vettool=$(which graphsparlint) ./...
//
// See the README "Static analysis" section for the analyzer table and
// the //graphspar:* annotation grammar.
package main

import (
	"graphspar/internal/analysis/ctxloop"
	"graphspar/internal/analysis/detrange"
	"graphspar/internal/analysis/driver"
	"graphspar/internal/analysis/errwrapcheck"
	"graphspar/internal/analysis/metriclabel"
	"graphspar/internal/analysis/seedrand"
)

func main() {
	driver.Main(
		detrange.Analyzer,
		seedrand.Analyzer,
		ctxloop.Analyzer,
		errwrapcheck.Analyzer,
		metriclabel.Analyzer,
	)
}
