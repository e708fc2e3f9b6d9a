package detrange_test

import (
	"testing"

	"graphspar/internal/analysis/analysistest"
	"graphspar/internal/analysis/detrange"
)

func TestDetrange(t *testing.T) {
	analysistest.Run(t, "testdata", detrange.Analyzer, "core")
}

func TestDetrangeIgnoresNonPipelinePackages(t *testing.T) {
	analysistest.Run(t, "testdata", detrange.Analyzer, "svc")
}
