package main

import "graphspar/cmd/internal/runners"

// The facade-backed runner funcs live in cmd/internal/runners so that
// cmd/loadgen's self-serve mode boots an identical server. The aliases
// keep this package's call sites (main.go and the e2e tests) reading as
// the service's production wiring.
var (
	runSparsify = runners.Sparsify
	runMaintain = runners.Maintain
)
