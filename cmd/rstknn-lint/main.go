// Command rstknn-lint is the project's vettool: a go-vet-compatible
// driver for the six domain analyzers in internal/analysis (ctxflow,
// locksafe, floatcmp, hotalloc, errlost, and the path-sensitive
// lockorder).
//
// It is not run directly; build it and hand it to go vet:
//
//	go build -o /tmp/rstknn-lint ./cmd/rstknn-lint
//	go vet -vettool=/tmp/rstknn-lint ./...
//
// or simply `make lint`. The driver summarizes every package it
// typechecks into per-function facts (allocation, I/O and lock-order
// behavior) and propagates them between packages through go vet's .vetx
// fact files, so the cross-function analyzers (hotalloc, locksafe's
// transitive rule and lockorder) see through package boundaries.
//
// Flags (pass via go vet): -json emits machine-readable diagnostics
// (schema_version 2: per-analyzer finding counts, elapsed_us timings,
// and suppression counts). There is no baseline: the bar is zero
// findings. Intentional exceptions are annotated in source with
// //rstknn:allow <analyzer> <reason>, and hot-path roots with
// //rstknn:hotpath <reason> (see internal/analysis).
package main

import "rstknn/internal/analysis"

func main() {
	analysis.VetMain(analysis.All()...)
}
