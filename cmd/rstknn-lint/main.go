// Command rstknn-lint is the project's vettool: a go-vet-compatible
// driver for the nine domain analyzers in internal/analysis (ctxflow,
// locksafe, floatcmp, hotalloc, errlost, the path-sensitive lifecycle
// analyzers pinsafe, retirepub, lockorder, and the SSA-lite taint
// analyzer untrustedlen).
//
// It is not run directly; build it and hand it to go vet:
//
//	go build -o /tmp/rstknn-lint ./cmd/rstknn-lint
//	go vet -vettool=/tmp/rstknn-lint ./...
//
// or simply `make lint`. The driver summarizes every package it
// typechecks into per-function facts (allocation, I/O, lock-order,
// publish/retire, and untrusted-taint behavior) and propagates them
// between packages through go vet's .vetx fact files, so the
// cross-function analyzers (hotalloc, locksafe's transitive rule,
// retirepub, lockorder, and untrustedlen's source/sink summaries) see
// through package boundaries.
//
// Flags (pass via go vet): -json emits machine-readable diagnostics
// (schema_version 2: per-analyzer finding counts, elapsed_us timings,
// and suppression counts). There is no baseline: the bar is zero
// findings. Intentional
// exceptions are annotated in source with
// //rstknn:allow <analyzer> <reason>, hot-path roots with
// //rstknn:hotpath <reason>, and proven-in-bounds decode values with
// //rstknn:validated <reason> (see internal/analysis).
package main

import "rstknn/internal/analysis"

func main() {
	analysis.VetMain(analysis.All()...)
}
