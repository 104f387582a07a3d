# Development entry points. `make check` is what CI runs (minus the
# pinned golangci-lint job, which needs the binary on PATH).

GOLANGCI_LINT ?= golangci-lint
LINT_TOOL     := $(or $(TMPDIR),/tmp)/rstknn-lint
LINT_REPORT   ?= lint-report.json
FUZZTIME      ?= 10s

.PHONY: all build test race race-stress lint lint-json lint-selftest golangci fmt fuzz bench-module bench-baseline bench-views bench-mutate bench-batch check clean

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Hammer the copy-on-write snapshot machinery: concurrent readers
# against live Insert/Delete/Apply writers, tree invariants checked
# after every snapshot swap, repeated for extra interleavings.
race-stress:
	go test -race -run 'TestConcurrentQueryMutateRace|TestPinnedSnapshotSurvivesDelete' -count=3 .

# The nine domain-specific analyzers (ctxflow, locksafe, floatcmp,
# hotalloc, errlost, pinsafe, retirepub, lockorder, untrustedlen)
# driven through the go vet vettool protocol with cross-package fact
# propagation, plus standard go vet (whose copylocks check covers
# copies of lock-bearing structs). The ./...
# pattern spans every package — the root engine, internal/...,
# cmd/..., and examples/... — so the CLIs and examples are held to the
# same lifecycle rules as the engine.
lint:
	go vet ./...
	go build -o $(LINT_TOOL) ./cmd/rstknn-lint
	go vet -vettool=$(LINT_TOOL) ./...

# Machine-readable lint report (one JSON object per package,
# schema_version 2) with per-analyzer finding counts and elapsed-time
# breakdowns — zeroes included, so a clean run still proves
# pinsafe/retirepub/untrustedlen executed; CI uploads this as a build
# artifact. The go command relays the vettool's stdout onto its own
# stderr with `# package` header lines, so the report is carved out of
# stderr with the headers stripped. The target is gating: any finding
# in the report (a "posn" entry — the counts keys are all zero on a
# clean run) fails the build, the same zero-findings bar as `make
# lint`, with no baseline file to go stale.
lint-json:
	go build -o $(LINT_TOOL) ./cmd/rstknn-lint
	go vet -vettool=$(LINT_TOOL) -json ./... 2>&1 | grep -v '^#' > $(LINT_REPORT) || true
	@cat $(LINT_REPORT)
	@if grep -q '"posn"' $(LINT_REPORT); then \
		echo 'lint-json: findings present in $(LINT_REPORT)' >&2; \
		exit 1; \
	fi

# The analyzer corpus: fixture-driven tests of every analyzer (including
# the path-sensitive pinsafe/retirepub/lockorder suites and their
# cross-package fixture packages), the CFG/dataflow unit tests, the fact
# codec round-trip, and the cross-package propagation fixture that fails
# if fact flow is disabled. Run after touching internal/analysis.
lint-selftest:
	go test ./internal/analysis/...

# General-purpose linters; requires golangci-lint on PATH (CI pins its
# version in .github/workflows/ci.yml).
golangci:
	$(GOLANGCI_LINT) run

fmt:
	gofmt -w .

# Short fuzzing pass over every fuzz target; seed corpora live in each
# package's testdata/fuzz directory.
fuzz:
	go test ./internal/vector/  -run '^$$' -fuzz FuzzVectorRoundTrip -fuzztime $(FUZZTIME)
	go test ./internal/iurtree/ -run '^$$' -fuzz FuzzNodeRoundTrip   -fuzztime $(FUZZTIME)
	go test ./internal/iurtree/ -run '^$$' -fuzz FuzzNodeView        -fuzztime $(FUZZTIME)
	go test ./internal/textual/ -run '^$$' -fuzz FuzzTextualPersist  -fuzztime $(FUZZTIME)
	go test .                   -run '^$$' -fuzz FuzzLoad            -fuzztime $(FUZZTIME)

# Vet and test the benchmark module (benchmark/, its own go.mod). The
# root ./... pattern never enters a nested module, yet benchmark/
# compiles against the engine's internal packages, so API changes there
# only show up here.
bench-module:
	cd benchmark && go vet ./... && go test ./...

# Regenerate the checked-in benchmark-regression baseline. The seed and
# workload are pinned so diffs reflect code changes, not input drift;
# wall-clock columns are machine-dependent (see the machine block in the
# JSON), allocs/op and nodes-read are comparable across machines.
bench-baseline:
	go run ./cmd/rstknn-bench -json baseline -seed 7 -scale 0.25 -queries 16 -workers 1,2,4,8 -benchiters 3

# Regenerate BENCH_views.json, the zero-copy view + bound cache evidence
# record: the same pinned workload as bench-baseline, so
# `rstknn-bench -compare BENCH_baseline.json BENCH_views.json` shows the
# allocation and wall-clock deltas row by row.
bench-views:
	go run ./cmd/rstknn-bench -json views -seed 7 -scale 0.25 -queries 16 -workers 1,2,4,8 -benchiters 3

# Regenerate the copy-on-write mutation baseline (insert/delete write
# amplification and reclamation footprint). Same pinning rules as
# bench-baseline: counters are cross-machine comparable, ns/op is not.
bench-mutate:
	go run ./cmd/rstknn-bench -mutate baseline -seed 7 -scale 0.25 -churn 2000

# Regenerate BENCH_batch.json, the shared-traversal batch execution
# evidence record (DESIGN.md §11): the pinned workload answered
# independently and via MultiRSTkNN at several batch sizes. nodes/query,
# shared-hits/query, and the reduction factor are deterministic and
# cross-machine comparable; ns/query is not.
bench-batch:
	go run ./cmd/rstknn-bench -batch batch -seed 7 -scale 0.25 -queries 64 -batchsizes 1,4,16,64 -benchiters 3

check: lint build test bench-module race race-stress fuzz

clean:
	rm -f $(LINT_TOOL)
	go clean ./...
