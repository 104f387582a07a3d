# Development entry points. `make check` is what CI runs (minus the
# pinned golangci-lint job, which needs the binary on PATH).

GOLANGCI_LINT ?= golangci-lint
LINT_TOOL     := $(or $(TMPDIR),/tmp)/rstknn-lint
LINT_REPORT   ?= lint-report.json
FUZZTIME      ?= 10s

.PHONY: all build test test-386 race race-stress lint lint-json lint-selftest golangci fmt fuzz bench-module check clean

all: build

build:
	go build ./...

test:
	go test ./...

# The decoders of stored bytes and the root package on a 32-bit int: a
# size guard written as a product (len(buf) < 4+n*12) wraps there and
# admits a count far beyond the buffer, which no amd64 run can see.
test-386:
	GOARCH=386 go test ./internal/storage ./internal/vector ./internal/iurtree ./internal/textual .

race:
	go test -race ./...

# Hammer the copy-on-write snapshot machinery: concurrent readers
# against live Insert/Delete/Apply writers, tree invariants checked
# after every snapshot swap, repeated for extra interleavings.
race-stress:
	go test -race -run 'TestConcurrentQueryMutateRace|TestPinnedSnapshotSurvivesDelete' -count=3 .

# The six domain-specific analyzers (ctxflow, locksafe, floatcmp,
# hotalloc, errlost, lockorder)
# driven through the go vet vettool protocol with cross-package fact
# propagation, plus standard go vet (whose copylocks check covers
# copies of lock-bearing structs). The ./...
# pattern spans every package — the root engine, internal/...,
# cmd/..., and examples/... — so the CLIs and examples are held to the
# same rules as the engine.
lint:
	go vet ./...
	go build -o $(LINT_TOOL) ./cmd/rstknn-lint
	go vet -vettool=$(LINT_TOOL) ./...

# Machine-readable lint report (one JSON object per package,
# schema_version 2) with per-analyzer finding counts and elapsed-time
# breakdowns — zeroes included, so a clean run still proves
# locksafe/lockorder executed; CI uploads this as a build
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
# the path-sensitive lockorder suite and its cross-package fixture
# package), the CFG/dataflow unit tests, the fact
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
# package's testdata/fuzz directory. Go minimizes each new input for up
# to 60 s by default, which would eat the whole pass of a slow target;
# -fuzzminimizetime 100x caps it at 100 execs.
fuzz:
	go test ./internal/vector/  -run '^$$' -fuzz FuzzVectorRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/vector/  -run '^$$' -fuzz FuzzIndexedDot      -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/storage/ -run '^$$' -fuzz FuzzOpenFileStore   -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/iurtree/ -run '^$$' -fuzz FuzzNodeRoundTrip   -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/iurtree/ -run '^$$' -fuzz FuzzSharedRead      -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/textual/ -run '^$$' -fuzz FuzzTextualPersist  -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test .                   -run '^$$' -fuzz FuzzLoad            -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/core/    -run '^$$' -fuzz FuzzRuleCountsMatchSelection -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/core/    -run '^$$' -fuzz FuzzSearchMatchesNaive       -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	go test ./internal/geom/    -run '^$$' -fuzz FuzzDistMatchesHypot         -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

# Vet and test the benchmark module (benchmark/, its own go.mod). The
# root ./... pattern never enters a nested module, yet benchmark/
# compiles against the engine's internal packages, so API changes there
# only show up here.
bench-module:
	cd benchmark && go vet ./... && go test ./...

check: lint build test test-386 bench-module race race-stress fuzz

clean:
	rm -f $(LINT_TOOL)
	go clean ./...
