# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover fuzz bench experiments drawings clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./...

cover:
	$(GO) test -cover ./internal/...

fuzz:
	$(GO) test ./internal/graph/ -fuzz '^FuzzReadBinary$$' -fuzztime 30s
	$(GO) test ./internal/graph/ -fuzz '^FuzzReadEdgeList$$' -fuzztime 15s
	$(GO) test ./internal/graph/ -fuzz '^FuzzReadMatrixMarket$$' -fuzztime 15s
	$(GO) test ./internal/journal/ -fuzz '^FuzzJournalScan$$' -fuzztime 15s
	$(GO) test ./internal/server/ -fuzz '^FuzzMutationRequest$$' -fuzztime 15s
	$(GO) test ./internal/bfs/ -fuzz '^FuzzDistancesBudgetEquivalence$$' -fuzztime 15s
	$(GO) test ./internal/linalg/ -fuzz '^FuzzTripleProdEquivalence$$' -fuzztime 15s
	$(GO) test ./internal/linalg/ -fuzz '^FuzzAtBPackedEquivalence$$' -fuzztime 15s
	$(GO) test ./internal/linalg/ -fuzz '^FuzzPackedColsEquivalence$$' -fuzztime 15s
	$(GO) test ./internal/render/ -fuzz '^FuzzCanvasPNG$$' -fuzztime 15s

# Every performance number comes from the benchmark harness (BENCHMARK.json).
bench:
	bash benchmark/run.sh -all

# The full evaluation: every table and figure plus extension experiments.
# Scale up with FACTOR on bigger machines.
FACTOR ?= 1
experiments:
	$(GO) run ./cmd/hdebench -exp all -factor $(FACTOR) -out drawings

drawings:
	$(GO) run ./examples/drawing -out drawings

clean:
	rm -rf drawings test_output.txt
