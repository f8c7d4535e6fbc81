GO ?= go

.PHONY: all build vet fmt-check test benchmark-test test-race race fuzz bench loc examples experiments paper clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: any file gofmt would rewrite fails the build.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# benchmark/ is its own module (replace implicate => ../), so the root
# build never compiles it: a changed coord/obs/client signature would break
# the repo benchmark silently without this.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test-race:
	$(GO) test -race ./...

# Alias for test-race; the concurrency tests in internal/core double as the
# race-detector stress suite.
race: test-race

# Every fuzz target for a fixed 5 s each (go test fuzzes one target per
# invocation). The kill-and-recover, smoke and soak suites need no target of
# their own: go test ./... and go test -race ./... already run them.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 5s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSketch$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotUnmarshal$$' -fuzztime 5s ./internal/snapshot/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 5s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReaderEquivalence$$' -fuzztime 5s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzFrontendIngest$$' -fuzztime 5s ./internal/coord/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 5s ./internal/telemetry/

bench:
	$(GO) test -bench=. -benchmem ./...

# Non-test Go lines per package (cmd/x, examples/x, internal/x, the root
# package) and in total, excluding the benchmark module. The total is the
# tracked number: a PR that simplifies must bring it down.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { \
			n = split($$2, d, "/"); k = n > 3 ? d[2] "/" d[3] : (n > 2 ? d[2] : "."); \
			lines[k] += $$1; all += $$1 } \
		END { for (k in lines) printf "%7d %s\n", lines[k], k; printf "%7d total\n", all }' | sort -k2

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/netmon
	$(GO) run ./examples/approxdep
	$(GO) run ./examples/olapsynopsis
	$(GO) run ./examples/distributed

# Every table, figure and ablation of the paper at the default (laptop) scale.
experiments:
	$(GO) run ./cmd/impbench -exp all

# The paper's full-scale configuration; takes much longer.
paper:
	$(GO) run ./cmd/impbench -exp all -paper

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
