# Developer / CI entry points. Everything is stdlib-only Go; no tool
# downloads happen here.

GO ?= go

.PHONY: check build fmt vet test race bench fuzz vuln clean

## check: the CI gate — formatting, vet, and the race-enabled suite.
check: fmt vet race

build:
	$(GO) build ./...

## fmt: fail if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the whole suite under the race detector, then the packages
## whose stages fan out over package par, and txdb, whose frozen DB
## their workers count against together, again at one worker (par.Do
## runs inline) and at four (workers run concurrently even on a
## two-core machine).
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 ./internal/cleaning ./internal/assoc ./internal/lcm ./internal/core \
		./internal/mcac ./internal/txdb

## bench: the paper-artifact benchmarks (one iteration each; see
## EXPERIMENTS.md for targeted -bench invocations).
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

## fuzz: mutate the snapshot decoder (as is, then with the CRC resealed
## after each mutation so it reaches the section parsers), the txdb
## support counter, the closed-set miner, the watchlist snapshot reader,
## the support-type classifier, the FAERS table readers, the failpoint spec grammar, the
## /debug/events query parser, the replica inventory decoder, report
## cleaning, the snapshot manifest reader, then the whole pipeline, each for
## FUZZTIME (default 30s). The decoder's seeds cover valid v1/v2/v3 snapshots, truncations,
## CRC-breaking bit flips and crafted resealed files; any input outside
## the three typed errors fails. FuzzTIDs builds a DB and a query from the bytes and checks
## TIDs against a linear scan. FuzzMineClosed builds a small DB, support
## and length bound and checks lcm, occurrences and closed bits
## included, against a by-definition oracle. FuzzClassify builds a
## small DB and a query and checks the support classifier against
## Definitions 3.3.1-3.3.2 over every subset of containing reports.
## FuzzWatchlistDecode accepts only typed errors or files that
## round-trip through the watchlist encoder. FuzzReadTables feeds the
## FAERS DEMO/DRUG/REAC/OUTC readers and accepts an error or rows that
## round-trip through the matching writer. FuzzFailpointSpec feeds the
## failpoint spec grammar and accepts an error or failpoints with a
## probability in (0,1], a budget of -1 or > 0 and a delay >= 0.
## FuzzParseQuery feeds the wide-event query parser and accepts an
## error or a query over known fields and aggregates with a window
## >= 0 and a limit > 0. FuzzInventory feeds a peer's /sync/inventory
## payload through the decoder, the merkle build and the diff against a
## fixed local tree, and accepts an error or a diff that names only
## advertised leaves the local tree lacks or loses to.
## FuzzClean builds small report sets (near-miss spellings, repeats,
## shared case IDs, names that normalize to nothing) and requires
## cleaning on one and on four workers to return the same reports and
## stats as the per-occurrence reference. FuzzReadManifest writes the
## bytes to a file and accepts a typed or I/O error, or a manifest that
## agrees with Decode on every file CheckBytes and Decode accept.
## FuzzRunMatchesOracle builds small report sets (8 drugs, 6 reactions)
## and run options and holds core.Run, on one and four procs, to the
## by-definition whole-pipeline oracle. FuzzEncodeReports builds noisy
## report sets (case, whitespace and dose noise, misspellings, repeated
## cases, suspect roles, every Selection, a name in both domains) and
## holds core.EncodeReports, on one and four procs, to the string-path
## reference: dictionary, transactions, postings and stats, or its
## error exactly where the reference panics on the name in both domains.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeResealed$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/txdb -run '^$$' -fuzz '^FuzzTIDs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lcm -run '^$$' -fuzz '^FuzzMineClosed$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/assoc -run '^$$' -fuzz '^FuzzClassify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/watch -run '^$$' -fuzz '^FuzzWatchlistDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faers -run '^$$' -fuzz '^FuzzReadTables$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/resilience -run '^$$' -fuzz '^FuzzFailpointSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/wide -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replica -run '^$$' -fuzz '^FuzzInventory$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cleaning -run '^$$' -fuzz '^FuzzClean$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRunMatchesOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzEncodeReports$$' -fuzztime $(FUZZTIME)

## vuln: known-vulnerability scan of the module graph and stdlib
## call sites. The binary is not installed here (CI pins its version;
## locally: go install golang.org/x/vuln/cmd/govulncheck@latest).
GOVULNCHECK ?= govulncheck
vuln:
	$(GOVULNCHECK) ./...

clean:
	$(GO) clean ./...
	rm -f BENCH_trace.json BENCH_drift.json BENCH_chaos.json BENCH_slo.json \
		BENCH_watch.json BENCH_prof.json BENCH_wide.json BENCH_replica.json
