GO ?= go

.PHONY: build test check fmt vet race bench bench-layers bench-ab chaos fuzz docs-check resume-smoke loc regen-modelled

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: build, vet, formatting, full tests, the
# race-detector pass over the concurrency-heavy packages, the
# checkpoint/resume smoke, and the docs-vs-code lint.
check: build vet fmt test race resume-smoke docs-check

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second pass forces multi-core scheduling so the Workers>1 parity
# tests race the sharded generators and handler fan-out for real — for the
# BFS engine, the kernel fan-outs, the chaos x width parity sweep, the
# kill-everywhere checkpoint/resume sweep, and the per-message path (swap-drain
# inbox, recycled machines, flight stream counters, protocol errors), and the
# hub-prefetch runs (odd worker widths included) against the replicated hub
# state. The validator is in the first pass for its chunk counter and pooled
# scratch.
race:
	$(GO) test -race ./internal/obs/... ./internal/comm/... ./internal/core/... ./internal/algos/... ./internal/graph500/
	GOMAXPROCS=4 $(GO) test -race -run 'Workers|Resume|Checkpoint|Inbox|Reuse|Flight|Protocol|Hub' \
		./internal/core/ ./internal/algos/ ./internal/chaos/ ./internal/comm/ ./internal/obs/

bench:
	$(GO) test -bench=. -benchmem .

# bench-layers runs the per-message ledger lines — one delivered End marker,
# the inbox hand-off, one flight-recorded delivery — next to the send-side
# lines of both transports, a busy Direct channel close (63 residual
# batches carrying their End markers), relay stage two, the batch fold a top-down
# level's seal runs (at a relay quantum and a Direct residual) and the codec
# line they sit between, the whole hybrid BFS with hub prefetch at scale
# 14 across worker widths (BenchmarkBFSLevel: generators, hub tests,
# handlers, result gather), the round engine's kernels at scale 14 across worker widths
# (WCC to fixpoint, 8 PageRank iterations, a k=4 K-core peel: generators,
# the driver's handler fan-out, result gather), and the validator's
# ns/edge on the bfs-hybrid workload's scale-18 graph.
# Before/after figures of a change to these layers go into its CHANGES.md
# line.
bench-layers:
	$(GO) test -run='^$$' -bench='^(BenchmarkDeliverEnd|BenchmarkInboxPushPop|BenchmarkDirectSendManyInterleaved|BenchmarkDirectCloseChannel|BenchmarkRelaySendManyInterleaved|BenchmarkRelayStageTwo|BenchmarkBatchFold|BenchmarkEncodeAdaptive)$$' \
		-benchmem -count=5 ./internal/comm/
	$(GO) test -run='^$$' -bench='^BenchmarkFlightRecord$$' -benchmem -count=5 ./internal/obs/
	$(GO) test -run='^$$' -bench='^BenchmarkBFSLevel$$' -benchmem -count=5 ./internal/core/
	$(GO) test -run='^$$' -bench='^(BenchmarkWCCRound|BenchmarkPageRankIteration|BenchmarkKCorePeel)$$' -benchmem -count=5 ./internal/algos/
	$(GO) test -run='^$$' -bench='^BenchmarkValidation$$/scale18' -benchmem -count=5 .

# regen-modelled rewrites every golden file from the current code: the comm
# wire and endpoint goldens, core's hub result, module spans and flight
# dumps, algos' round statistics, module spans and whole-run Chrome export,
# graph500's SSSP and delta-stepping harmonic-mean GTEPS, obs'
# chrome-trace and trace-diff renderings, the text of every quick-size
# table swbfs-bench prints, and the generated tables of EXPERIMENTS.md. A
# change to the modelled clock runs it, then audits `git diff` of testdata/
# and EXPERIMENTS.md: only the fields the change predicts may move, and a
# golden it predicts unchanged must come back byte-identical.
regen-modelled:
	$(GO) test -count=1 -run Golden ./internal/comm/ ./internal/core/ ./internal/algos/ -update-golden
	$(GO) test -count=1 -run TestRunKernels ./internal/graph500/ -update-golden
	$(GO) test -count=1 -run Golden ./internal/obs/ -update
	$(GO) test -count=1 -run 'TestQuickTablesGolden|TestExperimentsDocGenerated' ./internal/experiments/ -update-golden

# loc prints non-test Go lines (wc -l, comments and blanks included) per
# internal/ package, for cmd/ as a whole and, as total, for internal/ and
# cmd/ together — the numbers ROADMAP's "least code" aim and every deletion
# claim in CHANGES.md are quoted in.
loc:
	@for d in internal/*/ cmd/; do \
		printf '%-24s %6d\n' "$$d" "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"; \
	done
	@printf '%-24s %6d\n' total "$$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"

# docs-check fails when docs and code drift: broken intra-repo markdown
# links, or a cmd/ flag no markdown file mentions.
docs-check:
	$(GO) run ./cmd/docscheck .

# chaos runs every internal/chaos test under the race detector: the
# fault-injection harness (20 seeded random plans plus the targeted fault
# scenarios), the module books against their spans, and the injector and
# fault-grammar unit tests. See docs/CHAOS.md.
chaos:
	$(GO) test -race -v ./internal/chaos/

# fuzz gives each fuzz target a short budget on top of its committed seed
# corpus — a smoke pass, not a soak; raise FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzCodecRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/comm/
	$(GO) test -run='^$$' -fuzz='^FuzzOrderPairs$$' -fuzztime=$(FUZZTIME) ./internal/comm/
	$(GO) test -run='^$$' -fuzz=FuzzBitmapWordScan -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/ckpt/
	$(GO) test -run='^$$' -fuzz='^FuzzStateDecode$$' -fuzztime=$(FUZZTIME) ./internal/ckpt/
	$(GO) test -run='^$$' -fuzz='^FuzzValidate$$' -fuzztime=$(FUZZTIME) ./internal/graph500/

# resume-smoke drives the full CLI walkthrough of docs/CHAOS.md: kill a
# graph500 run mid-level with a flight dump and checkpointing on, inspect the
# abort checkpoint and the dump (a dump diffed against itself must exit 0),
# then resume from the checkpoint under -cpuprofile, and fail unless the
# resumed result validates and the profile is non-empty. A second leg kills
# and resumes an SSSP run the same way, and fails unless the resumed
# distances validate. A third benchmarks SSSP on an edge list graphgen
# wrote, and fails unless it prints its headline; a fourth fails unless
# graph500 refuses a flag the run would ignore (-delta with -kernel bfs); a
# fifth writes a -trace-out dump and fails unless inspect renders it as a
# Chrome trace.
resume-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./cmd/graph500 ./cmd/inspect ./cmd/graphgen && \
	{ "$$dir/graph500" -scale 10 -nodes 8 -roots 1 -seed 42 \
		-checkpoint-every 1 -checkpoint "$$dir/smoke.ckpt.json" -flight-dump "$$dir/smoke.flight.json" \
		-chaos-plan 'kill@3:l2:data/forward:0' >/dev/null 2>&1; true; } && \
	test -s "$$dir/smoke.ckpt.json" || { echo "resume-smoke: no checkpoint written"; exit 1; }; \
	test -s "$$dir/smoke.flight.json" || { echo "resume-smoke: no flight dump written"; exit 1; }; \
	"$$dir/inspect" "$$dir/smoke.ckpt.json" | grep -q 'boundary *2 completed' || { echo "resume-smoke: inspect cannot read the checkpoint"; exit 1; }; \
	"$$dir/inspect" "$$dir/smoke.flight.json" | grep -q '\[injected\]' || { echo "resume-smoke: inspect shows no injected fault in the dump"; exit 1; }; \
	"$$dir/inspect" "$$dir/smoke.flight.json" "$$dir/smoke.flight.json" >/dev/null || { echo "resume-smoke: a dump diffed against itself diverges"; exit 1; }; \
	"$$dir/graph500" -scale 10 -nodes 8 -seed 42 -resume "$$dir/smoke.ckpt.json" -cpuprofile "$$dir/resume.pprof" 2>/dev/null \
		| grep -q 'validation: *ok' || { echo "resume-smoke: resumed run did not validate"; exit 1; }; \
	test -s "$$dir/resume.pprof" || { echo "resume-smoke: no CPU profile written"; exit 1; }; \
	{ "$$dir/graph500" -scale 10 -nodes 8 -roots 1 -seed 42 -kernel sssp \
		-checkpoint-every 1 -checkpoint "$$dir/sssp.ckpt.json" \
		-chaos-plan 'kill@3:l2:data/forward:0' >/dev/null 2>&1; true; } && \
	"$$dir/inspect" "$$dir/sssp.ckpt.json" | grep -q 'boundary *2 completed' || { echo "resume-smoke: no mid-run sssp checkpoint written"; exit 1; }; \
	"$$dir/graph500" -scale 10 -nodes 8 -seed 42 -resume "$$dir/sssp.ckpt.json" 2>/dev/null \
		| grep -q 'validation: *ok' || { echo "resume-smoke: resumed sssp run did not validate"; exit 1; }; \
	"$$dir/graphgen" -scale 10 -out "$$dir/edges.txt" >/dev/null 2>&1 || { echo "resume-smoke: graphgen wrote no edge list"; exit 1; }; \
	"$$dir/graph500" -kernel sssp -input "$$dir/edges.txt" -roots 2 2>/dev/null | grep -q 'harmonic_mean_GTEPS' \
		|| { echo "resume-smoke: sssp on an edge list printed no headline"; exit 1; }; \
	! "$$dir/graph500" -kernel bfs -delta 16 -scale 8 -roots 1 >/dev/null 2>&1 \
		|| { echo "resume-smoke: graph500 accepted -delta with -kernel bfs"; exit 1; }; \
	"$$dir/graph500" -scale 10 -nodes 8 -roots 1 -trace-out "$$dir/trace.json" >/dev/null 2>&1 \
		|| { echo "resume-smoke: graph500 -trace-out failed"; exit 1; }; \
	"$$dir/inspect" "$$dir/trace.json" | grep -q traceEvents \
		|| { echo "resume-smoke: inspect renders no Chrome trace from a -trace-out dump"; exit 1; }; \
	echo "resume-smoke: ok"

# bench-ab measures a base ref against the working tree with the repo
# benchmark (benchmark/README.md): BASE is checked out into a temporary
# worktree and both trees run five untraced passes of every workload (or of
# WORKLOAD alone), alternately — base then tree, tree then base — so slow
# drift of the machine lands on both sides. Each round's pair of result
# documents is compared; the target fails if any metric reads `worse`.
# Documents stay in .bench_out/ (git-ignored). Usage:
#   make bench-ab BASE=<ref> [WORKLOAD=<name>]
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<ref> [WORKLOAD=<name>]"; exit 2; }
	@set -e; tree=$$(pwd); out=$$tree/.bench_out; mkdir -p "$$out"; \
	base=$$(mktemp -d); trap 'git worktree remove --force "$$base" 2>/dev/null || rmdir "$$base"' EXIT; \
	git worktree add --detach "$$base" "$(BASE)" >/dev/null; \
	run() { (cd "$$1" && $(GO) run ./benchmark $(if $(WORKLOAD),-workload $(WORKLOAD)) -runs 5 -trace 0 -json "$$out/$$2"); }; \
	run "$$base" ab-base-1.json; run "$$tree" ab-tree-1.json; \
	run "$$tree" ab-tree-2.json; run "$$base" ab-base-2.json; \
	rc=0; for i in 1 2; do \
		$(GO) run ./benchmark -compare "$$out/ab-base-$$i.json" "$$out/ab-tree-$$i.json" || rc=1; \
	done; exit $$rc
