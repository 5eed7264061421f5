GO ?= go
FUZZTIME ?= 30s

.PHONY: all build fmt-check exports-check test test-short bench bench-smoke bench-check checkpoint-check alloc-check ablation cover tools examples ci tree-clean fuzz-smoke soak-smoke cluster-smoke proto-smoke qoe-smoke loc clean

all: build test

build:
	$(GO) build ./...

tools:
	$(GO) build -o bin/ ./cmd/...

# Any file gofmt would rewrite fails the build: one unformatted file sat in
# the tree for three PRs because nothing looked.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

test:
	$(GO) vet ./...
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One rule for every check in this file: a check that depends on timing
# or on a production-scale shape is a Benchmark function that reports its
# numbers and fails over its budget — `go test ./...` never runs it, and
# its target below selects it with BENCH_ONE — and a check that is
# deterministic is a plain test. Nothing here reads the environment or
# writes a file: the numbers are in the output, the throughput of the real
# binary on real files is bench/run.sh (BENCHMARK.json), and the per-PR
# before/after tables are in CHANGES.md.
BENCH_ONE = $(GO) test -count=1 -run '^$$' -benchtime 1x

# Every root benchmark at the default benchtime, budget checks included
# (BenchmarkSoak alone is about a minute).
bench:
	$(GO) test -count=1 -run '^$$' -bench . -benchmem -timeout 30m .

# One iteration of the pipeline benchmark, of the per-stream metric
# layer's own and of the flow table's and the duplicate detector's (a
# packet on a one-stream flow and on a 50,000-stream one; a record found by
# key and by handle) — catches a broken perf harness without paying for a
# real measurement run — plus the parallel-vs-sequential throughput tripwire at
# its conservative smoke floor, and the simulator's frames per second and
# cost and allocations per tapped frame.
bench-smoke:
	$(BENCH_ONE) -bench 'BenchmarkAnalyzerPipeline|BenchmarkIngestPath|BenchmarkIngestWorkerRatio' .
	$(BENCH_ONE) -bench 'BenchmarkStreamMetricsObserve|BenchmarkCopyMatcherObserve|BenchmarkSeqTrackerObserve' -benchmem ./internal/metrics/ ./internal/rtp/
	$(BENCH_ONE) -bench 'BenchmarkTableObserve|BenchmarkDedupObserve' -benchmem ./internal/flow/ ./internal/meeting/
	$(BENCH_ONE) -bench BenchmarkSimulateCampus .

# The repo benchmark is its own module (bench/go.mod), so the root
# `go test ./...` never compiles it: vet and test it here, against the
# checkout it will be run on, so an API change that breaks the harness
# fails CI rather than the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The checkpoint codec's budgets at 10k streams: a full must encode and
# restore in under 100 ms each (the recovery path), and a delta with every
# stream dirty must encode in under 65 ms (what a busy tap's packet path
# pays every cadence tick).
checkpoint-check:
	$(BENCH_ONE) -bench 'BenchmarkCheckpoint/.*/streams=10000' -benchmem .

# The ingest allocation budget, enforced: zero allocations per record and
# per batch in the zero-copy readers, bounded allocations per packet end to end, and
# the sharded engine within 1.25x of the sequential one's bytes per packet.
# Then the simulator's: bounded allocations per frame the monitor sees.
alloc-check:
	$(GO) test -count=1 -run 'TestIngestReadAllocsZero|TestIngestAnalyzeAllocsBounded|TestSimAllocsPerFrameBounded|TestLogHeapPerRecordBounded' -v .

ablation:
	$(GO) test -bench=Ablation -benchtime 1x -run XXX .

cover:
	$(GO) test -cover ./...

# Mirrors the .github/workflows/ci.yml jobs (test, race, smoke) in
# sequence: the race detector matters here because the sharded parallel
# analyzer (shards, the reconciler fed by cuts, the quiesce), the metrics
# endpoint and the checkpoint writer are all concurrency — and so are the
# live series, which the shard goroutines feed from their own tallies, the
# idle-eviction stamps, which ride the shard queues, and checkpoint records,
# which stream out of a quiesced sharded engine in chunks.
ci:
	$(GO) build ./...
	$(MAKE) fmt-check
	$(MAKE) exports-check
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestQuiesceInterleavingDifferential|TestQueueBackpressure|TestParallelObsAggregates|TestEvictionClockDifferential|TestCheckpointStreamDifferential|TestStreamRecordChainDifferential|TestShardBatchByteBound' ./internal/core
	$(GO) test -race -count=1 -run 'TestClusterDifferential|TestClusterObsLogRoundTrip' .
	$(MAKE) fuzz-smoke FUZZTIME=10s
	$(MAKE) bench-smoke
	$(MAKE) bench-check
	$(MAKE) checkpoint-check
	$(MAKE) alloc-check
	$(MAKE) cluster-smoke
	$(MAKE) proto-smoke
	$(MAKE) qoe-smoke
	$(MAKE) soak-smoke
	$(MAKE) tree-clean

# Nothing above may leave anything behind in the checkout: no rewritten
# tracked file, no stray output (test artefacts belong in t.TempDir()).
tree-clean:
	@out=$$(git status --porcelain); [ -z "$$out" ] || { echo "the checks left the tree dirty:"; echo "$$out"; exit 1; }

# The cluster scale-out invariant, end to end: the in-process
# differential (splitter → pre-filtered workers → observation-log merge,
# byte-identical to a single engine at 1/2/4 workers, pcap and pcapng,
# with and without a mid-trace migration) plus the real-binary pipeline
# (zoomsplit → zoomqoe -cluster-part fleet → zoomagg, including -exec
# fan-out and a checkpoint-drain migration).
cluster-smoke:
	$(GO) test -count=1 -run 'TestClusterDifferential|TestClusterObsLogRoundTrip|TestClusterCLI' -v .

# The protocol-plugin invariants, end to end: the mixed-app campus
# differential (Zoom + standards-RTC side by side, byte-identical across
# sequential, parallel, and 2-way cluster engines, pcap and pcapng), the
# zoom-only backward-compatibility golden (-proto zoom == default set on
# a pure Zoom trace), the plugin/capture unit suites, and the CLI-level
# per-app counter exposure. The mixed-app differential's short-ttl-dedup
# row is also the -flow-ttl read-side row (the same segments from
# Streams() at 1/2/4 workers, and the same stream IDs and per-ID packet
# sums in all three tiers, 2-way cluster merge included); its in-package
# twin at workers 1/2/4 rides the last line.
proto-smoke:
	$(GO) test -count=1 -run 'TestProtoDifferentialMixedApps|TestProtoZoomOnlyUnchanged|TestCLIProtoCountersExposed' -v .
	$(GO) test -count=1 ./internal/rtcproto/ ./internal/webrtc/
	$(GO) test -count=1 -run 'TestSTUNPortRequiresFraming|TestWebRTCEndToEnd|TestProtoPinnedToZoom|TestCheckpointRejected|TestCompactionBoundsMemoryWithoutChangingResults' -v ./internal/core/

# The header-free QoE inference loop, end to end: the feature-row
# differentials (sequential/parallel/cluster engines byte-identical from
# pcap and pcapng, streaming == batch, checkpoint resume mid-drain), the
# train-on-one-meeting / score-a-held-out-meeting accuracy smoke, and
# the feature-layer ingest-overhead gate (≤200 ns per packet over the
# featureless path).
qoe-smoke:
	$(GO) test -count=1 -run 'TestFeaturesPipelineDifferential|TestFeaturesStreamingVsBatch|TestFeaturesCheckpointResume|TestQoESmoke' -v .
	$(BENCH_ONE) -bench BenchmarkFeatureOverhead .

# The full-shape continuous-operation soak: 100k concurrent streams
# with churn through the production driver on a compressed trace clock,
# gated on flat goroutines, bounded retained memory, an active full +
# delta checkpoint chain, rotation and idle eviction, a resident-set peak
# within 1.5x of the explained figure, and a delta checkpoint after 1% of
# the streams changed within its own millisecond budget (6.5 ms: it costs
# what changed, not a walk of 100k streams). (TestSoak is the laptop shape
# of the same structural gates under plain `go test`.)
soak-smoke:
	$(BENCH_ONE) -bench BenchmarkSoak -timeout 15m -v .

# Short native-fuzz runs over every packet codec: the parsers face
# hostile bytes in production, so every CI run hammers them briefly.
# The Zoom and RTP targets hold the parsers to the simulator's writer,
# the only packet writer there is: a payload that parses and that the
# writer can express (no CSRC, extension or padding) is rewritten from
# its decoded fields and must parse back to the same fields; both seed
# from the golden frames.
# The checkpoint decoder faces hostile bytes too (a corrupt or truncated
# checkpoint file must never panic or half-restore); its target caps
# minimize time because each exec restores a full engine. The front-end
# target holds the raw header scan to the full parser, frame by frame,
# and the prefix-set target holds the merged-range search to the plain
# netip.Prefix.Contains scan it replaced. The in-place target holds
# zoom.Packet.Parse into a used receiver to a parse into a fresh one.
# The reader target holds each capture reader's in-window fast path to
# its refill path (the same bytes read whole and one byte per Read).
# The observation-log target
# feeds the ZLOB reader — a file from another process — torn, mistagged
# and misversioned logs. The sequence-tracker target walks the duplicate
# window with arbitrary sequence numbers. The two loaders of files
# written elsewhere face hostile bytes too: a QoE model must load to
# finite probabilities or be refused, and a splitter manifest that loads
# must survive a marshal → load cycle unchanged. The checkpoint-key
# target holds each key's sort prefix to the key's order. The simulator
# is the oracle every accuracy figure is scored against, so its two
# rewritten kernels face their references: the word-wise checksums the
# RFC 1071 16-bit loop, and the typed event heap a container/heap engine.
fuzz-smoke:
	$(GO) test -fuzz=FuzzZoomParse -fuzztime=$(FUZZTIME) ./internal/zoom/
	$(GO) test -fuzz=FuzzPacketParseInPlace -fuzztime=$(FUZZTIME) ./internal/zoom/
	$(GO) test -fuzz=FuzzRTPParse -fuzztime=$(FUZZTIME) ./internal/rtp/
	$(GO) test -fuzz=FuzzSeqTracker -fuzztime=$(FUZZTIME) ./internal/rtp/
	$(GO) test -fuzz=FuzzCopyMatcher -fuzztime=$(FUZZTIME) ./internal/metrics/
	$(GO) test -fuzz=FuzzSTUNParse -fuzztime=$(FUZZTIME) ./internal/stun/
	$(GO) test -fuzz=FuzzLayersParse -fuzztime=$(FUZZTIME) ./internal/layers/
	$(GO) test -fuzz=FuzzWebRTCParse -fuzztime=$(FUZZTIME) ./internal/webrtc/
	$(GO) test -fuzz=FuzzCheckpointRestore -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/core/
	$(GO) test -fuzz=FuzzFrontEndVsParser -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzPrefixSetVsScan -fuzztime=$(FUZZTIME) ./internal/capture/
	$(GO) test -fuzz=FuzzReaderFastVsSlow -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -fuzz=FuzzQoSLog -fuzztime=$(FUZZTIME) ./internal/qos/
	$(GO) test -fuzz=FuzzObsLogDecode -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz=FuzzModelLoad -fuzztime=$(FUZZTIME) ./internal/predict/
	$(GO) test -fuzz=FuzzKeyPrefixOrder -fuzztime=$(FUZZTIME) ./internal/flow/
	$(GO) test -fuzz=FuzzChecksum -fuzztime=$(FUZZTIME) ./internal/layers/
	$(GO) test -fuzz=FuzzEngineVsHeap -fuzztime=$(FUZZTIME) ./internal/netsim/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/p2pdetect
	$(GO) run ./examples/validation
	$(GO) run ./examples/campus -duration 5m

# The ROADMAP Quality aim's numbers ("the same behaviour and speed from
# the simplest design and the least code"). The size of the engine
# package: non-test lines as wc counts them, and lines that are neither
# blank nor comment. The size of the codec stack (the files that say what
# each layer's state is) and how many serialization entry points non-test
# code declares — one field walk per type means none of the old paired
# names survive. The surface: the size of the shared driver, how many
# flags it registers, how many fields core.Config and methods core.Engine
# have, and how many binaries cmd/ builds. Then the hand-built
# concurrency in non-test code, so any creeping back is a visible number:
# `go` statements (the shard workers, the reconciler, the checkpoint
# writer and the metrics server) and
# sync/atomic importers (internal/obs). Then the size of the tools, and
# of the per-stream accumulators with the maps left in them (report-time
# bins and sets, the CopyMatcher's streams), the maps named across the
# three packages a media packet's state lives in (42 before a flow owned
# its streams, 37 after), and the maps a shard keeps (one per kind of
# record: stream metric engines and TCP trackers), and the loops over a
# whole record map left in the functions that re-anchor the checkpoint
# chain (6 before the layers kept dirty lists: a delta then cost a walk
# of every record however few had changed).
#
# Last, three counts for "configuration is not state" and the surface
# diet. (1) Tunables serialized by a Code walk, which must stay 0. The
# rule: a walk line that hands the codec a field named like a limit, a
# window or a rate — Max*, *Window, *Gap, *Threshold, *Buffer, *Age,
# [cC]lockRate, Name, or a bare `window` — is serializing something only
# a constructor or a Config assignment ever writes. internal/features is
# left out: its window and its rows' Window/MaxBurstPkts columns are the
# record's on purpose (they identify the emitted rows). (2) Non-test
# packages under internal/. (3) Exported top-level identifiers (funcs,
# methods, types, one-per-line vars and consts) declared in internal/
# whose name appears nowhere else in non-test code, comments stripped,
# printed with their names. It is a by-name heuristic: it cannot see a
# method reached only through an interface (Less, Swap), which
# exports.allow lists, and a shared name hides a dead one.
#
# Then the shape of the per-stream records, so that a field no output
# reads cannot creep back unseen: the fields of flow.StreamStats and of
# metrics.StreamMetrics, and the append-only logs a stream carries (the
# fields of metrics.logLens, one per log a delta writes as a tail; six
# before the dead per-stream state went, four after).
#
# Then the change logs the shard and its flow table keep (statecodec.ChangeLog
# fields in internal/core and internal/flow): one per keyed collection a
# delta selects from. A metric engine rides its flow-table stream record,
# so it has none of its own (4 before, 3 after).
#
# Last, the per-event live-metric calls in internal/core: an .Inc( or
# .Add( on a coreObs handle (o.… or so.…), the snapshot counter aside.
# The live series mirror the engine's tallies at refresh points
# (internal/core/obs.go), so the packet path makes none (there were 15).
CODEC_STACK = internal/*/state.go internal/*/delta.go internal/core/checkpoint.go internal/statecodec/statecodec.go
TUNABLE = (Max[A-Z][A-Za-z]*|([A-Z][A-Za-z]*)?Window|[cC]lockRate|[A-Z][A-Za-z]*(Gap|Threshold|Buffer|Age)|Name|window)
loc:
	@cat $$(ls internal/core/*.go | grep -v _test.go) | wc -l | xargs echo "internal/core non-test lines:"
	@cat $$(ls internal/core/*.go | grep -v _test.go) | awk '/^[[:space:]]*$$/ {next} c {if (/\*\//) c=0; next} /^[[:space:]]*\/\// {next} /^[[:space:]]*\/\*/ {if (!/\*\//) c=1; next} {n++} END {print "internal/core non-blank non-comment lines:", n}'
	@cat $$(ls $(CODEC_STACK) 2>/dev/null) | wc -l | xargs echo "codec stack lines:"
	@grep -rhE '^func .*\b(State|Restore|StateDelta|ApplyDelta|state|restore|stateDelta|applyDelta)\(' --include='*.go' --exclude='*_test.go' internal cmd *.go | wc -l | xargs echo "paired serialization entry points (State/Restore/StateDelta/ApplyDelta):"
	@cat $$(ls internal/engine/*.go | grep -v _test.go) | wc -l | xargs echo "internal/engine non-test lines:"
	@cat $$(ls internal/engine/*.go | grep -v _test.go) | grep -cE 'fs\.[A-Za-z]+Var\(' | xargs echo "shared-driver flags (internal/engine):"
	@awk '/^type Config struct {/ {in_cfg=1; next} in_cfg && /^}/ {exit} in_cfg && /^\t[A-Z][A-Za-z]* / {n++} END {print "core.Config fields:", n}' internal/core/core.go
	@awk '/^type Engine interface {/ {in_if=1; next} in_if && /^}/ {exit} in_if && /^\t[A-Z][A-Za-z]*\(/ {n++} END {print "core.Engine methods:", n}' internal/core/engine.go
	@grep -rhE '^[[:space:]]*go [a-zA-Z(]' --include='*.go' --exclude='*_test.go' internal cmd *.go | wc -l | xargs echo "go statements in non-test code:"
	@grep -rlE '"sync/atomic"' --include='*.go' --exclude='*_test.go' internal cmd *.go | wc -l | xargs echo "sync/atomic importers in non-test code:"
	@ls -d cmd/*/ | wc -l | xargs echo "binaries (cmd/*):"
	@cat $$(ls cmd/*/*.go | grep -v _test.go) | wc -l | xargs echo "cmd non-test lines:"
	@cat $$(ls internal/rtp/*.go internal/metrics/*.go | grep -v _test.go) | wc -l | xargs echo "internal/rtp + internal/metrics non-test lines:"
	@cat $$(ls internal/rtp/*.go internal/metrics/*.go | grep -v _test.go) | grep -c 'map\[' | xargs echo "map types named in internal/rtp + internal/metrics non-test code:"
	@cat $$(ls internal/zoom/*.go internal/rtp/*.go | grep -v _test.go) | grep -ciE '^func (\([^)]*\) )?[a-z]*(marshal|append|encode|write|fromtime)[a-z]*\(' | xargs echo "packet writer functions in internal/zoom + internal/rtp non-test code (target 0):"
	@cat $$(ls internal/flow/*.go internal/meeting/*.go internal/metrics/*.go | grep -v _test.go) | grep -c 'map\[' | xargs echo "map types named in internal/flow + internal/meeting + internal/metrics non-test code:"
	@awk '/^type shardState struct {/ {in_st=1; next} in_st && /^}/ {exit} in_st && !/^\t*\/\// && /map\[/ {n++} END {print "maps in core.shardState:", n+0}' internal/core/shard.go
	@$(GO) test -count=1 -run TestFrameRecordSize -v ./internal/metrics/ | grep -o 'bytes per finished frame: [0-9]*'
	@$(GO) test -count=1 -run TestMediaObsSize -v ./internal/core/ | grep -o 'bytes per in-process observation: [0-9]*'
	@cat internal/core/delta.go internal/flow/state.go internal/meeting/state.go internal/metrics/state.go | awk '/^func .*[mM]arkCheckpointed\(\)/ {f=1; next} f && /^}/ {f=0} f && /range [A-Za-z.]*\.(flows|streams|StreamMetrics|TCP)([^A-Za-z]|$$)/ {n++} END {print "range loops over record maps in markCheckpointed + the layers\047 MarkCheckpointed (target 0):", n+0}'
	@cat $$(ls $(CODEC_STACK) internal/core/frontend.go 2>/dev/null | grep -v '^internal/features/') | grep -cE 'c\.[A-Za-z0-9]+\(\(?[*a-z0-9]*\)?\(?&[a-zA-Z.]+\.$(TUNABLE)\)' | xargs echo "tunables serialized by a Code walk:"
	@$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | grep -c . | xargs echo "non-test packages under internal/:"
	@dead=$$($(DEAD_EXPORTS)); echo "exported identifiers in internal/ with no non-test reference:" $$(echo "$$dead" | grep -c .) "("$$dead")"
	@-$(MAKE) -s exports-check
	@printf 'flow.StreamStats fields: '; $(call STRUCT_FIELDS,StreamStats,internal/flow/flow.go)
	@printf 'metrics.StreamMetrics fields: '; $(call STRUCT_FIELDS,StreamMetrics,internal/metrics/stream.go)
	@printf 'append-only logs per stream (metrics.logLens): '; $(call STRUCT_FIELDS,logLens,internal/metrics/stream.go)
	@printf 'delta backlog caps and overflow flags (target 0): '; $(BACKLOG_CAPS)
	@printf 'keyed record types declaring their own dirty field (target 0): '; $(DIRTY_RECORDS)
	@cat $$(ls internal/core/*.go internal/flow/*.go | grep -v _test.go) | grep -c 'statecodec\.ChangeLog\[' | xargs echo "change logs in internal/core + internal/flow non-test code:"
	@cat $$(ls internal/core/*.go | grep -v _test.go) | grep -E '\bs?o\.[A-Za-z]+(\[[^]]*\])?\.(Inc|Add)\(' | grep -vc '\.snapshots\.' | xargs echo "per-event live-metric calls in internal/core (target 0):"

# The fields struct $(1) in file $(2) declares, in order, then how many:
# every name on a field line, its type and comment dropped.
STRUCT_FIELDS = awk '/^type $(1) struct {/ {f=1; next} f && /^}/ {exit} \
	f && /^\t[A-Za-z_]/ {sub(/\/\/.*/, ""); for (i = 1; i < NF; i++) {x = $$i; sub(/,$$/, "", x); printf "%s%s", sep, x; sep = " "; n++}} \
	END {print " (" n + 0 ")"}' $(2)

# Non-test Go under internal/, the input of the two counts below.
INTERNAL_GO = $$(find internal -name '*.go' ! -name '*_test.go')

# The bounds a layer once put on its delta backlog because nothing else
# bounded it: a tombstone cap (const max*Tombstones) or an overflow flag
# (a bool field named *overflow / *Overflow). Under the change-log rule
# the backlog is bounded by the table (there were four).
BACKLOG_CAPS = cat $(INTERNAL_GO) | awk '/^const [A-Za-z]*Tombstones[[:space:]]/ {x = $$2} /^\t[A-Za-z]*[oO]verflow[[:space:]]+bool/ {x = $$1} \
	x != "" {printf "%s%s", sep, x; sep = " "; n++; x = ""} END {print " (" n + 0 ")"}'

# The record types held in a map by pointer (the keyed collections a
# delta selects from) whose struct declares a field named dirty: each is
# a layer tracking changes by hand instead of through its change log.
DIRTY_RECORDS = cat $(INTERNAL_GO) | awk '/^type [A-Za-z]+ struct {/ {ty = $$2; next} /^}/ {ty = ""} \
	ty != "" && /^\tdirty[[:space:]]/ {dirty[ty] = 1} \
	{while (match($$0, /map\[[^]]*\]\*[A-Za-z.]+/)) {m = substr($$0, RSTART, RLENGTH); sub(/.*\*([A-Za-z]+\.)?/, "", m); held[m] = 1; $$0 = substr($$0, RSTART + RLENGTH)}} \
	END {for (t in dirty) if (t in held) {printf "%s%s", sep, t; sep = " "; n++} print " (" n + 0 ")"}'

# The unreferenced exports (the heuristic described above loc), one name
# a line. A declaration is a line that begins one (func, type, var,
# const) or a name list opening a line of a const ( … ) / var ( … )
# block. A method's receiver is not a use of its type: a type that only
# its own methods name is dead. exports-check holds them to
# exports.allow: every one must be listed there with a reason, and every
# entry there must still be one — so a new dead export, a stale entry or
# a blank reason fails make ci.
DEAD_EXPORTS = d=$$(mktemp) u=$$(mktemp); \
	{ grep -rhoE '^(func (\([^)]*\) )?|type |var |const )[A-Z][A-Za-z0-9_]*' --include='*.go' --exclude='*_test.go' internal | sed -E 's/.*[ )]//'; \
	  awk '/^(const|var) \($$/ {b = 1; next} /^\)/ {b = 0} \
		b && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) {n = split(substr($$0, 2, RLENGTH - 1), x, ", "); for (i = 1; i <= n; i++) print x[i]}' $(INTERNAL_GO); \
	} | sort | uniq -c > $$d; \
	find internal cmd examples bench -name '*.go' ! -name '*_test.go' | xargs cat $$(ls *.go | grep -v _test.go) | sed -E 's://.*::; s/^func \([^)]*\)/func/' | grep -oE '\b[A-Z][A-Za-z0-9_]*\b' | sort | uniq -c > $$u; \
	awk 'NR==FNR {d[$$2]=$$1; next} ($$2 in d) && $$1==d[$$2] {print $$2}' $$d $$u; \
	rm -f $$d $$u
exports-check:
	@f=$$(mktemp); { $(DEAD_EXPORTS); } > $$f; \
	awk -v dead=$$f 'FILENAME == dead {isdead[$$1] = 1; next} \
		/^[[:space:]]*(#|$$)/ {next} \
		{allowed[$$1] = 1; n++} \
		NF < 2 {print "exports.allow:" FNR ": " $$1 " has no reason"; bad = 1} \
		!($$1 in isdead) {print "exports.allow:" FNR ": " $$1 " is referenced or gone: drop the entry"; bad = 1} \
		END {for (x in isdead) if (!(x in allowed)) {print "unreferenced export " x ": delete it, move it into the test that uses it, unexport it, or list it in exports.allow with a reason"; bad = 1} \
			if (!bad) print "exports-check: 0 unreferenced exports outside exports.allow;", n + 0, "allowlisted, each with a reason"; \
			exit bad}' $$f exports.allow; s=$$?; rm -f $$f; exit $$s

clean:
	rm -rf bin
