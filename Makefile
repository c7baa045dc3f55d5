GO ?= go

# Build-tag and flag threading: every test/bench target honors TAGS and
# GOFLAGS, so modes compose — `make race TAGS=invariants` runs the race
# detector with the runtime assertion layer live, `make test GOFLAGS=-v`
# works as expected. TAGS is a space-separated tag list.
TAGS ?=
GOFLAGS ?=
TAGFLAGS := $(if $(TAGS),-tags '$(TAGS)')
TESTFLAGS := $(TAGFLAGS) $(GOFLAGS)

# make exports command-line variables into the recipe environment, and the go
# tool parses a GOFLAGS *environment* variable itself (rejecting "-run X"
# space-separated form). Keep both out of the environment so the explicit
# $(TESTFLAGS) splice above is the only channel.
unexport GOFLAGS
unexport TAGS

# ldclint is the repo's custom vettool (tools/ldclint): two analyzers that
# machine-check the engine's rules with a recorded catch (I/O under a mutex,
# dropped errors from durability-critical Close/Sync). Lock order is checked
# at run time by `make invariants`, against each lock's Rank call. Built from
# source on demand.
LDCLINT := bin/ldclint

.PHONY: all build test stress vet fmt-check lint invariants race fuzz-smoke bench bench-spine-smoke bench-smoke bench-read bench-format bench-shards bench-blob exhibits-smoke loc run-server server-smoke ci

# run-server knobs (make run-server DB=/path PORT=6380)
DB ?= /tmp/ldcserver-db
PORT ?= 6380

all: build

build:
	$(GO) build $(TESTFLAGS) ./...

# -count=1 defeats the test cache: the concurrency tests are the ones that
# matter on a re-run, and a cached "ok" says nothing about them.
test:
	$(GO) test -count=1 $(TESTFLAGS) ./...

# The tests that have actually broken tier-1: GC-vs-reader liveness, crash
# recovery and the read-state protocol, repeated across scheduler widths
# (both historical failures passed at GOMAXPROCS=1 and failed at 2); plus the
# compaction-input fault tests, whose failed job races the workers' cleanup;
# the worker-lifecycle tests (Close, WaitIdle and CompactRange against a flush
# and a compaction in flight, a clean Close leaving no unreferenced table,
# CompactRange outwaiting a worker's held table removals, each half of a step
# counting its busy time once) and the step itself — two stores stepped at the
# same points of one seeded stream run the same picks into the same tree; and
# the sync-commit tests, whose vlog fsync runs beside the WAL's on a goroutine
# of its own (overlap, failure of either, Close against a parked group), and
# the pipelined-commit tests, where a later group appends and fsyncs while an
# earlier one is held in its fsync (publish order, an earlier group's failure,
# rotation against groups in flight), with the value-log writer's fsync
# outside its lock (an append beside it, rotation and Close waiting for it); and
# the scan path's tests — lazily opened slices against the eager reference
# under a concurrent writer, and the table iterator's read-ahead requests,
# block ownership and bad-byte handling; and the point-read path's — the stats
# contract of sampled Gets, the in-place block seek against the copying
# reference, on intact and on damaged blocks, and each table's decoded index
# against a walk of its on-disk index block; and LDC's level-1 target — the
# rule, the picker draining the staging level before L0, and the L0→L1 share
# of the write bill on a bench-shaped tree; and the write throttle's one
# signal — levels far over their targets, with L0 shallow, delay no write, and
# L0 at the slowdown trigger delays every write once; and the write path's
# allocation budget — a Put, a commit with and without followers, a memtable Add, a
# skiplist insert across slab changes, a table entry and a table from a warm
# writer pool, a log record, a link, flush and merge edit, a file name, the
# separation of a sync commit's value (nothing) — whose bounds must not depend on GOMAXPROCS, with the pipeline's writer
# recycling under a racing Close; and the WAL list each shard keeps, whose
# entries the post-job cleanups of both workers take exactly once; and the
# read path's allocation
# budget — a warm 100-pair Scan, the device reads and allocations of a cold
# one, a Get that misses a full block cache, a
# table Probe on a cached block, a block-cache Set on a full shard — whose
# bounds must not depend on the cache's stripe count, which follows GOMAXPROCS;
# and the pipelined server: read points against compaction and a held fsync,
# the pipeline's once-per-writer appended notification, and the connection
# loop's segments and read points under durable writes (the store-buffer
# litmus, own order, acked-before-sent, MGET, a failed fsync mid-burst, and
# Shutdown with segments in flight); and the served command's allocation
# budget — a GET of a table-resident key, owed or not, allocates nothing in the
# server or the engine, and the client decodes a status reply for free and a
# bulk one in at most two allocations; and a second Close of an iterator,
# which must leave the pooled merges it let go of to their next owners, and of
# a shard's pooled store iterator, which must go back to its pool once; and
# the Scans counter, once per request at any shard count; and a Get that a
# slice window answers, which must not probe its level's file; and the block
# cache's admission of a walk's streamed blocks — into free room only, never
# evicting (the table iterator's TestReadAheadStreams* and the full-store walk
# that must leave a hot block cached), a streamed value dying with its request
# under TAGS=invariants — and the room check itself.
# Composes with the modes above: make stress TAGS=invariants, GOFLAGS=-race.
stress:
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestBlobGC|TestCrashRecovery|TestReadState|TestCompactionInput|TestSyncCommit|TestLazyScan|TestGetStats|TestLDCStagingLevel|TestPutAllocs|TestScanAllocs|TestScanRequests|TestGetMissAllocs|TestCloseDuringCompaction|TestCompactRangeStepsManualStore|TestCompactRangeWaitsForCleanup|TestStepIsDeterministic|TestBusyTimeCountedOnce|TestWaitIdleDrainsWorkers|TestCloseLeavesNoUnreferencedTable|TestOneCompactionPerShard|TestWALRemovedOnceUnderConcurrentCleanup|TestPipelinedCommit|TestReadPoint|TestSeparateValuesAllocs|TestIteratorCloseTwice|TestIteratorPartsReturnedOnce|TestScansCountedPerRequest|TestGetStopsAtWindowHit|TestFullWalkKeepsHotBlock|TestDeepOverageDoesNotDelayWrites|TestL0DepthDelaysWrites' $(TESTFLAGS) ./internal/core
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestSetAllocsOnFullShard|TestHasRoom' $(TESTFLAGS) ./internal/cache
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestLevelTargets|TestLDCDrainsStagingLevel' $(TESTFLAGS) ./internal/compaction
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestReadAhead|TestWriterAddAllocs|TestProbeAllocs|TestDecodedIndexMatchesOnDisk' $(TESTFLAGS) ./internal/sstable
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestSeekGE' $(TESTFLAGS) ./internal/block
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestCommitAllocs|TestPipelineRecyclesWriters|TestReleaseLetsNextGroupForm|TestPipelineNotifies' $(TESTFLAGS) ./internal/commit
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestServerPipelined|TestServedReadAllocs' $(TESTFLAGS) ./internal/server
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestReadReplyAllocs' $(TESTFLAGS) ./internal/resp
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestAppendDuringSyncKeepsDirty|TestRotationAndCloseWaitForSync' $(TESTFLAGS) ./internal/vlog
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestAddAllocs|TestRecordChunkEdges' $(TESTFLAGS) ./internal/memtable
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestInsertAllocs|TestTowerAtSlabBoundary|TestSlabsKeepNodesApart|TestIteratorHeldAcrossSlabChange' $(TESTFLAGS) ./internal/skiplist
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestAddRecordAllocs' $(TESTFLAGS) ./internal/wal
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestLinkEditAllocs|TestFlushEditAllocs|TestMergeEditAllocs|TestFileNamesMatchPrintf' $(TESTFLAGS) ./internal/version

vet:
	$(GO) vet $(TESTFLAGS) ./...

# Every Go file is gofmt-clean, the analyzers' fixture packages aside (they
# hold deliberately odd code) and whatever the benchmark's build left behind.
fmt-check:
	@out=$$(gofmt -l . | grep -v -e '^tools/ldclint/testdata/' -e '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "gofmt -l names:"; echo "$$out"; exit 1; fi

$(LDCLINT): tools/ldclint/*.go
	$(GO) build -o $(LDCLINT) ./tools/ldclint

# Run the repo-specific analyzers over every package, plus their own
# regression suite (fixture packages under tools/ldclint/testdata). go vet
# analyzes _test.go files as part of each package's test variants, so the
# analyzers cover test code too — no extra invocation needed.
lint: $(LDCLINT)
	$(GO) test $(GOFLAGS) ./tools/ldclint
	$(GO) vet -vettool=$(LDCLINT) $(TESTFLAGS) ./...

# The runtime half of the correctness tooling: rebuild with -tags invariants
# so refcount poisoning, iterator use-after-close traps, and cache
# accounting checks are compiled in, then run the short suite under them.
# Then the reader-lifetime proof: the churn test (Gets and scans against
# flush, link, merge and obsolete-file deletion) with the race detector on
# top, where a closed table reader traps any probe that still reaches it — a
# reader pointer cached on a version's file meta must never outlive the file.
invariants:
	$(GO) test -short $(if $(TAGS),-tags 'invariants $(TAGS)',-tags invariants) $(GOFLAGS) ./...
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestReadStateChurn$$' $(if $(TAGS),-tags 'invariants $(TAGS)',-tags invariants) $(GOFLAGS) ./internal/core

# The background engine must stay race-clean; -short skips the multi-minute
# stress runs but still covers each shard's flush and compaction worker, the
# read state, and the cache.
# Then the commit pipeline's recycled writers and groups, the block cache's
# recycled entries, each shard's WAL list and the pipelined sync commit, ten
# times at each scheduler width: committers, followers and a Close racing
# them; Sets, Gets and EvictFiles racing over a cache that recycles an entry
# on nearly every Set; post-job cleanups racing to remove the same covered
# WALs; groups that append and fsync while earlier ones are still syncing,
# and value-log fsyncs beside appends, rotation and Close; readers on
# several goroutines counting into their shard's one read sink between
# compactions that delete the tables they read; and connections whose
# segments commit on goroutines of their own while the loop takes read
# points behind them; and an iterator closed twice while another holds the
# merges it gave back to the pool, and a shard's pooled store iterator closed
# twice while scans on another goroutine take iterators from the same pools;
# and CompactRange stepping beside a compaction worker whose cleanup is held,
# and the stepped stores that must end in the same tree.
race:
	$(GO) test -race -short $(TESTFLAGS) ./...
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'TestWAL|TestCrashLeftWALs|TestFailedRotationWALTracked|TestPipelinedCommit|TestSyncCommit|TestReadPoint|TestCumulativeCountersNeverDecrease|TestIteratorCloseTwice|TestIteratorPartsReturnedOnce|TestCompactRangeWaitsForCleanup|TestStepIsDeterministic' $(TESTFLAGS) ./internal/core
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'TestCommitAllocs|TestPipelineRecyclesWriters|TestReleaseLetsNextGroupForm|TestPipelineNotifies' $(TESTFLAGS) ./internal/commit
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'TestServerPipelined' $(TESTFLAGS) ./internal/server
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'TestAppendDuringSyncKeepsDirty|TestRotationAndCloseWaitForSync' $(TESTFLAGS) ./internal/vlog
	$(GO) test -race -count=10 -cpu 1,2,4 -run 'TestRecycledEntries' $(TESTFLAGS) ./internal/cache

# Ten seconds of each decoder-facing fuzzer: enough to shake out shallow
# regressions in the block seek, block, table index, compression, codec, vlog
# record, WAL, MANIFEST edit, write batch, RESP command and RESP reply parsers on every CI
# run; long campaigns stay manual
# (go test -fuzz=... -fuzztime=10m).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzBlockSeekGE -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/block
	$(GO) test -run XXX -fuzz FuzzBlockRoundTrip -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/sstable
	$(GO) test -run XXX -fuzz FuzzTableIndex -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/sstable
	$(GO) test -run XXX -fuzz FuzzLZ4Decode -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/compress
	$(GO) test -run XXX -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/compress
	$(GO) test -run XXX -fuzz FuzzVlogRecordDecode -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/vlog
	$(GO) test -run XXX -fuzz FuzzWALReader -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/wal
	$(GO) test -run XXX -fuzz FuzzDecodeEdit -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/version
	$(GO) test -run XXX -fuzz FuzzBatchDecode -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/batch
	$(GO) test -run XXX -fuzz FuzzRESPReadCommand -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/resp
	$(GO) test -run XXX -fuzz FuzzRESPReadReply -fuzztime $(FUZZTIME) $(TESTFLAGS) ./internal/resp

# Every exhibit of internal/harness once at the benchmark scale, each headline
# as a metric.
bench:
	$(GO) test -run XXX -bench BenchmarkExhibit -benchtime 1x $(TESTFLAGS) .

# One race-checked pass over the group-commit writer benchmark, the sync-
# commit leaf benchmark (inline vs separated values: overlapped fsyncs), the
# serving-layer benchmark, the table-iterator leaf benchmark (block at a
# time vs read-ahead vs sequential) and the served path's leaf benchmarks
# with allocs/op (RESP reply decode, batch Set+Encode, value-log Append), and
# the read path's (a five-way merge step with and without a lazy child, a
# memtable walk and seek, an internal-key comparison, a warm 100-pair scan over
# one shard and over two, a 100-pair scan into a full block cache), and the
# leaf benchmarks of compaction and the version (one Pick under each policy on a
# sliced tree, and the version a link or a merge edit builds):
# catches write-path, protocol and pooled-buffer races without measuring
# anything. The served_durable workload
# of BENCHMARK.json measures the serving stack.
bench-smoke:
	$(GO) test -race -run XXX -bench BenchmarkTableIterSequential -benchtime 1x -benchmem $(TESTFLAGS) ./internal/sstable
	$(GO) test -race -run XXX -bench 'BenchmarkConcurrentWriters|BenchmarkCommitSyncBlob|BenchmarkScan$$' -benchtime 1x -benchmem $(TESTFLAGS) ./internal/core
	$(GO) test -race -run XXX -bench 'BenchmarkScan100/cache=full' -benchtime 1x -benchmem $(TESTFLAGS) ./internal/core
	$(GO) test -race -run XXX -bench 'BenchmarkServerPipelinedSet/sync=false/conns=16' -benchtime 1x $(TESTFLAGS) ./internal/server
	$(GO) test -race -run XXX -bench BenchmarkReadReply -benchtime 1x -benchmem $(TESTFLAGS) ./internal/resp
	$(GO) test -race -run XXX -bench BenchmarkSetEncode -benchtime 1x -benchmem $(TESTFLAGS) ./internal/batch
	$(GO) test -race -run XXX -bench BenchmarkWriterAppend -benchtime 1x -benchmem $(TESTFLAGS) ./internal/vlog
	$(GO) test -race -run XXX -bench BenchmarkMergingNext -benchtime 1x -benchmem $(TESTFLAGS) ./internal/iterator
	$(GO) test -race -run XXX -bench 'BenchmarkMemtableIterate|BenchmarkMemtableSeek' -benchtime 1x -benchmem $(TESTFLAGS) ./internal/memtable
	$(GO) test -race -run XXX -bench BenchmarkInternalCompare -benchtime 1x -benchmem $(TESTFLAGS) ./internal/keys
	$(GO) test -race -run XXX -bench BenchmarkPick -benchtime 1x -benchmem $(TESTFLAGS) ./internal/compaction
	$(GO) test -race -run XXX -bench BenchmarkEditApply -benchtime 1x -benchmem $(TESTFLAGS) ./internal/version

# One race-checked pass over the concurrent-read benchmarks and the 100-pair
# scan over a sliced tree (cold/warm/full cache x inside/outside the slices):
# exercises the lock-free read state against flush/compaction republication
# and the lazy slice children without measuring anything. The read_hot and
# mixed_rwb workloads of BENCHMARK.json measure the read path.
bench-read:
	$(GO) test -race -run XXX -bench 'BenchmarkGetConcurrent|BenchmarkGetCacheHit|BenchmarkScan100$$' -benchtime 1x -benchmem $(TESTFLAGS) ./internal/core

# One race-checked pass over the format exhibit (raw vs lz4
# fill/scan/footprint): exercises the codec through flush, compaction, and
# the block cache without measuring anything. Real numbers live in
# EXPERIMENTS.json.
bench-format:
	$(GO) test -race -run XXX -bench 'BenchmarkExhibit/format$$' -benchtime 1x $(TESTFLAGS) .

# One race-checked pass over the sharded-writers sweep (shards 1/2/4/8 x 16
# writers): exercises hash routing, per-shard commit pipelines, and shared
# WAL-directory recovery under the race detector without measuring
# anything. The served_durable workload of BENCHMARK.json runs two shards.
bench-shards:
	$(GO) test -race -run XXX -bench BenchmarkShardedWriters -benchtime 1x $(TESTFLAGS) ./internal/core

# The value-separation gate: the blob exhibit (value size 128B-64KiB, the same
# user-byte volume with separation off vs on) fails unless separation cuts
# compaction write amplification by its budget of 2x at 4KiB+ values. The
# measured reductions sit far above it (hundreds of x at 16KiB+); the
# small-value rows are reported unbudgeted — there the log's own bytes and GC
# rewrites eat most of the win.
bench-blob:
	$(GO) run $(TESTFLAGS) ./cmd/ldcbench blob

# Every exhibit end to end at the sub-second scale with no device latency:
# that the table, the drivers' loop and the printer hold together. Budgets are
# reported as not evaluated there.
exhibits-smoke:
	$(GO) run $(TESTFLAGS) ./cmd/ldcbench -quick all

# Non-test Go lines, the figures every PR reports its delta of (ROADMAP,
# design axis): the engine, the repo's own vettool, and their total — last, so
# a script that reads the last line reads the total. bench/ is the benchmark's
# own module and is not in the total; "bench" prints its non-test lines apart.
# Before the total, "options" counts the exported fields of the structs that
# configure the engine and its server, as `go doc` lists them.
LOCFIND := find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*'
OPTION_STRUCTS := core.Options compaction.Params server.Config
loc:
	@echo "engine $$($(LOCFIND) -not -path './tools/*' | xargs cat | wc -l)"
	@echo "tools/ldclint $$($(LOCFIND) -path './tools/ldclint/*' | xargs cat | wc -l)"
	@echo "options $$(for t in $(OPTION_STRUCTS); do $(GO) doc ./internal/$${t%.*} $${t#*.}; done | \
		awk '/^type .* struct/ { s = 1; next } s && /^}/ { s = 0 } s && /^\t[A-Z]/ { n++ } END { print n }')"
	@echo "bench $$(find ./bench -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
	@$(LOCFIND) | xargs cat | wc -l

# The benchmark spine's own smoke test (bench/ is a separate module, so the
# root ./... never builds it): every workload traced at 1/100 scale, emitted
# metric names checked against BENCHMARK.json.
bench-spine-smoke:
	cd bench && $(GO) test ./...

# Serve an LDC database over RESP; talk to it with redis-cli -p $(PORT).
run-server: build
	$(GO) run ./cmd/ldcserver -db $(DB) -addr 127.0.0.1:$(PORT)

# End-to-end smoke of the real binary: build, start, PING/SET/GET/INFO via
# the Go client, SIGTERM, require a graceful drain and exit 0.
server-smoke:
	$(GO) test -count 1 -run TestServerBinarySmoke $(TESTFLAGS) ./cmd/ldcserver

ci: vet fmt-check lint test stress race invariants fuzz-smoke bench-spine-smoke bench-smoke bench-read bench-format bench-shards bench-blob exhibits-smoke server-smoke
