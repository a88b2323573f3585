# `make ci` runs what CI runs: .github/workflows/ci.yml is one job per
# target below, each a bare `make <target>`.

GO ?= go

# The staticcheck release lint runs. CI (where $CI is set) installs it;
# a developer box without it skips that step with a note.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1

.PHONY: all build lint test race bench-check ci clean

all: build

build:
	$(GO) build ./...

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@# The serving path must not depend on the paper-table harness: a
	@# cold build once ran the whole evaluation because it did.
	@if $(GO) list -deps ./internal/server ./internal/cluster ./internal/live | grep -qx nonstrict/internal/experiments; then \
		echo "internal/server, internal/cluster or internal/live depends on internal/experiments" >&2; exit 1; fi
	@# Shipped code is what ships: every package under internal/ with
	@# non-test files is a dependency of the CLI or of the benchmark. A
	@# harness that neither reaches (the fleet, the concurrency checkers)
	@# is test code, in _test.go files.
	@shipped="$$($(GO) list -deps ./cmd/nonstrict && $(GO) -C benchmark list -deps .)" && \
	pkgs="$$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...)" || exit 1; \
	stray="$$(printf '%s\n' "$$pkgs" | grep -vxF "$$shipped")"; \
	if [ -n "$$stray" ]; then \
		echo "packages under internal/ that neither cmd/nonstrict nor benchmark uses; move them into _test.go files:" >&2; \
		echo "$$stray" >&2; exit 1; fi
	@# /metrics is the one export of the server's counters: expvar's
	@# process-global registry cannot tell two servers in a process apart.
	@if $(GO) list -deps ./... | grep -qx expvar; then \
		echo "something imports expvar; export counters on /metrics" >&2; exit 1; fi
	@# Numbers come from benchmark/ and nowhere else: a go test -bench
	@# function in the root module would time a layer a second time.
	@# benchmark/ is a module of its own and is not scanned.
	@if grep -rn --include='*_test.go' --exclude-dir=benchmark '^func Benchmark' .; then \
		echo "Benchmark functions in the root module; add a per-layer row to benchmark/ instead" >&2; exit 1; fi
	@# sort.Slice and sort.SliceStable allocate a reflect swapper per call;
	@# the build path sorts with slices.SortFunc and slices.SortStableFunc.
	@if grep -rnE --include='*.go' 'sort\.Slice(Stable)?\(' internal/jir internal/cfg internal/reorder internal/restructure internal/stream internal/classfile; then \
		echo "sort.Slice in a build-path package; use slices.SortFunc or slices.SortStableFunc" >&2; exit 1; fi
	@# A payload is hashed once per crossing: internal/server runs SHA-256
	@# in digest.go only, and the ETag, the stored digest and the record's
	@# file name all read that one sum.
	@if grep -rn --include='*.go' 'sha256\.' internal/server | grep -v '^internal/server/digest\.go:'; then \
		echo "sha256 outside internal/server/digest.go; derive from the payload's digest instead" >&2; exit 1; fi
	@# A parsed class's names view the stream payload that holds them
	@# (classfile.ParseGlobal); that view is the one use of unsafe outside
	@# tests, and it lives in internal/classfile/view.go.
	@if grep -rln --include='*.go' --exclude='*_test.go' '"unsafe"' . | grep -vx './internal/classfile/view.go'; then \
		echo "unsafe outside internal/classfile/view.go; view bytes through classfile.ParseGlobal instead" >&2; exit 1; fi
	@# The virtual file's layout lives in restructure.Plan: the stream
	@# writer and the transfer engines read its units and never size a
	@# class's global data or a method body themselves.
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'BodyWireSize\(|GlobalEnd\[|NeededFirst\[' internal/stream internal/transfer; then \
		echo "layout arithmetic in internal/stream or internal/transfer; read restructure.Plan's units instead" >&2; exit 1; fi
	@# The serving build keeps no whole-program graph map: its static
	@# order builds each method's CFG while the walk is inside the method
	@# (reorder.StaticLazy). cfg.BuildAll is for the paper tables.
	@if grep -rn --include='*.go' --exclude='*_test.go' 'cfg\.BuildAll(' internal/pipeline internal/server internal/cluster; then \
		echo "cfg.BuildAll on the serving build path; use reorder.StaticLazy" >&2; exit 1; fi
	@# The stream writer encodes each class's global data once and reads
	@# every body unit from its method: a whole serialized class file in
	@# the writer copies every body a second time.
	@if grep -rn --include='*.go' --exclude='*_test.go' '\.Serialize()' internal/stream; then \
		echo "Serialize in internal/stream; write units from AppendGlobal and the methods' bytes instead" >&2; exit 1; fi
	@# One method index: classfile.Index numbers methods for the build and
	@# for the client's linker alike. A Ref→MethodID map anywhere else
	@# numbers them a second time, and the two can drift apart.
	@if grep -rn --include='*.go' 'map\[classfile\.Ref\]classfile\.MethodID' . | grep -v '^\./internal/classfile/'; then \
		echo "a Ref→MethodID map outside internal/classfile; look methods up through classfile.Index" >&2; exit 1; fi
	@# A corrupt unit is repaired or it ends the stream, and the session's
	@# degradation to demand fetching finishes the program: the client
	@# keeps no second recovery state for a unit its repair lost. (The
	@# disk store's record quarantine in internal/server is another
	@# mechanism and is not scanned.)
	@if grep -rni --include='*.go' --exclude='*_test.go' 'quarantin' internal/stream internal/live; then \
		echo "quarantine in internal/stream or internal/live; end the stream and let the session degrade instead" >&2; exit 1; fi
	@# A slow link has one home: LinkClass.Shape paces the client's side
	@# of a connection in internal/stream/link.go. Every other wait is a
	@# timer that its request's or caller's context can cut short.
	@if grep -rn --include='*.go' --exclude='*_test.go' 'time\.Sleep(' . | grep -v '^\./internal/stream/link\.go:'; then \
		echo "time.Sleep outside internal/stream/link.go; shape the client's connection with a stream.LinkClass, or wait on a timer and a context" >&2; exit 1; fi
	@if [ -n "$$CI" ] && ! command -v staticcheck >/dev/null 2>&1; then \
		$(GO) install $(STATICCHECK); fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# Every gate is a Go test, and a test asserts and writes nothing: the
# paper tables (byte-identical serial vs concurrent), overlapped
# execution end to end, the chaos schedules and seeded fuzz corpora, the
# interleaving enumerators of internal/check, crash-restart, overload,
# the fleet and the cluster scenarios all run here, and again under the
# race detector below. internal/check and internal/fleet hold only
# _test.go files: only go test and go vet compile them.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Numbers come from `go run -C benchmark .` (BENCHMARK.json), nowhere
# else. benchmark/ is a module of its own, so the root build and test
# never compile it: vet it and run its self-tests (one quick pass per
# workload, < 10 s) so that an API change under internal/ that breaks
# it fails here, not at the next measurement.
bench-check:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

ci: build lint test race bench-check

clean:
	$(GO) clean ./...
