# Convenience targets; `make ci` is what the (containerized) CI runs.

DUNE ?= dune

.PHONY: all build build-flags test test-all fmt bench-smoke bench-interp bench-profiles bench-adaptive bench-serve cache-smoke crash-smoke adaptive-smoke serve-smoke merge-smoke ci clean

all: build

build:
	$(DUNE) build @all

# quick pass only: alcotest -q skips the `Slow full-scale cases
test:
	$(DUNE) runtest

# the whole suite, including full-scale and parallel-grid cases
test-all:
	$(DUNE) exec test/main.exe

# engine-vs-engine wall-clock benchmark at the smallest scale
# (reference interpreter vs compiled engine; median-of-5 interleaved
# timing), plus validation that BENCH_interp.smoke.json parses and
# covers both engines for all ten workloads; warns (does not fail) on a
# >10% geomean regression against the committed BENCH_interp.json
bench-smoke:
	$(DUNE) exec bench/main.exe -- smoke

# alias: the interp smoke under the name of the file it checks
bench-interp: bench-smoke

# recording-path benchmark (legacy collector vs flat slots) at the
# smallest scale, written to BENCH_profiles.smoke.json and validated;
# warns (does not fail) on a >10% geomean regression against the
# committed BENCH_profiles.json
bench-profiles:
	$(DUNE) exec bench/main.exe -- profiles-smoke

# adaptive-loop benchmark (FDO loop vs exhaustive instrumentation) on a
# three-workload subset, written to BENCH_adaptive.smoke.json and
# validated (loop still wins: geomean >= 1); warns (does not fail) on a
# >10% geomean regression against the committed BENCH_adaptive.json
bench-adaptive:
	$(DUNE) exec bench/main.exe -- adaptive-smoke

# serve-mode daemon benchmark (jobs/sec, latency percentiles, shed
# rate, journal recovery time) on a small fleet, written to
# BENCH_serve.smoke.json and validated; warns (does not fail) on a
# >10% throughput regression against the committed BENCH_serve.json
bench-serve:
	$(DUNE) exec bench/main.exe -- serve-smoke

# SIGKILL `isf serve` mid-fleet, restart on the same journal, require
# zero lost jobs and byte-identity with a sequential run — for both
# engines and both recording paths; plus socket mode, graceful SIGTERM,
# a shared cache directory, and a chaos fleet with poison jobs
serve-smoke: build
	sh scripts/serve_smoke.sh

# cross-shard merge invariance: a sharded fleet merged with `isf merge`
# must be byte-identical to the sequential fleet's aggregate, for any
# shard count, merge order or worker count; the merged-aggregate cache
# cold vs warm must agree; SIGKILL mid-fleet + resume merges losslessly
merge-smoke: build
	sh scripts/merge_smoke.sh

# run `isf table 1` uncached, cold-cached and warm-cached; diff the
# outputs and require the warm run to hit the cache for every cell
cache-smoke: build
	sh scripts/cache_smoke.sh

# `isf table all` with the adaptive loop off must stay byte-identical
# across engines, recording paths and cache cold/warm, and across
# engines under --chaos (exit code too); the loop on must be
# engine-invariant
adaptive-smoke: build
	sh scripts/adaptive_smoke.sh

# gated: the container does not ship ocamlformat
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# kill `isf table --checkpoint` mid-run, resume, diff against an
# uninterrupted run
crash-smoke: build
	sh scripts/crash_recovery.sh

# the default build (dune-workspace: the release profile) must compile
# lib/vm without -opaque, so Machine's and Straight's helpers inline
# into the word closures, and must keep dev's warning set as errors
# (the root dune file's env stanza)
VM_CMX = _build/default/lib/vm/.vm.objs/native/vm__Straight.cmx
DEV_FLAGS = @1..3@5..28@30..39@43@46..47@49..57@61..62-40 -strict-sequence \
  -strict-formats -short-paths -keep-locs
build-flags:
	@rules=$$($(DUNE) rules $(VM_CMX)) || exit 1; \
	echo "$$rules" | grep -q ocamlopt || { \
	  echo "build-flags: no ocamlopt rule for $(VM_CMX)" >&2; exit 1; }; \
	if echo "$$rules" | grep -q -- -opaque; then \
	  echo "build-flags: lib/vm is compiled with -opaque" >&2; exit 1; fi
	@env=$$($(DUNE) printenv .) || exit 1; \
	for f in $(DEV_FLAGS); do \
	  echo "$$env" | grep -q -F -- "$$f" || { \
	    echo "build-flags: dune printenv lacks $$f" >&2; exit 1; }; \
	done
	@echo "build flags OK"

ci: build fmt build-flags
	$(DUNE) exec test/main.exe
	$(DUNE) exec bin/isf.exe -- table 1 -j 2 > /dev/null
	$(MAKE) crash-smoke
	$(MAKE) cache-smoke
	$(MAKE) adaptive-smoke
	$(MAKE) serve-smoke
	$(MAKE) merge-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-profiles
	$(MAKE) bench-adaptive
	$(MAKE) bench-serve
	@echo "ci OK"

clean:
	$(DUNE) clean
