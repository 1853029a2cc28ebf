#!/usr/bin/env python3
"""Gate the solver microbenchmark record produced by bench_micro.

Reads a google-benchmark JSON file (BENCH_solver.json in CI) and enforces
the perf contracts of the block-CSR and observability work:

  1. BM_BsrSpMV must process rows at least 1.5x faster than BM_SpMV
     (items_per_second; both kernels apply the same matrix, so rows/s is
     directly comparable).  bytes_per_second is reported for context
     only -- the block layout deliberately moves fewer bytes per row, so
     a bandwidth ratio understates the speedup.
  2. Classical Gram-Schmidt GMRES (BM_GmresAllreduces/cgs:1) must batch
     its reductions: at most 3 allreduce rounds per iteration (the
     orthogonalization batch, the cancellation-guard fallback, and the
     residual check), and strictly fewer than modified Gram-Schmidt
     (cgs:0), whose round count grows with the Krylov basis.
  3. obs::Span must be free when tracing is off and cheap when it is on:
     a disabled span (BM_SpanOverhead/enabled:0 -- one relaxed atomic
     load) must cost at most 50 ns, and an enabled span with the solver's
     three-attribute payload (BM_SpanWithAttrsOverhead/enabled:1 -- two
     clock reads plus a buffered record) at most 5 us.  The bounds are
     deliberately loose absolute ceilings, not ratios: they catch a lock
     or allocation sneaking onto the hot path without flaking on CI
     machine variance.
  4. The record must come from an optimized binary on a quiet machine:
     the context key `neuro_build_type` (emitted by bench_micro's main
     from the translation unit's own NDEBUG/__OPTIMIZE__ state) must be
     "release", and `cpu_scaling_enabled` must be false.  The stock
     `library_build_type` key is useless here: it reports how the
     *benchmark library* was compiled, and distro packages ship debug
     builds, so it reads "debug" even for a -O2 bench binary.
  5. Flight-recorder ring mode must stay black-box cheap: a disabled
     ring-mode span (BM_RingRecordOverhead/enabled:0) obeys the same
     50 ns inert-span bound, and steady-state ring recording with the
     solver attr payload (enabled:1, the ring wrapping on every record)
     at most 2x the legacy enabled-span bound (10 us).  The ring replaces
     truncate-and-drop, so this is the permanent cost of always-on
     post-mortem retention.

Usage: check_bench_solver.py BENCH_solver.json
"""

import json
import sys

BSR_MIN_SPEEDUP = 1.5
CGS_MAX_ROUNDS_PER_ITER = 3.0
DISABLED_SPAN_MAX_NS = 50.0
ENABLED_ATTR_SPAN_MAX_NS = 5000.0
# Flight-recorder ring mode (BM_RingRecordOverhead): steady-state wrapping
# must stay within 2x the legacy attr-span bound, and the disabled path is
# the same inert Span as BM_SpanOverhead/enabled:0.
RING_RECORD_MAX_NS = 2.0 * ENABLED_ATTR_SPAN_MAX_NS
RING_DISABLED_MAX_NS = DISABLED_SPAN_MAX_NS

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def cpu_ns(bench):
    return bench["cpu_time"] * NS_PER_UNIT[bench.get("time_unit", "ns")]


def main(path):
    with open(path) as f:
        record = json.load(f)
    by_name = {b["name"]: b for b in record.get("benchmarks", [])}

    def need(name):
        if name not in by_name:
            raise SystemExit(f"FAIL: benchmark {name!r} missing from {path}")
        return by_name[name]

    csr = need("BM_SpMV")
    bsr = need("BM_BsrSpMV")
    speedup = bsr["items_per_second"] / csr["items_per_second"]
    print(f"SpMV effective bandwidth: CSR {csr['bytes_per_second'] / 1e9:.2f} GB/s, "
          f"BSR {bsr['bytes_per_second'] / 1e9:.2f} GB/s")
    print(f"SpMV row throughput: CSR {csr['items_per_second'] / 1e9:.2f} Grows/s, "
          f"BSR {bsr['items_per_second'] / 1e9:.2f} Grows/s ({speedup:.2f}x)")

    mgs = need("BM_GmresAllreduces/cgs:0")
    cgs = need("BM_GmresAllreduces/cgs:1")
    mgs_rounds = mgs["allreduces_per_iter"]
    cgs_rounds = cgs["allreduces_per_iter"]
    print(f"GMRES allreduce rounds per iteration: MGS {mgs_rounds:.2f}, "
          f"CGS {cgs_rounds:.2f}")

    span_off = need("BM_SpanOverhead/enabled:0")
    span_on = need("BM_SpanOverhead/enabled:1")
    attr_on = need("BM_SpanWithAttrsOverhead/enabled:1")
    print(f"span overhead: disabled {cpu_ns(span_off):.1f} ns, enabled "
          f"{cpu_ns(span_on):.1f} ns, enabled+attrs {cpu_ns(attr_on):.1f} ns")
    ring_off = need("BM_RingRecordOverhead/enabled:0")
    ring_on = need("BM_RingRecordOverhead/enabled:1")
    print(f"ring record overhead: disabled {cpu_ns(ring_off):.1f} ns, "
          f"enabled {cpu_ns(ring_on):.1f} ns (steady-state wrap)")

    context = record.get("context", {})
    build_type = context.get("neuro_build_type", "missing")
    cpu_scaling = context.get("cpu_scaling_enabled", None)
    print(f"bench binary build type: {build_type} "
          f"(library_build_type {context.get('library_build_type', '?')} "
          "reflects the benchmark library, not the bench code; ignored)")
    print(f"cpu frequency scaling: {cpu_scaling}")
    print(f"host vector ISA: {context.get('neuro_simd_target', '?')}")

    failures = []
    if build_type != "release":
        failures.append(
            f"neuro_build_type is {build_type!r}, not 'release' -- regenerate "
            "the record from an optimized build (timings from unoptimized "
            "code gate nothing)")
    if cpu_scaling is not False:
        failures.append(
            f"cpu_scaling_enabled is {cpu_scaling!r} -- pin the governor to "
            "performance before recording, or the ratios are noise")
    if cpu_ns(span_off) > DISABLED_SPAN_MAX_NS:
        failures.append(
            f"disabled span costs {cpu_ns(span_off):.1f} ns, above gate "
            f"{DISABLED_SPAN_MAX_NS:.0f} ns -- the off path must stay a "
            "single relaxed load")
    if cpu_ns(attr_on) > ENABLED_ATTR_SPAN_MAX_NS:
        failures.append(
            f"enabled span with attrs costs {cpu_ns(attr_on):.1f} ns, above "
            f"gate {ENABLED_ATTR_SPAN_MAX_NS:.0f} ns -- a lock or allocation "
            "has crept onto the record path")
    if cpu_ns(ring_off) > RING_DISABLED_MAX_NS:
        failures.append(
            f"disabled ring record costs {cpu_ns(ring_off):.1f} ns, above "
            f"gate {RING_DISABLED_MAX_NS:.0f} ns -- ring mode must not touch "
            "the inert-span fast path")
    if cpu_ns(ring_on) > RING_RECORD_MAX_NS:
        failures.append(
            f"enabled ring record costs {cpu_ns(ring_on):.1f} ns, above gate "
            f"{RING_RECORD_MAX_NS:.0f} ns -- the flight-recorder wrap path "
            "must stay within 2x the legacy attr-span bound")
    if speedup < BSR_MIN_SPEEDUP:
        failures.append(
            f"BSR SpMV speedup {speedup:.2f}x below gate {BSR_MIN_SPEEDUP}x")
    if cgs_rounds > CGS_MAX_ROUNDS_PER_ITER:
        failures.append(
            f"CGS rounds/iter {cgs_rounds:.2f} above gate {CGS_MAX_ROUNDS_PER_ITER}")
    if cgs_rounds >= mgs_rounds:
        failures.append(
            f"CGS rounds/iter {cgs_rounds:.2f} not below MGS {mgs_rounds:.2f}")
    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK: build provenance, BSR speedup, GMRES reduction batching and "
          "span overhead within contract")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
