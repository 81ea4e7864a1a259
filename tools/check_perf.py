#!/usr/bin/env python3
"""Perf-smoke gate: compares a fresh BENCH_*.json against its committed
baseline and fails on correctness or gross perf regressions. Handles both
report families, dispatched on the document's `schema` field:

  bqs-bench-throughput-*  (default when no schema field is present)
  ------------------------------------------------------------------
  Checks, in order of severity:
  1. byte-identity: the fresh run's `all_byte_identical` must be true (the
     bench itself also exits non-zero on divergence; this is a belt).
  2. error bound: every algorithm row must report error_bounded == true.
  3. coverage: every (stream, algorithm) row in the baseline must also be
     present in the fresh run — silently dropping a gated row is itself a
     failure.
  4. throughput: fresh points_per_sec must be at least TOLERANCE x the
     baseline's for every row. Because the committed baseline was measured
     on a different machine than the CI runner, each stream's rates are
     first normalized by that stream's CALIBRATION row (BQS_bruteforce,
     the seed reference implementation): machine speed cancels out of the
     fresh/baseline ratio, so the gate measures code, not hardware. A
     regression confined to the calibration row itself is the seed
     reference getting slower — reported, not gated. Pass --no-normalize
     for raw same-machine comparisons. The default tolerance (0.70, i.e.
     "no more than 30% below baseline") absorbs residual runner noise
     while catching order-of-magnitude slips like a transcendental leaking
     back into the kernel hot path.

  bqs-bench-micro-*
  ------------------------------------------------------------------
  Correctness gate over the micro report, plus one speed ratio taken
  within the fresh run (ns/op numbers are too machine-sensitive to gate
  cross-machine):
  1. checksums: `all_checksums_match` and
     `fast_kernel_transcendental_free` must be true.
  2. coverage: every (stream, algorithm, kernel) push row in the
     baseline must be present in the fresh run.
  3. guard-band fallbacks: every fast-kernel row on the empirical
     stream must report kernel_fallbacks == 0 — the guard band exists
     for adversarial geometry, and real-data geometry landing in it
     means the band (or the kernel) regressed.
  4. vector coverage: on the empirical stream's fast-kernel BQS row,
     the fraction of batch points decided by a vector lane
     ((lanes4 + lanes2) / total) must be >= VECTOR_COVERAGE_FLOOR,
     whenever the fresh run's `simd_tier` is not "scalar". Catches the
     dispatch (or the screen gating) silently decaying to the scalar
     path while byte-identity keeps all other gates green.
  5. significant-point rebuilds: on the random_walk stream's fast-kernel
     rows, significant_rebuilds / points must be <= REBUILD_CEILING for
     that algorithm (0.005 BQS, 0.20 FBQS; measured 0.0001 and 0.114).
     FBQS is held down by the box-corner include pre-test (~0.42
     without it); BQS additionally settles box pre-test misses with the
     flat-buffer scan before composing tight bounds (0.23 with the
     pre-test alone). The count is deterministic for the seeded stream,
     so this catches either shortcut silently decaying (decisions and
     checksums stay identical either way, so no other gate would notice).
  6. square roots: on the random_walk stream's fast-kernel rows,
     sqrt_calls must be 0. Near-axis rotated ends (straight runs) are
     settled by the box pre-test or the flat-buffer scan before the
     sliver guard sends them to the sqrt-bearing reference composition
     (5460 BQS and 4404 FBQS sqrt calls when the guard ran first).
  7. bound decisions: on the random_walk stream's fast-kernel BQS row,
     bound_decisions / points (upper-bound includes plus lower-bound
     splits) must be <= BOUND_DECISION_CEILING. BQS decides segments
     shorter than kScanPhasePoints buffered points by the exact scan
     alone, so bounds decide only the longer ones; the count is
     deterministic for the seeded stream and rises if the scan phase
     ends early (decisions and checksums stay identical either way).
  8. yardstick: the fresh run's `yardstick` row (a bare exact greedy over
     a start-relative SoA buffer on random_walk, with BQS's verdict and
     guard band, timed round-robin with the push rows) must report the
     fast BQS row's keys, and fast BQS on random_walk must take at most
     YARDSTICK_RATIO_CEILING times its best_ms. Nearly every fix of the
     walk is decided in BQS's scan phase, so this is the per-fix cost of
     the engine's bookkeeping over the bare scan; both rows share the
     host's slow stretches, so the ratio needs no baseline.

  bqs-bench-fleet-v3
  ------------------------------------------------------------------
  Same shape, fleet-flavoured. The bench times its rows round-robin and
  reports medians over rounds; each round includes a calibration pass
  (CRC32C over the feed's bytes) that runs none of the engine's code.
  1. byte-identity: `all_byte_identical` must be true (per-device outputs
     vs the sequential CompressAll reference).
  2. coverage: every (algorithm, config) row in the baseline must be
     present in the fresh run, the sequential reference row included.
  3. ingest throughput: each row's points_per_sec, normalized by that
     algorithm's calibration rate (1 / calibration_ns_per_fix), must be at
     least TOLERANCE x the baseline's equally-normalized rate. The
     sequential row is gated like the engine rows: the calibration does
     not run the kernel, so a faster kernel reads as a faster row instead
     of a slower service. Rows with shards > 1 scale with the host's
     cores, which the calibration cannot normalize away: when the fresh
     run's `nproc` is below the baseline's, they are reported, not gated.
  3b. service cost: each inline / shards=1 row's service_ratio (median
     over rounds of its ns/fix minus the sequential row's, over the
     calibration's ns/fix) must stay at or below FLEET_MAX_SERVICE_RATIO.
     The bench enforces the same ceiling at run time; this re-gate
     catches a candidate JSON from an older binary.
  4. overload scenarios: every scenario row in the baseline's `overload`
     array must be present in the fresh run (coverage), and each fresh row
     must hold the limits it carries itself — p99_ms <= p99_limit_ms,
     shed_rate <= shed_rate_limit, invariant_ok true. Limits are
     self-describing (written by the bench into each row) so the gate
     needs no hardcoded thresholds and stays meaningful across machines:
     p99 limits are intentionally generous absolute bounds, shed-rate
     limits are workload properties, and the accounting invariant is
     machine-independent. The bench binary enforces the same limits at
     run time; this re-gate catches a candidate JSON produced by a
     tampered or older binary.

  bqs-bench-wal-v1
  ------------------------------------------------------------------
  Durability-subsystem gate (bench_wal). Append/recover rates are
  reported but never gated — fsync throughput measures the runner's
  disk, not the code. What IS gated is machine-independent:
  1. exactness: `all_recovered_exact` must be true, and every policy
     row must report recovered_exact and recovery_clean — a WAL that
     benches fast but drops acked data is not a WAL.
  2. coverage: every policy row in the baseline must be present.
  3. density: the workload is derived from a fixed seed, so
     bytes_per_point is deterministic; a fresh value more than 5% above
     the baseline means the delta+zigzag+varint codec got less dense.
     (Same-scale runs only; the scale check catches the rest.)
  4. workload identity: each row's `points` must equal the baseline's —
     if the generator drifted, the density gate would be comparing
     different workloads and silently pass.

  bqs-bench-compaction-v1
  ------------------------------------------------------------------
  Compaction-pipeline gate (bench_compaction). Drain/recover rates and
  absolute query latencies are reported but never gated (disk +
  machine). Gated, all machine-independent for the seeded workload:
  1. exactness: `recovery_exact`, `recovery_clean` and `queries_match`
     must all be true — RecoverStore reproduced the acked prefix bit
     for bit and every block-pruned range query agreed with the
     brute-force scan.
  2. workload identity: `points` must equal the baseline's.
  3. density: block `bytes_per_point` no more than 5% above baseline —
     the columnar delta codec got less dense.
  4. pruning power: `avg_decoded_block_fraction` no more than 10% above
     baseline — the time/bbox prune decayed toward decode-everything.
  5. block queries beat a full scan: `block_query_us` x
     BLOCK_QUERY_SPEEDUP_FLOOR must not exceed `full_scan_query_us`. Both
     are timed in the same run over the same queries, so the ratio needs
     no calibration (measured 34x at --scale 1 with block and zone
     pruning; 39-47x with the block filter and time-sorted binary
     search; 4.5-5.3x with the grid index and whole-block scans; 0.58x
     when every query re-read and re-decoded blocks).
  6. no-op runs do not grow with the store: the median no-op CompactOnce
     after the bench's 32nd block file (`noop_run_us_last_file`) must be
     at most NOOP_GROWTH_CEILING x the median after its first
     (`noop_run_us_first_file`). Same run, same compactor, so no
     calibration is needed (measured 0.96-1.15x with the compactor
     keeping its MANIFEST; 8.6-14x when every run re-read the MANIFEST and
     listed the block directory).

Usage: check_perf.py <fresh.json> <baseline.json> [--tolerance 0.70]
                     [--no-normalize]
Exit codes: 0 ok, 1 regression/divergence, 2 usage or parse error.
"""

import argparse
import json
import sys

CALIBRATION_ALGORITHM = "BQS_bruteforce"
FLEET_SCHEMA_PREFIX = "bqs-bench-fleet"
MICRO_SCHEMA_PREFIX = "bqs-bench-micro"
WAL_SCHEMA_PREFIX = "bqs-bench-wal"
COMPACTION_SCHEMA_PREFIX = "bqs-bench-compaction"
# Ceiling on fresh/baseline bytes_per_point: the workload is seeded, so
# density is deterministic and 5% headroom is purely for format evolution
# landing together with a refreshed baseline.
WAL_DENSITY_SLACK = 1.05
# Ceiling on fresh/baseline avg_decoded_block_fraction: chunking and the
# block filter are deterministic, so pruning power is too; 10% headroom covers
# block-layout evolution landing with a refreshed baseline.
COMPACTION_PRUNE_SLACK = 1.10
# Minimum full-scan / block-query latency ratio within one compaction run.
BLOCK_QUERY_SPEEDUP_FLOOR = 10.0
# Maximum no-op compaction cost after the bench's last block file over its
# cost after the first (see check 6 of the compaction family).
NOOP_GROWTH_CEILING = 2.0
SEQUENTIAL_CONFIG = "sequential"
# Ceiling on an inline / shards=1 fleet row's service_ratio (check 3b of
# the fleet family); bench/bench_fleet.cc gates its own run with the same
# value (kMaxServiceRatio). In 60 runs healthy rows read 0.9-2.1, and a
# 30% slowdown of the engine's per-run dispatch read 1.9-3.5 on BQS (over
# the ceiling in 56) and 4.2-5.6 on FBQS.
FLEET_MAX_SERVICE_RATIO = 2.25
# Empirical-stream floor on the fraction of batch points decided by a
# vector lane (measured ~0.84 on the paper's merged workload; the floor
# leaves room for dataset-scale wiggle, not for a path regression).
VECTOR_COVERAGE_FLOOR = 0.75
# Random-walk ceilings on significant-point rebuilds per point for the fast
# kernel, per algorithm (see check 5 of the micro family).
REBUILD_CEILING = {"BQS": 0.005, "FBQS": 0.20}
# Random-walk ceiling on bound decisions per point for the fast BQS kernel
# (see check 7 of the micro family): measured 0 with the scan phase ending
# at 128 buffered points (no segment of the walk gets that long), 0.0117
# at 64 and 0.446 with the 8-point warm-up it replaced.
BOUND_DECISION_CEILING = 0.005
# Ceiling on fast BQS's random_walk time over the bare exact greedy's in
# the same micro run (see check 8 of the micro family): measured
# 0.93-1.14x with the scan phase decided in one loop over a start-relative
# SoA buffer, 1.9-3.8x with the per-point call chain and strided scans.
YARDSTICK_RATIO_CEILING = 1.5


def throughput_rates(doc):
    """{(stream, algorithm): row} for every measured algorithm row."""
    out = {}
    for stream in doc.get("streams", []):
        for algo in stream.get("algorithms", []):
            out[(stream["name"], algo["name"])] = algo
    return out


def fleet_rates(doc):
    """{(algorithm, config): row}, with the sequential reference included
    as config 'sequential'."""
    out = {}
    for algo in doc.get("algorithms", []):
        name = algo["name"]
        out[(name, SEQUENTIAL_CONFIG)] = {
            "points_per_sec": algo.get("sequential_points_per_sec", 0.0),
        }
        for run in algo.get("runs", []):
            out[(name, run["config"])] = run
    return out


def fleet_calibration(doc):
    """{algorithm: calibration_ns_per_fix} for every algorithm that has
    a usable calibration pass."""
    return {algo["name"]: algo["calibration_ns_per_fix"]
            for algo in doc.get("algorithms", [])
            if algo.get("calibration_ns_per_fix", 0.0) > 0}


def check_scale(fresh, baseline, failures):
    # Rates are only comparable at the same dataset scale: the BQS-vs-
    # reference ratio is scale-dependent (exact-resolve cost grows
    # superlinearly with segment length), so normalization cannot cancel a
    # scale shift.
    fresh_scale = fresh.get("scale", 0.0)
    base_scale = baseline.get("scale", 0.0)
    if abs(fresh_scale - base_scale) > 1e-9:
        failures.append(
            f"scale mismatch: fresh run at {fresh_scale}, baseline at "
            f"{base_scale} — rerun the bench with --scale {base_scale}")


def gate_rows(fresh_rows, base_rows, calibration, calibration_keys,
              tolerance, failures, report_only=frozenset()):
    """Shared row-by-row comparison: coverage, then normalized ratios.
    `calibration` maps a group key (stream / algorithm name) to the
    machine-speed factor; rows whose key is in `calibration_keys` are the
    yardstick and are reported but never gated, and so are rows whose key
    is in `report_only`."""
    compared = 0
    for key, base_row in sorted(base_rows.items()):
        group, _ = key
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            failures.append(f"{key}: present in baseline but missing from "
                            "the fresh run (gated row dropped?)")
            continue
        base_pps = base_row.get("points_per_sec", 0.0)
        fresh_pps = fresh_row.get("points_per_sec", 0.0)
        if base_pps <= 0:
            continue
        ratio = fresh_pps / base_pps
        cal = calibration.get(group)
        gated = True
        if cal is not None:
            if key in calibration_keys:
                gated = False  # the yardstick cannot gate itself
            else:
                ratio /= cal
        if key in report_only:
            gated = False
        compared += int(gated)
        ok = not gated or ratio >= tolerance
        status = "ok" if ok else "REGRESSION"
        if not gated:
            status = "calibration" if key in calibration_keys else "reported"
        normalized = cal is not None and key not in calibration_keys
        print(f"{key[0]:>18s} / {key[1]:<16s} "
              f"{fresh_pps / 1e6:8.2f} M pts/s vs baseline "
              f"{base_pps / 1e6:8.2f} ({ratio:5.2f}x"
              f"{' norm' if normalized else ''})  {status}")
        if not ok:
            failures.append(
                f"{key}: normalized ratio {ratio:.2f} below tolerance "
                f"{tolerance:.2f} (fresh {fresh_pps:.0f} pts/s, "
                f"baseline {base_pps:.0f})")
    return compared


def check_throughput(fresh, baseline, args, failures):
    if not fresh.get("all_byte_identical", False):
        failures.append("fresh run is not byte-identical across kernels")

    fresh_rows = throughput_rates(fresh)
    base_rows = throughput_rates(baseline)

    for key, row in sorted(fresh_rows.items()):
        if not row.get("error_bounded", True):
            failures.append(f"{key}: epsilon error bound violated")

    # Per-stream machine-speed calibration from the seed-reference row. A
    # stream without a usable calibration row cannot be gated meaningfully
    # across machines, so that is itself a failure (never a silent
    # fall-through to raw cross-machine ratios).
    calibration = {}
    calibration_keys = set()
    if not args.no_normalize:
        for (stream, algo), base_row in base_rows.items():
            if algo != CALIBRATION_ALGORITHM:
                continue
            calibration_keys.add((stream, algo))
            fresh_row = fresh_rows.get((stream, algo))
            base_pps = base_row.get("points_per_sec", 0.0)
            if fresh_row and base_pps > 0:
                cal = fresh_row.get("points_per_sec", 0.0) / base_pps
                if cal > 0:
                    calibration[stream] = cal
        for stream in {s for (s, _) in base_rows}:
            if stream not in calibration:
                failures.append(
                    f"stream '{stream}': no usable {CALIBRATION_ALGORITHM} "
                    "calibration row in both files; cannot normalize "
                    "(use --no-normalize only for same-machine runs)")

    return gate_rows(fresh_rows, base_rows, calibration, calibration_keys,
                     args.tolerance, failures)


def check_overload(fresh, baseline, failures):
    """Coverage + self-limit gate over the fleet report's `overload` rows.
    Returns the number of gated rows (counted into `compared`)."""
    fresh_rows = {row["scenario"]: row for row in fresh.get("overload", [])}
    base_rows = {row["scenario"]: row for row in baseline.get("overload", [])}
    compared = 0
    for name, _ in sorted(base_rows.items()):
        row = fresh_rows.get(name)
        if row is None:
            failures.append(f"overload scenario '{name}': present in "
                            "baseline but missing from the fresh run")
            continue
        compared += 1
        p99 = row.get("p99_ms", float("inf"))
        p99_limit = row.get("p99_limit_ms", 0.0)
        shed_rate = row.get("shed_rate", float("inf"))
        shed_limit = row.get("shed_rate_limit", 0.0)
        invariant_ok = row.get("invariant_ok", False)
        ok = p99 <= p99_limit and shed_rate <= shed_limit and invariant_ok
        print(f"{'overload':>18s} / {name:<16s} "
              f"p99 {p99:7.3f}/{p99_limit:.0f} ms  "
              f"shed {shed_rate:5.3f}/{shed_limit:.2f}  "
              f"{'ok' if ok else 'LIMIT BROKEN'}")
        if p99 > p99_limit:
            failures.append(f"overload '{name}': p99 ingest latency "
                            f"{p99:.3f} ms over its limit {p99_limit:.3f}")
        if shed_rate > shed_limit:
            failures.append(f"overload '{name}': shed rate {shed_rate:.3f} "
                            f"over its limit {shed_limit:.3f}")
        if not invariant_ok:
            failures.append(f"overload '{name}': record accounting broken "
                            "(ingested + shed + dropped != fed)")
    return compared


def check_micro(fresh, baseline, failures):
    """Correctness gate over the micro report's push rows. Returns the
    number of gated rows."""
    if not fresh.get("all_checksums_match", False):
        failures.append("micro: fast-kernel checksums diverged")
    if not fresh.get("fast_kernel_transcendental_free", False):
        failures.append("micro: fast kernel performed unaccounted "
                        "transcendental calls")

    def rows(doc):
        return {(r["stream"], r["algorithm"], r["kernel"]): r
                for r in doc.get("push", [])}

    fresh_rows = rows(fresh)
    base_rows = rows(baseline)
    vector_tier = fresh.get("simd_tier", "scalar") != "scalar"
    compared = 0
    for key in sorted(base_rows):
        row = fresh_rows.get(key)
        if row is None:
            failures.append(f"micro {key}: present in baseline but missing "
                            "from the fresh run")
            continue
        compared += 1
        stream, algorithm, kernel = key
        fallbacks = row.get("kernel_fallbacks", 0)
        status = "ok"
        if kernel == "fast" and stream == "empirical" and fallbacks != 0:
            failures.append(f"micro {key}: {fallbacks} guard-band fallbacks "
                            "on the empirical stream (expected 0)")
            status = "FALLBACKS"
        note = ""
        if kernel == "fast" and stream == "empirical" and algorithm == "BQS":
            lanes = (row.get("batch_lanes4_points", 0) +
                     row.get("batch_lanes2_points", 0))
            total = lanes + row.get("batch_scalar_points", 0)
            coverage = lanes / total if total else 0.0
            note = f"  vector {coverage:5.3f}"
            if vector_tier and coverage < VECTOR_COVERAGE_FLOOR:
                failures.append(
                    f"micro {key}: vector coverage {coverage:.3f} below "
                    f"floor {VECTOR_COVERAGE_FLOOR:.2f} (lanes {lanes}, "
                    f"total {total}) — batch screen decayed to scalar")
                status = "COVERAGE"
        ceiling = REBUILD_CEILING.get(algorithm)
        if kernel == "fast" and stream == "random_walk" and ceiling:
            points = row.get("points", 0)
            rebuilds = row.get("significant_rebuilds", 0)
            per_point = rebuilds / points if points else float("inf")
            note += f"  rebuilds/pt {per_point:6.4f}"
            if per_point > ceiling:
                failures.append(
                    f"micro {key}: {per_point:.4f} significant-point "
                    f"rebuilds per point above ceiling {ceiling:.3f} — the "
                    "box pre-test or the flat-buffer scan decayed")
                status = "REBUILDS"
        if kernel == "fast" and stream == "random_walk":
            sqrt_calls = row.get("sqrt_calls", 0)
            if sqrt_calls != 0:
                failures.append(
                    f"micro {key}: {sqrt_calls} sqrt calls on the random "
                    "walk (expected 0) — near-axis ends reach the "
                    "reference composition")
                status = "SQRT"
        if kernel == "fast" and stream == "random_walk" and algorithm == "BQS":
            points = row.get("points", 0)
            decisions = row.get("bound_decisions")
            per_point = (decisions / points if decisions is not None and points
                         else float("inf"))
            note += f"  bound/pt {per_point:6.4f}"
            if per_point > BOUND_DECISION_CEILING:
                failures.append(
                    f"micro {key}: {per_point:.4f} bound decisions per point "
                    f"above ceiling {BOUND_DECISION_CEILING:.3f} — the scan "
                    "phase ends early")
                status = "BOUNDS"
        print(f"{key[0]:>18s} / {algorithm:<5s}/{kernel:<9s} "
              f"fallbacks {fallbacks:4d}{note}  {status}")
    compared += check_yardstick(fresh, fresh_rows, failures)
    return compared


def check_yardstick(fresh, fresh_rows, failures):
    """Check 8 of the micro family. Returns the number of gated rows."""
    yardstick = fresh.get("yardstick")
    if yardstick is None:
        failures.append("micro: no yardstick row (bare exact greedy) in the "
                        "fresh run")
        return 0
    stream = yardstick.get("stream", "random_walk")
    bqs = fresh_rows.get((stream, "BQS", "fast"))
    if bqs is None:
        failures.append(f"micro: no fast BQS row on '{stream}' to hold "
                        "against the yardstick")
        return 0
    status = "ok"
    if not yardstick.get("checksum_matches_bqs", False):
        failures.append(f"micro yardstick on '{stream}': its keys diverged "
                        "from fast BQS's")
        status = "DIVERGED"
    greedy_ms = yardstick.get("best_ms", 0.0)
    ratio = bqs.get("best_ms", float("inf")) / greedy_ms if greedy_ms > 0 \
        else float("inf")
    if ratio > YARDSTICK_RATIO_CEILING:
        failures.append(
            f"micro yardstick on '{stream}': fast BQS took {ratio:.2f}x the "
            f"bare exact greedy's time, above {YARDSTICK_RATIO_CEILING:.2f}x "
            "— per-fix overhead crept back into the scan phase")
        status = "SLOW"
    print(f"{stream:>18s} / greedy/yardstick fast BQS at {ratio:5.2f}x  "
          f"{status}")
    return 1


def check_wal(fresh, baseline, failures):
    """Exactness + density gate over the WAL report's policy rows.
    Returns the number of gated rows."""
    if not fresh.get("all_recovered_exact", False):
        failures.append("wal: a policy's recovery was not bit-exact")

    fresh_rows = {row["name"]: row for row in fresh.get("policies", [])}
    base_rows = {row["name"]: row for row in baseline.get("policies", [])}
    compared = 0
    for name, base_row in sorted(base_rows.items()):
        row = fresh_rows.get(name)
        if row is None:
            failures.append(f"wal policy '{name}': present in baseline but "
                            "missing from the fresh run")
            continue
        compared += 1
        status = "ok"
        if not row.get("recovered_exact", False):
            failures.append(f"wal policy '{name}': recovery not bit-exact")
            status = "NOT EXACT"
        if not row.get("recovery_clean", False):
            failures.append(f"wal policy '{name}': recovery report not "
                            "clean (acked data was lost)")
            status = "NOT CLEAN"
        points = row.get("points", 0)
        base_points = base_row.get("points", 0)
        if points != base_points:
            failures.append(f"wal policy '{name}': workload drifted "
                            f"({points} points vs baseline {base_points}) — "
                            "density comparison would be meaningless")
            status = "DRIFT"
        density = row.get("bytes_per_point", 0.0)
        base_density = base_row.get("bytes_per_point", 0.0)
        if base_density > 0 and density > base_density * WAL_DENSITY_SLACK:
            failures.append(f"wal policy '{name}': bytes_per_point "
                            f"{density:.2f} above baseline {base_density:.2f}"
                            f" x {WAL_DENSITY_SLACK} — codec got less dense")
            status = "DENSITY"
        print(f"{'wal':>18s} / {name:<18s} "
              f"append {row.get('append_points_per_sec', 0.0) / 1e6:8.2f} "
              f"M pts/s  recover "
              f"{row.get('recover_points_per_sec', 0.0) / 1e6:8.2f} M pts/s"
              f"  {density:5.2f} B/pt  {status}")
    return compared


def check_compaction(fresh, baseline, failures):
    """Exactness + density + pruning gate over the compaction report.
    Returns the number of gated fields."""
    compared = 0
    status = "ok"
    for flag in ("recovery_exact", "recovery_clean", "queries_match"):
        compared += 1
        if not fresh.get(flag, False):
            failures.append(f"compaction: {flag} is false — the pipeline "
                            "perturbed acked data")
            status = "NOT EXACT"

    points = fresh.get("points", 0)
    base_points = baseline.get("points", 0)
    compared += 1
    if points != base_points:
        failures.append(f"compaction: workload drifted ({points} points vs "
                        f"baseline {base_points}) — density and pruning "
                        "comparisons would be meaningless")
        status = "DRIFT"

    density = fresh.get("bytes_per_point", 0.0)
    base_density = baseline.get("bytes_per_point", 0.0)
    compared += 1
    if base_density > 0 and density > base_density * WAL_DENSITY_SLACK:
        failures.append(f"compaction: bytes_per_point {density:.2f} above "
                        f"baseline {base_density:.2f} x {WAL_DENSITY_SLACK} "
                        "— columnar codec got less dense")
        status = "DENSITY"

    frac = fresh.get("avg_decoded_block_fraction", 1.0)
    base_frac = baseline.get("avg_decoded_block_fraction", 0.0)
    compared += 1
    if base_frac > 0 and frac > base_frac * COMPACTION_PRUNE_SLACK:
        failures.append(f"compaction: avg_decoded_block_fraction {frac:.3f} "
                        f"above baseline {base_frac:.3f} x "
                        f"{COMPACTION_PRUNE_SLACK} — bbox pruning decayed")
        status = "PRUNING"

    block_us = fresh.get("block_query_us", 0.0)
    scan_us = fresh.get("full_scan_query_us", 0.0)
    compared += 1
    if not 0 < block_us * BLOCK_QUERY_SPEEDUP_FLOOR <= scan_us:
        failures.append(f"compaction: block query {block_us:.1f} us/q is "
                        f"not {BLOCK_QUERY_SPEEDUP_FLOOR}x faster than the "
                        f"full scan's {scan_us:.1f} us/q")
        status = "QUERY"

    noop_first = fresh.get("noop_run_us_first_file", 0.0)
    noop_last = fresh.get("noop_run_us_last_file", float("inf"))
    compared += 1
    if not 0 < noop_last <= noop_first * NOOP_GROWTH_CEILING:
        failures.append(f"compaction: a no-op run costs {noop_last:.1f} us "
                        f"after the last block file, more than "
                        f"{NOOP_GROWTH_CEILING}x its {noop_first:.1f} us "
                        "after the first — no-op runs grow with the store")
        status = "NO-OP GROWTH"

    print(f"{'compaction':>18s} / {'pipeline':<18s} "
          f"compact {fresh.get('compact_points_per_sec', 0.0) / 1e6:8.2f} "
          f"M pts/s  {density:5.2f} B/pt  "
          f"decoded {frac:5.3f}  "
          f"query {scan_us / block_us if block_us > 0 else 0.0:5.2f}x scan  "
          f"no-op {noop_last / noop_first if noop_first > 0 else 0.0:5.2f}x  "
          f"{status}")
    return compared


def check_fleet(fresh, baseline, args, failures):
    if not fresh.get("all_byte_identical", False):
        failures.append(
            "fresh run is not byte-identical to the sequential reference")

    fresh_rows = fleet_rates(fresh)
    base_rows = fleet_rates(baseline)

    # Per-algorithm machine-speed calibration from the in-run CRC32C pass,
    # which runs none of the engine's or the kernel's code. The factor is
    # the fresh host's calibration rate over the baseline's.
    calibration = {}
    if not args.no_normalize:
        fresh_cal = fleet_calibration(fresh)
        base_cal = fleet_calibration(baseline)
        for algo in {a for (a, _) in base_rows}:
            if algo in fresh_cal and algo in base_cal:
                calibration[algo] = base_cal[algo] / fresh_cal[algo]
            else:
                failures.append(
                    f"algorithm '{algo}': no usable calibration pass in "
                    "both files; cannot normalize (use --no-normalize "
                    "only for same-machine runs)")

    # Multi-shard rows need the baseline host's cores to reach its
    # speedups; on a smaller host they are reported only.
    report_only = set()
    base_nproc = baseline.get("nproc")
    fresh_nproc = fresh.get("nproc", 0)
    if base_nproc is not None and fresh_nproc < base_nproc:
        report_only = {key for key, row in base_rows.items()
                       if row.get("shards", 0) > 1}
        print(f"fresh nproc {fresh_nproc} < baseline nproc {base_nproc}: "
              f"{len(report_only)} shards>1 rows reported, not gated")

    compared = gate_rows(fresh_rows, base_rows, calibration, set(),
                         args.tolerance, failures, report_only)
    return (compared + check_service_cost(fresh, failures)
            + check_overload(fresh, baseline, failures))


def check_service_cost(fresh, failures):
    """Re-gate of the fleet report's service cost: every inline /
    shards=1 row's service_ratio must stay at or below
    FLEET_MAX_SERVICE_RATIO. Returns the number of gated rows."""
    ceiling = FLEET_MAX_SERVICE_RATIO
    compared = 0
    for algo in fresh.get("algorithms", []):
        for run in algo.get("runs", []):
            if run.get("shards", 0) > 1:
                continue
            compared += 1
            ratio = run.get("service_ratio", float("inf"))
            ok = ratio <= ceiling
            print(f"{algo['name']:>18s} / {run['config']:<16s} "
                  f"service {run.get('service_ns_per_fix', 0.0):6.2f} "
                  f"ns/fix = {ratio:5.2f}x calibration "
                  f"(ceiling {ceiling:.2f})  "
                  f"{'ok' if ok else 'REGRESSION'}")
            if not ok:
                failures.append(
                    f"({algo['name']}, {run['config']}): service_ratio "
                    f"{ratio:.2f} above the ceiling {ceiling:.2f}")
    return compared


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.70)
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw points_per_sec without the "
                             "calibration-row machine-speed correction")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: cannot load inputs: {e}", file=sys.stderr)
        return 2

    fresh_schema = fresh.get("schema", "")
    base_schema = baseline.get("schema", "")
    if fresh_schema != base_schema:
        print(f"check_perf: schema mismatch: fresh '{fresh_schema}' vs "
              f"baseline '{base_schema}'", file=sys.stderr)
        return 2

    failures = []
    check_scale(fresh, baseline, failures)

    if fresh_schema.startswith(FLEET_SCHEMA_PREFIX):
        compared = check_fleet(fresh, baseline, args, failures)
    elif fresh_schema.startswith(MICRO_SCHEMA_PREFIX):
        compared = check_micro(fresh, baseline, failures)
    elif fresh_schema.startswith(WAL_SCHEMA_PREFIX):
        compared = check_wal(fresh, baseline, failures)
    elif fresh_schema.startswith(COMPACTION_SCHEMA_PREFIX):
        compared = check_compaction(fresh, baseline, failures)
    else:
        compared = check_throughput(fresh, baseline, args, failures)

    if compared == 0:
        failures.append("no comparable rows found")

    if failures:
        print("\ncheck_perf FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\ncheck_perf OK: {compared} rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
