#!/usr/bin/env python3
"""Record / check the cache-layout microbenchmarks emitted by bench_layout.

The bench prints one line per probe:

    BENCH_LAYOUT <label> {"nsPerOp": ..., "vNodeBytes": ..., ...}

Record mode freezes a comparison between the seed build (pre layout work)
and the current build, both measured on the same machine. Pass each bench
output file once per run; with several runs per side the per-metric minimum
is taken, which suppresses frequency-state noise:

    check_bench_layout.py --record BENCH_LAYOUT.json \
        --seed seed_run1.txt --seed seed_run2.txt \
        --input post_run1.txt --input post_run2.txt

Check mode replays a fresh bench output against the committed baseline.
Two gate classes:

  * Machine-independent gates (always enforced — they hold on any host):
      - node geometry is exact: vNode 64 B / 64 B aligned, mNode 128 B /
        64 B aligned;
      - deterministic work counters from the QFT-14 probe match the
        baseline: multiply2Calls and uniqueLookups exactly, realLookups at
        most the recorded value (the canonical fast paths must keep eliding
        RealTable walks), maxProbeLength at most OPEN_ADDRESS_PROBE_CEILING;
      - the recorded speedup arithmetic is internally consistent and the
        recorded geomean clears MIN_GEOMEAN_SPEEDUP.
  * Timing gates (only with --strict, for runs on the recording host):
      - each timing metric stays within --max-regression of the recorded
        current-build time.
"""

import argparse
import json
import math
import sys


TIMING_METRICS = [
    ("multiply_cached_ghz32", "nsPerOp"),
    ("add_cached_32", "nsPerOp"),
    ("multiply_qft_14", "nsPerMultiply2"),
    ("add_uncached_12", "nsPerNodePair"),
]

# The layout work packs vNode into one cache line and mNode into two; any
# other size means the packing regressed.
NODE_GEOMETRY = {
    "vNodeBytes": 64,
    "vNodeAlign": 64,
    "mNodeBytes": 128,
    "mNodeAlign": 64,
}

# The open-addressed unique table resizes at 50% load; probe chains beyond
# this bound mean the hash or the resize policy regressed.
OPEN_ADDRESS_PROBE_CEILING = 16

# Tentpole target: geometric mean over the four timing metrics, seed build
# vs current build on the same container.
MIN_GEOMEAN_SPEEDUP = 1.3


def parse_records(path):
    records = {}
    errors = 0
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if not line.startswith("BENCH_LAYOUT "):
                continue
            try:
                _, label, payload = line.split(" ", 2)
                records[label] = json.loads(payload)
            except (ValueError, json.JSONDecodeError) as exc:
                print(f"PARSE ERROR in BENCH_LAYOUT line: {exc}\n  {line}",
                      file=sys.stderr)
                errors += 1
    return records, errors


def best_of(paths):
    """Merges several runs: timing metrics take the minimum, probe lengths
    the maximum (node addresses vary with ASLR, so the pointer-hash probe
    chains do too), everything else must agree (deterministic)."""
    merged = {}
    errors = 0
    timing_keys = {(label, key) for label, key in TIMING_METRICS}
    timing_keys.add(("add_uncached_12", "nsPerOp"))
    timing_keys.add(("multiply_qft_14", "ms"))
    timing_keys.add(("multiply_qft_14", "nsPerGate"))
    probe_keys = {"avgProbeLength", "maxProbeLength"}
    for path in paths:
        records, errs = parse_records(path)
        errors += errs
        for label, record in records.items():
            record = {k: v for k, v in record.items() if k != "resources"}
            if label not in merged:
                merged[label] = dict(record)
                continue
            for key, value in record.items():
                if (label, key) in timing_keys:
                    merged[label][key] = min(merged[label][key], value)
                elif key in probe_keys:
                    merged[label][key] = max(merged[label][key], value)
                elif merged[label].get(key) != value:
                    print(f"NONDETERMINISM: {label}.{key} = "
                          f"{merged[label].get(key)} vs {value} across runs",
                          file=sys.stderr)
                    errors += 1
    return merged, errors


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def record_baseline(args):
    seed, errs_a = best_of(args.seed)
    current, errs_b = best_of(args.input)
    if errs_a or errs_b:
        return 1
    speedups = {}
    for label, key in TIMING_METRICS:
        seed_ns = seed[label][key]
        cur_ns = current[label][key]
        speedups[label] = {
            "metric": key,
            "seedNs": seed_ns,
            "currentNs": cur_ns,
            "speedup": round(seed_ns / cur_ns, 4),
        }
    gm = round(geomean([s["speedup"] for s in speedups.values()]), 4)
    baseline = {
        "note": ("seed build vs current build, interleaved best-of runs on "
                 "one container; regenerate with --record on timing-relevant "
                 "changes"),
        "seed": seed,
        "current": current,
        "speedups": speedups,
        "geomeanSpeedup": gm,
    }
    with open(args.record, "w") as out:
        json.dump(baseline, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"wrote {args.record}: geomean speedup {gm:.3f}x over "
          f"{len(speedups)} metrics")
    return 0


def check_baseline(args):
    with open(args.check) as f:
        baseline = json.load(f)
    current, errors = best_of(args.input)
    failures = 0

    def fail(msg):
        nonlocal failures
        print(f"  REGRESSION: {msg}")
        failures += 1

    def ok(msg):
        print(f"  ok: {msg}")

    # --- machine-independent gates --------------------------------------
    layout = current.get("node_layout")
    if layout is None:
        fail("no node_layout record in bench output")
    else:
        for key, want in NODE_GEOMETRY.items():
            if layout.get(key) != want:
                fail(f"node_layout.{key} = {layout.get(key)}, want {want}")
            else:
                ok(f"node_layout.{key} = {want}")

    qft = current.get("multiply_qft_14")
    qft_base = baseline["current"].get("multiply_qft_14", {})
    if qft is None:
        fail("no multiply_qft_14 record in bench output")
    else:
        for key in ("multiply2Calls", "uniqueLookups"):
            if qft.get(key) != qft_base.get(key):
                fail(f"multiply_qft_14.{key} = {qft.get(key)}, baseline "
                     f"{qft_base.get(key)} (deterministic counter)")
            else:
                ok(f"multiply_qft_14.{key} = {qft.get(key)}")
        if qft.get("realLookups", 0) > qft_base.get("realLookups", 0):
            fail(f"multiply_qft_14.realLookups = {qft.get('realLookups')}, "
                 f"baseline {qft_base.get('realLookups')} — canonical fast "
                 f"paths stopped eliding RealTable walks")
        else:
            ok(f"multiply_qft_14.realLookups = {qft.get('realLookups')} <= "
               f"{qft_base.get('realLookups')}")
        if qft.get("maxProbeLength", 0) > OPEN_ADDRESS_PROBE_CEILING:
            fail(f"multiply_qft_14.maxProbeLength = "
                 f"{qft.get('maxProbeLength')} > ceiling "
                 f"{OPEN_ADDRESS_PROBE_CEILING}")
        else:
            ok(f"multiply_qft_14.maxProbeLength = "
               f"{qft.get('maxProbeLength')} <= "
               f"{OPEN_ADDRESS_PROBE_CEILING}")

    # Recorded-arithmetic validation: the committed speedups must be
    # self-consistent and clear the tentpole floor.
    recorded = []
    for label, key in TIMING_METRICS:
        entry = baseline["speedups"].get(label)
        if entry is None:
            fail(f"baseline has no speedup entry for {label}")
            continue
        derived = entry["seedNs"] / entry["currentNs"]
        if abs(derived - entry["speedup"]) > 1e-3:
            fail(f"{label}: recorded speedup {entry['speedup']} != "
                 f"seedNs/currentNs = {derived:.4f}")
        recorded.append(entry["speedup"])
    if recorded:
        gm = geomean(recorded)
        if abs(gm - baseline.get("geomeanSpeedup", 0.0)) > 1e-3:
            fail(f"recorded geomeanSpeedup {baseline.get('geomeanSpeedup')} "
                 f"!= derived {gm:.4f}")
        elif gm < MIN_GEOMEAN_SPEEDUP:
            fail(f"recorded geomean speedup {gm:.3f}x below the "
                 f"{MIN_GEOMEAN_SPEEDUP}x tentpole floor")
        else:
            ok(f"recorded geomean speedup {gm:.3f}x >= "
               f"{MIN_GEOMEAN_SPEEDUP}x")

    # --- timing gates (recording host only) -----------------------------
    if args.strict:
        for label, key in TIMING_METRICS:
            cur = current.get(label, {}).get(key)
            base = baseline["current"].get(label, {}).get(key)
            if cur is None or base is None:
                fail(f"{label}.{key} missing from bench output or baseline")
                continue
            ceiling = base * (1.0 + args.max_regression)
            if cur > ceiling:
                fail(f"{label}.{key} = {cur:.2f} ns vs recorded "
                     f"{base:.2f} ns (ceiling {ceiling:.2f})")
            else:
                ok(f"{label}.{key} = {cur:.2f} ns <= {ceiling:.2f} ns")
    else:
        print("  (timing gates skipped; pass --strict on the recording "
              "host)")

    if errors or failures:
        print(f"FAIL: {errors} parse error(s), {failures} gate failure(s)",
              file=sys.stderr)
        return 1
    print("OK: all layout gates passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="OUT",
                      help="write a seed-vs-current baseline JSON")
    mode.add_argument("--check", metavar="BASELINE",
                      help="validate bench output against the baseline")
    parser.add_argument("--input", action="append", default=[],
                        help="current-build bench output (repeatable)")
    parser.add_argument("--seed", action="append", default=[],
                        help="seed-build bench output (record mode, "
                             "repeatable)")
    parser.add_argument("--strict", action="store_true",
                        help="also enforce wall-clock gates (same host as "
                             "the recording)")
    parser.add_argument("--max-regression", type=float, default=0.5,
                        help="allowed relative slowdown vs the recorded "
                             "times in --strict mode (default 0.5)")
    args = parser.parse_args()
    if not args.input:
        parser.error("at least one --input file is required")
    if args.record and not args.seed:
        parser.error("--record requires at least one --seed file")
    return record_baseline(args) if args.record else check_baseline(args)


if __name__ == "__main__":
    sys.exit(main())
