#!/usr/bin/env python3
"""Record / check the apply-path ablation emitted by bench_fig8_simulation.

The bench prints one line per workload:

    BENCH_APPLY <label> {"n": ..., "fastMs": ..., "generalMs": ...,
                         "speedupFastVsGeneral": ..., ...}

Modes:
  --record OUT    parse bench output from stdin (or --input FILE) and write
                  the records as a JSON baseline file.
  --check BASE    parse bench output and compare each record against the
                  committed baseline; exit nonzero if any shared label
                  regressed by more than --max-regression (default 0.25,
                  i.e. current speedup must stay above 75% of the baseline
                  speedup). Gated columns: speedupFastVsGeneral (floor vs
                  baseline AND an absolute floor of 1.0: the direct apply
                  path must never lose to the general multiply it
                  replaces), peakNodes / stripPeakNodes (at most
                  baseline * (1 + --max-regression)), and for funcbuild
                  records nodeReduction (floor vs baseline AND an absolute
                  floor of 2.0: identity-skipping must keep at least a 2x
                  gate-DD node reduction against the materialized count).

Either mode also validates that every BENCH_APPLY / BENCH_STATS /
BENCH_PROFILE line in the input parses as JSON, so malformed records fail CI
even when the timing is fine.
"""

import argparse
import json
import sys


BENCH_PREFIXES = ("BENCH_APPLY", "BENCH_STATS", "BENCH_PROFILE")


def parse_records(stream):
    """Returns ({label: record} for BENCH_APPLY lines, parse error count)."""
    apply_records = {}
    errors = 0
    for line in stream:
        line = line.strip()
        prefix = next((p for p in BENCH_PREFIXES if line.startswith(p + " ")),
                      None)
        if prefix is None:
            continue
        try:
            _, label, payload = line.split(" ", 2)
            record = json.loads(payload)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"PARSE ERROR in {prefix} line: {exc}\n  {line}",
                  file=sys.stderr)
            errors += 1
            continue
        if prefix == "BENCH_APPLY":
            apply_records[label] = record
    return apply_records, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="OUT",
                      help="write parsed BENCH_APPLY records to OUT")
    mode.add_argument("--check", metavar="BASELINE",
                      help="compare records against a committed baseline")
    parser.add_argument("--input", default="-",
                        help="bench output file (default: stdin)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed relative speedup loss (default 0.25)")
    args = parser.parse_args()

    stream = sys.stdin if args.input == "-" else open(args.input)
    with stream:
        records, errors = parse_records(stream)
    if errors:
        print(f"FAIL: {errors} malformed BENCH_* record(s)", file=sys.stderr)
        return 1
    if not records:
        print("FAIL: no BENCH_APPLY records found in input", file=sys.stderr)
        return 1

    if args.record:
        with open(args.record, "w") as out:
            json.dump({"records": records}, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"wrote {len(records)} BENCH_APPLY record(s) to {args.record}")
        return 0

    with open(args.check) as f:
        baseline = json.load(f)["records"]
    failures = 0
    compared = 0
    for label, record in sorted(records.items()):
        base = baseline.get(label)
        if base is None:
            print(f"  {label}: no baseline entry, skipping")
            continue
        compared += 1

        def gate_floor(key, unit="x"):
            """current must stay above baseline * (1 - max_regression)."""
            if key not in record or key not in base:
                return 0
            current, expected = record[key], base[key]
            floor = expected * (1.0 - args.max_regression)
            ok = current >= floor
            print(f"  {label}: {key} {current:.2f}{unit} vs baseline "
                  f"{expected:.2f}{unit} (floor {floor:.2f}{unit}) "
                  f"{'ok' if ok else 'REGRESSION'}")
            return 0 if ok else 1

        def gate_ceiling(key):
            """current must stay below baseline * (1 + max_regression)."""
            if key not in record or key not in base:
                return 0
            current, expected = record[key], base[key]
            ceiling = expected * (1.0 + args.max_regression)
            ok = current <= ceiling
            print(f"  {label}: {key} {current} vs baseline {expected} "
                  f"(ceiling {ceiling:.0f}) {'ok' if ok else 'REGRESSION'}")
            return 0 if ok else 1

        failures += gate_floor("speedupFastVsGeneral")
        if record.get("speedupFastVsGeneral", 1.0) < 1.0:
            # The direct apply path must never lose to the general
            # matrix-vector multiply it replaces, no matter what the
            # recorded baseline says.
            print(f"  {label}: speedupFastVsGeneral "
                  f"{record['speedupFastVsGeneral']:.2f}x below the "
                  f"absolute 1.0x fast-path floor REGRESSION")
            failures += 1
        failures += gate_ceiling("peakNodes")
        failures += gate_ceiling("stripPeakNodes")
        if "nodeReduction" in record:
            failures += gate_floor("nodeReduction")
            if record["nodeReduction"] < 2.0:
                print(f"  {label}: nodeReduction "
                      f"{record['nodeReduction']:.2f}x below the absolute "
                      f"2.0x identity-skipping floor REGRESSION")
                failures += 1
    if compared == 0:
        print("FAIL: no records matched the baseline labels",
              file=sys.stderr)
        return 1
    if failures:
        print(f"FAIL: {failures} workload(s) regressed more than "
              f"{args.max_regression:.0%} vs {args.check}", file=sys.stderr)
        return 1
    print(f"OK: {compared} workload(s) within {args.max_regression:.0%} of "
          f"baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
