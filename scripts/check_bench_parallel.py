#!/usr/bin/env python3
"""Record / check the parallel-execution records of bench_parallel_batch.

The bench prints one line per workload:

    BENCH_PARALLEL batch_sim {"workerMs": {...}, "speedup8": ...,
                              "identicalResults": true,
                              "hardwareConcurrency": ..., ...}
    BENCH_PARALLEL sample    {...}
    BENCH_PARALLEL portfolio {"overheadVsBestSerial": ..., "agrees": true,
                              ...}

Modes:
  --record OUT    parse bench output from stdin (or --input FILE) and write
                  the records as a JSON baseline file (BENCH_PARALLEL.json).
  --check BASE    parse bench output, validate it, and enforce the scaling
                  gates against the record's own machine:

Hard gates (any machine, any core count):
  * every BENCH_PARALLEL line parses as JSON with the expected fields;
  * identicalResults is true for batch_sim and sample — per-task results
    must be bit-identical for every worker count;
  * the portfolio verdict agrees with both serial directions.

Core-count-gated (a 1-core container cannot exhibit parallel speedup, so
these only fire where the hardware can show them):
  * hardwareConcurrency >= 8: batch_sim speedup8 must reach --min-speedup8
    (default 3.0);
  * hardwareConcurrency >= 2: portfolio overheadVsBestSerial must stay
    under --max-portfolio-overhead (default 1.10, i.e. within 10% of the
    better serial direction).

With --check, the speedup is additionally compared against the baseline:
it must stay above (1 - --max-regression) of the recorded speedup whenever
both runs had >= 8 cores.
"""

import argparse
import json
import sys

REQUIRED_FIELDS = {
    "batch_sim": ("workerMs", "speedup2", "speedup4", "speedup8",
                  "identicalResults", "hardwareConcurrency"),
    "sample": ("workerMs", "speedup2", "speedup4", "speedup8",
               "identicalResults", "hardwareConcurrency"),
    "portfolio": ("serialLrMs", "serialRlMs", "portfolioMs",
                  "overheadVsBestSerial", "agrees", "hardwareConcurrency"),
}


def parse_records(stream):
    """Returns ({label: record}, parse error count)."""
    records = {}
    errors = 0
    for line in stream:
        line = line.strip()
        if not line.startswith("BENCH_PARALLEL "):
            continue
        try:
            _, label, payload = line.split(" ", 2)
            record = json.loads(payload)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"PARSE ERROR in BENCH_PARALLEL line: {exc}\n  {line}",
                  file=sys.stderr)
            errors += 1
            continue
        records[label] = record
    return records, errors


def validate(records):
    """Field presence + machine-independent correctness gates."""
    failures = 0
    for label, fields in REQUIRED_FIELDS.items():
        record = records.get(label)
        if record is None:
            print(f"FAIL: missing BENCH_PARALLEL record '{label}'",
                  file=sys.stderr)
            failures += 1
            continue
        missing = [f for f in fields if f not in record]
        if missing:
            print(f"FAIL: {label}: missing field(s) {missing}",
                  file=sys.stderr)
            failures += 1
    for label in ("batch_sim", "sample"):
        record = records.get(label, {})
        if record.get("identicalResults") is not True:
            print(f"FAIL: {label}: results differ across worker counts "
                  "(determinism contract violated)", file=sys.stderr)
            failures += 1
    if records.get("portfolio", {}).get("agrees") is not True:
        print("FAIL: portfolio verdict disagrees with the serial checkers",
              file=sys.stderr)
        failures += 1
    return failures


def check_scaling(records, min_speedup8, max_portfolio_overhead):
    """Core-count-gated performance gates against the record's own machine."""
    failures = 0
    batch = records.get("batch_sim", {})
    cores = batch.get("hardwareConcurrency", 0)
    if cores >= 8:
        speedup = batch.get("speedup8", 0.0)
        status = "ok" if speedup >= min_speedup8 else "FAIL"
        print(f"  batch_sim: speedup8 {speedup:.2f}x on {cores} cores "
              f"(floor {min_speedup8:.2f}x) {status}")
        if speedup < min_speedup8:
            failures += 1
    else:
        print(f"  batch_sim: {cores} core(s) — speedup8 gate skipped "
              "(needs >= 8 cores)")

    portfolio = records.get("portfolio", {})
    cores = portfolio.get("hardwareConcurrency", 0)
    if cores >= 2:
        overhead = portfolio.get("overheadVsBestSerial", 0.0)
        status = "ok" if overhead <= max_portfolio_overhead else "FAIL"
        print(f"  portfolio: overhead {overhead:.2f}x on {cores} cores "
              f"(ceiling {max_portfolio_overhead:.2f}x) {status}")
        if overhead > max_portfolio_overhead:
            failures += 1
    else:
        print(f"  portfolio: {cores} core(s) — overhead gate skipped "
              "(needs >= 2 cores)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="OUT",
                      help="write parsed BENCH_PARALLEL records to OUT")
    mode.add_argument("--check", metavar="BASELINE",
                      help="validate records and compare against a baseline")
    parser.add_argument("--input", default="-",
                        help="bench output file (default: stdin)")
    parser.add_argument("--min-speedup8", type=float, default=3.0,
                        help="batch speedup floor at 8 workers on >= 8 "
                             "cores (default 3.0)")
    parser.add_argument("--max-portfolio-overhead", type=float, default=1.10,
                        help="portfolio wall-time ceiling relative to the "
                             "better serial direction on >= 2 cores "
                             "(default 1.10)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed relative speedup loss vs the baseline "
                             "(default 0.25)")
    args = parser.parse_args()

    stream = sys.stdin if args.input == "-" else open(args.input)
    with stream:
        records, errors = parse_records(stream)
    if errors:
        print(f"FAIL: {errors} malformed BENCH_PARALLEL record(s)",
              file=sys.stderr)
        return 1
    if not records:
        print("FAIL: no BENCH_PARALLEL records found in input",
              file=sys.stderr)
        return 1

    failures = validate(records)
    if failures:
        print(f"FAIL: {failures} validation failure(s)", file=sys.stderr)
        return 1

    if args.record:
        with open(args.record, "w") as out:
            json.dump({"records": records}, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"wrote {len(records)} BENCH_PARALLEL record(s) to "
              f"{args.record}")
        return 0

    failures = check_scaling(records, args.min_speedup8,
                             args.max_portfolio_overhead)

    with open(args.check) as f:
        baseline = json.load(f)["records"]
    base_batch = baseline.get("batch_sim", {})
    cur_batch = records.get("batch_sim", {})
    if (base_batch.get("hardwareConcurrency", 0) >= 8
            and cur_batch.get("hardwareConcurrency", 0) >= 8):
        current = cur_batch.get("speedup8", 0.0)
        expected = base_batch.get("speedup8", 0.0)
        floor = expected * (1.0 - args.max_regression)
        status = "ok" if current >= floor else "REGRESSION"
        print(f"  batch_sim: speedup8 {current:.2f}x vs baseline "
              f"{expected:.2f}x (floor {floor:.2f}x) {status}")
        if current < floor:
            failures += 1
    else:
        print("  baseline comparison skipped (needs >= 8 cores on both "
              "machines)")

    if failures:
        print(f"FAIL: {failures} scaling gate(s) failed", file=sys.stderr)
        return 1
    print("OK: all applicable parallel gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
