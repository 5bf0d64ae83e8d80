#!/usr/bin/env python3
"""Record / check the HTTP-service throughput records of bench_service.

The bench prints an in-process document phase, two tracing phases, one
line per client count (against the epoll reactor), an idle-session spill
phase, and a summary:

    BENCH_SERVICE document {"steps": 2000, "errors": 0,
                            "dispatchP50Us": ..., "engineP50Us": ...,
                            "overheadRatio": ..., ...}
    BENCH_SERVICE tracing_off {"clients": 1, "requests": ..., "errors": 0,
                               "rps": ..., "p50Ms": ..., "p95Ms": ...,
                               "hardwareConcurrency": ..., ...}
    BENCH_SERVICE tracing_on  {...}
    BENCH_SERVICE steps_c1 {...}               (epoll reactor)
    BENCH_SERVICE steps_c4 {...}
    BENCH_SERVICE steps_c8 {...}
    BENCH_SERVICE steps_c16 {...}
    BENCH_SERVICE steps_c64 {...}
    BENCH_SERVICE idle_spill {"sessions": 10000, "spilled": ...,
                              "rssPerIdleSessionBytes": ...,
                              "restoreTouches": ..., "errors": 0, ...}
    BENCH_SERVICE summary  {"totalRequests": ..., "errors": 0,
                            "serverRequests": ..., "scale4": ...,
                            "scale8": ..., "scale64": ..., ...}

Modes:
  --record OUT    parse bench output from stdin (or --input FILE) and write
                  the records as a JSON baseline file (BENCH_SERVICE.json).
  --check BASE    parse bench output, validate it, and enforce the gates.

Hard gates (any machine, any core count):
  * every BENCH_SERVICE line parses as JSON with the expected fields;
  * errors is 0 everywhere — the server never dropped or mangled a request;
  * latency percentiles are sane (0 < p50 <= p95);
  * serverRequests >= totalRequests — the server-side request counter saw
    every client-side request (drift means lost accounting);
  * document cost: the GHZ-8 step requests of the document phase were
    answered without error, and the median dispatch time exceeds the
    median engine time of the same steps by at most MAX_DOCUMENT_OVERHEAD
    (10) times the engine time: overheadRatio =
    (dispatchP50Us - engineP50Us) / engineP50Us. Both medians come from the
    same requests on the same machine, so this gate applies everywhere.
  * tracing overhead: the tracing-on single-client p50 stays within
    --max-tracing-overhead (default 10%) of the tracing-off p50, plus a
    0.05 ms absolute slack so micro-jitter on sub-millisecond requests
    does not flip the gate. Both phases come from the same run on the
    same machine, so this gate applies everywhere.
  * idle spill: every created idle session was spilled to disk with zero
    errors and every restore touch succeeded — everywhere, including
    --quick. Where the bench could measure RSS (Linux /proc/self/statm),
    full-fleet (10k-session) runs additionally gate the resident cost per
    spilled idle session under --max-idle-rss bytes (default 4096); the
    --quick 1.5k fleet skips only the ceiling, since fixed process
    overhead dominates the per-session figure at that scale.

Core-count-gated (a 1-core container serializes everything, so throughput
scaling only gates where the hardware can show it):
  * hardwareConcurrency >= 8: scale8 (rps at 8 clients / rps at 1 client)
    must reach --min-scale8 (default 2.0);
  * with --check, rps at 1 client must additionally stay above
    (1 - --max-regression) of the baseline's, whenever both runs had the
    same core count and at least 2 cores (on a 1-core container the client
    threads and server workers oversubscribe the same core, so absolute
    rps is scheduling noise — the correctness gates still run there).
"""

import argparse
import json
import sys

RUN_FIELDS = ("clients", "requests", "errors", "rps", "p50Ms", "p95Ms",
              "hardwareConcurrency")
SUMMARY_FIELDS = ("totalRequests", "errors", "serverRequests", "scale4",
                  "scale8", "scale64", "hardwareConcurrency")
RUN_LABELS = ("tracing_off", "tracing_on", "steps_c1", "steps_c4",
              "steps_c8", "steps_c16", "steps_c64")
SPILL_FIELDS = ("sessions", "spilled", "rssPerIdleSessionBytes",
                "restoreTouches", "errors")
DOCUMENT_FIELDS = ("steps", "errors", "dispatchP50Us", "engineP50Us",
                   "overheadRatio")
MIN_DOCUMENT_STEPS = 1000
MAX_DOCUMENT_OVERHEAD = 10.0

TRACING_SLACK_MS = 0.05


def parse_records(stream):
    """Returns ({label: record}, parse error count)."""
    records = {}
    errors = 0
    for line in stream:
        line = line.strip()
        if not line.startswith("BENCH_SERVICE "):
            continue
        try:
            _, label, payload = line.split(" ", 2)
            record = json.loads(payload)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"PARSE ERROR in BENCH_SERVICE line: {exc}\n  {line}",
                  file=sys.stderr)
            errors += 1
            continue
        records[label] = record
    return records, errors


def validate(records):
    """Field presence + machine-independent correctness gates."""
    failures = 0
    for label in RUN_LABELS:
        record = records.get(label)
        if record is None:
            print(f"FAIL: missing BENCH_SERVICE record '{label}'",
                  file=sys.stderr)
            failures += 1
            continue
        missing = [f for f in RUN_FIELDS if f not in record]
        if missing:
            print(f"FAIL: {label}: missing field(s) {missing}",
                  file=sys.stderr)
            failures += 1
            continue
        if record["errors"] != 0:
            print(f"FAIL: {label}: {record['errors']} failed request(s)",
                  file=sys.stderr)
            failures += 1
        if not (0 < record["p50Ms"] <= record["p95Ms"]):
            print(f"FAIL: {label}: latency percentiles not sane "
                  f"(p50 {record['p50Ms']}, p95 {record['p95Ms']})",
                  file=sys.stderr)
            failures += 1

    spill = records.get("idle_spill")
    if spill is None:
        print("FAIL: missing BENCH_SERVICE record 'idle_spill'",
              file=sys.stderr)
        failures += 1
    else:
        missing = [f for f in SPILL_FIELDS if f not in spill]
        if missing:
            print(f"FAIL: idle_spill: missing field(s) {missing}",
                  file=sys.stderr)
            failures += 1
        else:
            if spill["errors"] != 0:
                print(f"FAIL: idle_spill: {spill['errors']} error(s) "
                      "(failed create, touch, or restore)", file=sys.stderr)
                failures += 1
            if spill["spilled"] <= 0:
                print("FAIL: idle_spill: no sessions were spilled to disk",
                      file=sys.stderr)
                failures += 1
            if spill["restoreTouches"] <= 0:
                print("FAIL: idle_spill: no spilled session was ever "
                      "restored", file=sys.stderr)
                failures += 1

    document = records.get("document")
    if document is None:
        print("FAIL: missing BENCH_SERVICE record 'document'",
              file=sys.stderr)
        failures += 1
    else:
        missing = [f for f in DOCUMENT_FIELDS if f not in document]
        if missing:
            print(f"FAIL: document: missing field(s) {missing}",
                  file=sys.stderr)
            failures += 1
        else:
            if document["errors"] != 0:
                print(f"FAIL: document: {document['errors']} failed step "
                      "request(s)", file=sys.stderr)
                failures += 1
            if document["steps"] < MIN_DOCUMENT_STEPS:
                print(f"FAIL: document: {document['steps']} steps, fewer "
                      f"than {MIN_DOCUMENT_STEPS}", file=sys.stderr)
                failures += 1
            if document["engineP50Us"] <= 0:
                print("FAIL: document: no engine time reported",
                      file=sys.stderr)
                failures += 1

    summary = records.get("summary")
    if summary is None:
        print("FAIL: missing BENCH_SERVICE record 'summary'",
              file=sys.stderr)
        return failures + 1
    missing = [f for f in SUMMARY_FIELDS if f not in summary]
    if missing:
        print(f"FAIL: summary: missing field(s) {missing}", file=sys.stderr)
        return failures + 1
    if summary["errors"] != 0:
        print(f"FAIL: summary: {summary['errors']} failed request(s)",
              file=sys.stderr)
        failures += 1
    if summary["serverRequests"] < summary["totalRequests"]:
        print(f"FAIL: server accounted {summary['serverRequests']} requests "
              f"but clients issued {summary['totalRequests']}",
              file=sys.stderr)
        failures += 1
    return failures


def check_tracing_overhead(records, max_overhead):
    """Tracing-on p50 vs tracing-off p50, same run, same machine."""
    off = records.get("tracing_off", {})
    on = records.get("tracing_on", {})
    p50_off = off.get("p50Ms", 0.0)
    p50_on = on.get("p50Ms", 0.0)
    ceiling = p50_off * (1.0 + max_overhead) + TRACING_SLACK_MS
    status = "ok" if p50_on <= ceiling else "FAIL"
    print(f"  tracing: p50 on {p50_on:.4f} ms vs off {p50_off:.4f} ms "
          f"(ceiling {ceiling:.4f}) {status}")
    return 0 if p50_on <= ceiling else 1


def check_document_overhead(records, max_ratio):
    """Response-document time per unit of engine time, same requests."""
    document = records.get("document", {})
    ratio = document.get("overheadRatio")
    if ratio is None:
        return 0  # validate() already failed the missing record
    status = "ok" if ratio <= max_ratio else "FAIL"
    print(f"  document: dispatch p50 {document.get('dispatchP50Us', 0):.2f} "
          f"us, engine p50 {document.get('engineP50Us', 0):.2f} us, "
          f"(dispatch - engine) / engine {ratio:.2f} (ceiling "
          f"{max_ratio:.2f}) {status}")
    return 0 if ratio <= max_ratio else 1


def check_idle_rss(records, max_idle_rss):
    """Resident bytes per spilled idle session, where measurable.

    Fixed process overhead (allocator arenas retained from the create
    burst) only amortizes over the full 10k fleet — the --quick 1.5k
    fleet reads several KiB/session of pure fixed cost — so the ceiling
    gates full-fleet runs, which includes every --record.
    """
    spill = records.get("idle_spill", {})
    per_session = spill.get("rssPerIdleSessionBytes", 0.0)
    sessions = spill.get("sessions", 0)
    if per_session <= 0:
        print("  idle rss: not measurable on this platform — gate skipped")
        return 0
    if sessions < 10000:
        print(f"  idle rss: {per_session:.1f} bytes/spilled session at "
              f"{sessions} sessions — ceiling skipped (fixed overhead "
              "only amortizes over the full 10k fleet)")
        return 0
    status = "ok" if per_session <= max_idle_rss else "FAIL"
    print(f"  idle rss: {per_session:.1f} bytes/spilled session "
          f"(ceiling {max_idle_rss:.0f}) {status}")
    return 0 if per_session <= max_idle_rss else 1


def check_scaling(records, min_scale8):
    """Core-count-gated throughput gates against this machine."""
    failures = 0
    summary = records.get("summary", {})
    cores = summary.get("hardwareConcurrency", 0)
    if cores >= 8:
        scale8 = summary.get("scale8", 0.0)
        status = "ok" if scale8 >= min_scale8 else "FAIL"
        print(f"  steps: scale8 {scale8:.2f}x on {cores} cores "
              f"(floor {min_scale8:.2f}x) {status}")
        if scale8 < min_scale8:
            failures += 1
    else:
        print(f"  steps: {cores} core(s) — scale8 gate skipped "
              "(needs >= 8 cores)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="OUT",
                      help="write parsed BENCH_SERVICE records to OUT")
    mode.add_argument("--check", metavar="BASELINE",
                      help="validate records and compare against a baseline")
    parser.add_argument("--input", default="-",
                        help="bench output file (default: stdin)")
    parser.add_argument("--min-scale8", type=float, default=2.0,
                        help="throughput scaling floor at 8 clients on >= 8 "
                             "cores (default 2.0)")
    parser.add_argument("--max-regression", type=float, default=0.5,
                        help="allowed relative single-client rps loss vs the "
                             "baseline when core counts match (default 0.5)")
    parser.add_argument("--max-tracing-overhead", type=float, default=0.10,
                        help="allowed relative p50 latency cost of request "
                             "tracing (default 0.10 = 10%%)")
    parser.add_argument("--max-idle-rss", type=float, default=4096.0,
                        help="resident-byte ceiling per spilled idle session "
                             "(default 4096)")
    args = parser.parse_args()

    stream = sys.stdin if args.input == "-" else open(args.input)
    with stream:
        records, errors = parse_records(stream)
    if errors:
        print(f"FAIL: {errors} malformed BENCH_SERVICE record(s)",
              file=sys.stderr)
        return 1
    if not records:
        print("FAIL: no BENCH_SERVICE records found in input",
              file=sys.stderr)
        return 1

    failures = validate(records)
    failures += check_document_overhead(records, MAX_DOCUMENT_OVERHEAD)
    failures += check_tracing_overhead(records, args.max_tracing_overhead)
    failures += check_idle_rss(records, args.max_idle_rss)
    if failures:
        print(f"FAIL: {failures} validation failure(s)", file=sys.stderr)
        return 1

    if args.record:
        with open(args.record, "w") as out:
            json.dump({"records": records}, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"wrote {len(records)} BENCH_SERVICE record(s) to "
              f"{args.record}")
        return 0

    failures = check_scaling(records, args.min_scale8)

    with open(args.check) as f:
        baseline = json.load(f)["records"]
    base = baseline.get("steps_c1", {})
    cur = records.get("steps_c1", {})
    base_cores = base.get("hardwareConcurrency", 0)
    if base_cores >= 2 and base_cores == cur.get("hardwareConcurrency", -1):
        current = cur.get("rps", 0.0)
        expected = base.get("rps", 0.0)
        floor = expected * (1.0 - args.max_regression)
        status = "ok" if current >= floor else "REGRESSION"
        print(f"  steps_c1: {current:.1f} rps vs baseline {expected:.1f} rps "
              f"(floor {floor:.1f}) {status}")
        if current < floor:
            failures += 1
    else:
        print("  baseline rps comparison skipped (needs matching core "
              "counts on >= 2 cores)")

    if failures:
        print(f"FAIL: {failures} service gate(s) failed", file=sys.stderr)
        return 1
    print("OK: all applicable service gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
