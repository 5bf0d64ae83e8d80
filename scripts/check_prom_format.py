#!/usr/bin/env python3
"""Validates Prometheus text exposition scraped from /metrics?fmt=prom.

Usage: check_prom_format.py <exposition.txt>   (or '-' for stdin)

Checks, line by line:
  * every line is a comment (# HELP / # TYPE), a sample, or blank;
  * metric names match the Prometheus grammar;
  * every sample belongs to a family announced by a # TYPE line;
  * HELP/TYPE lines precede the family's first sample;
  * label lists parse ("name=\"value\"" pairs, escaped values);
  * sample values parse as floats (or +Inf/-Inf/NaN);
  * histogram families come as _bucket/_sum/_count triplets whose `le`
    buckets increase, whose cumulative counts are non-decreasing, and whose
    last bucket is le="+Inf" matching _count;
  * the families the qdd service always exposes are present.

Exit code 0 when the exposition is valid, 1 otherwise.
"""

import math
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$"
)

REQUIRED_FAMILIES = [
    "qdd_http_requests_total",
    "qdd_http_responses_total",
    "qdd_http_request_duration_seconds",
    "qdd_sessions_live",
    "qdd_sessions_capacity",
    "qdd_dd_unique_table_entries",
    "qdd_dd_unique_table_probe_length_avg",
    "qdd_dd_unique_table_probe_length_max",
    "qdd_dd_unique_table_hit_ratio",
    "qdd_dd_compute_hit_ratio",
    "qdd_incidents_total",
    "qdd_net_open_connections",
    "qdd_service_sessions_resident",
    "qdd_service_sessions_spilled",
    "qdd_service_sessions_spilled_total",
    "qdd_service_session_restores_total",
    "qdd_service_session_restore_failures_total",
    "qdd_service_spill_bytes_total",
]


def fail(lineno, line, message):
    sys.stderr.write(f"INVALID line {lineno}: {message}\n  {line}\n")
    sys.exit(1)


def parse_labels(lineno, line, raw):
    """Returns the label dict of one rendered label list."""
    labels = {}
    pos = 0
    while pos < len(raw):
        eq = raw.find("=", pos)
        if eq < 0:
            fail(lineno, line, "label without '='")
        name = raw[pos:eq]
        if not LABEL_NAME.match(name):
            fail(lineno, line, f"bad label name {name!r}")
        if eq + 1 >= len(raw) or raw[eq + 1] != '"':
            fail(lineno, line, "label value not quoted")
        value = []
        i = eq + 2
        while i < len(raw) and raw[i] != '"':
            if raw[i] == "\\":
                if i + 1 >= len(raw) or raw[i + 1] not in '\\"n':
                    fail(lineno, line, "bad escape in label value")
                value.append({"\\": "\\", '"': '"', "n": "\n"}[raw[i + 1]])
                i += 2
            else:
                value.append(raw[i])
                i += 1
        if i >= len(raw):
            fail(lineno, line, "unterminated label value")
        labels[name] = "".join(value)
        pos = i + 1
        if pos < len(raw):
            if raw[pos] != ",":
                fail(lineno, line, "expected ',' between labels")
            pos += 1
    return labels


def parse_value(lineno, line, raw):
    if raw in ("+Inf", "Inf"):
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        fail(lineno, line, f"unparsable value {raw!r}")


def family_of(name, types):
    """Maps a sample name to its announced family (histogram suffixes)."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(f"usage: {sys.argv[0]} <exposition.txt|->\n")
        return 2
    if sys.argv[1] == "-":
        text = sys.stdin.read()
    else:
        with open(sys.argv[1], encoding="utf-8") as f:
            text = f.read()

    types = {}  # family -> type
    helped = set()
    samples = []  # (lineno, line, name, labels, value)
    seen_sample_of = set()

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(lineno, line, "comment is neither # HELP nor # TYPE")
            name = parts[2]
            if not METRIC_NAME.match(name):
                fail(lineno, line, f"bad metric name {name!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    fail(lineno, line, "bad TYPE line")
                if name in types:
                    fail(lineno, line, f"duplicate TYPE for {name}")
                if name in seen_sample_of:
                    fail(lineno, line, f"TYPE after samples of {name}")
                types[name] = parts[3]
            else:
                helped.add(name)
            continue
        m = SAMPLE.match(line)
        if not m:
            fail(lineno, line, "not a valid sample line")
        name = m.group("name")
        family = family_of(name, types)
        if family is None:
            fail(lineno, line, f"sample {name!r} has no # TYPE line")
        seen_sample_of.add(family)
        labels = parse_labels(lineno, line, m.group("labels") or "")
        value = parse_value(lineno, line, m.group("value"))
        samples.append((lineno, line, name, labels, value))

    # histogram structure
    for family, ftype in types.items():
        if ftype != "histogram":
            continue
        buckets = [
            (ln, l, lab, v)
            for (ln, l, n, lab, v) in samples
            if n == family + "_bucket"
        ]
        sums = [v for (_, _, n, _, v) in samples if n == family + "_sum"]
        counts = [v for (_, _, n, _, v) in samples if n == family + "_count"]
        if not buckets or len(sums) != 1 or len(counts) != 1:
            sys.stderr.write(
                f"INVALID: histogram {family} needs buckets plus exactly "
                f"one _sum and one _count\n"
            )
            return 1
        last_le = -math.inf
        last_count = -1.0
        for lineno, line, labels, value in buckets:
            if "le" not in labels:
                fail(lineno, line, "bucket without le label")
            le = parse_value(lineno, line, labels["le"])
            if not le > last_le:
                fail(lineno, line, "le buckets not strictly increasing")
            if value < last_count:
                fail(lineno, line, "cumulative bucket counts decreased")
            last_le, last_count = le, value
        if not math.isinf(last_le):
            sys.stderr.write(
                f"INVALID: histogram {family} does not end with le=\"+Inf\"\n"
            )
            return 1
        if last_count != counts[0]:
            sys.stderr.write(
                f"INVALID: histogram {family} +Inf bucket ({last_count}) != "
                f"_count ({counts[0]})\n"
            )
            return 1

    missing = [f for f in REQUIRED_FAMILIES if f not in types]
    if missing:
        sys.stderr.write(f"INVALID: missing required families: {missing}\n")
        return 1
    unhelped = [f for f in types if f not in helped]
    if unhelped:
        sys.stderr.write(f"INVALID: families without # HELP: {unhelped}\n")
        return 1

    print(
        f"OK: {len(samples)} samples across {len(types)} families "
        f"({sum(1 for t in types.values() if t == 'histogram')} histograms)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
