#!/usr/bin/env python3
"""Validates stird observability artifacts.

Three modes, standard library only; exits non-zero with a diagnostic on
the first violation. Used by CI after running a profiled example program
and after scraping a serving instance:

    python3 scripts/check_observability.py profile.json [trace.json]
    python3 scripts/check_observability.py --metrics metrics.txt

The --metrics mode validates a Prometheus text-exposition scrape from
the --metrics-port endpoint (HELP/TYPE grouping, sample syntax,
non-negative counters, cumulative ascending histogram buckets closed by
+Inf) and cross-checks the families against each other: every dispatched
request must appear in exactly one latency-histogram series.
"""

import json
import math
import sys

PROFILE_SCHEMA = "stird-profile-v2"

PROFILE_TOP_KEYS = [
    "schema", "program", "backend", "threads", "total_seconds",
    "dispatches", "strata", "relations",
]
RULE_KEYS = [
    "label", "relation", "stratum", "version", "par_group", "recursive",
    "seconds", "invocations", "dispatches", "delta_tuples", "iterations",
]
ITERATION_KEYS = ["seconds", "dispatches", "delta_tuples"]
RELATION_KEYS = [
    "name", "arity", "kind", "indexes", "final_size", "peak_size",
    "inserts", "inserts_new", "contains", "scans", "scan_tuples",
    "index_scans", "index_scan_hits", "index_scan_tuples", "reorders",
    "point_lookups", "range_scans", "col0_min", "col0_max",
]
RELATION_KINDS = ["btree", "brie", "eqrel", "legacy"]


def fail(message):
    print(f"check_observability: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def require_keys(obj, keys, what):
    for key in keys:
        if key not in obj:
            fail(f"{what} is missing key '{key}' (has: {sorted(obj)})")


def check_profile(path):
    with open(path) as f:
        doc = json.load(f)
    require_keys(doc, PROFILE_TOP_KEYS, "profile document")
    if doc["schema"] != PROFILE_SCHEMA:
        fail(f"unexpected schema '{doc['schema']}'")
    if doc["threads"] < 1:
        fail("threads < 1")

    rules = 0
    for stratum in doc["strata"]:
        require_keys(stratum, ["id", "seconds", "recursive", "rules"],
                     "stratum")
        for rule in stratum["rules"]:
            require_keys(rule, RULE_KEYS, f"rule {rule.get('label')!r}")
            rules += 1
            if rule["stratum"] != stratum["id"]:
                fail(f"rule {rule['label']!r} filed under stratum "
                     f"{stratum['id']} but claims {rule['stratum']}")
            if rule["invocations"] != len(rule["iterations"]):
                fail(f"rule {rule['label']!r}: {rule['invocations']} "
                     f"invocations vs {len(rule['iterations'])} samples")
            for sample in rule["iterations"]:
                require_keys(sample, ITERATION_KEYS, "iteration sample")
            delta = sum(s["delta_tuples"] for s in rule["iterations"])
            if delta != rule["delta_tuples"]:
                fail(f"rule {rule['label']!r}: iteration deltas sum to "
                     f"{delta}, rule total is {rule['delta_tuples']}")
    if rules == 0:
        fail("profile contains no rules")

    if not doc["relations"]:
        fail("profile contains no relations")
    for rel in doc["relations"]:
        require_keys(rel, RELATION_KEYS, f"relation {rel.get('name')!r}")
        if rel["peak_size"] < rel["final_size"]:
            fail(f"relation {rel['name']!r}: peak_size {rel['peak_size']} "
                 f"< final_size {rel['final_size']}")
        if rel["inserts_new"] > rel["inserts"]:
            # Equivalence relations may close over more pairs than were
            # inserted; everything else dedups.
            if rel["kind"] != "eqrel":
                fail(f"relation {rel['name']!r}: inserts_new "
                     f"{rel['inserts_new']} > inserts {rel['inserts']}")
        if rel["index_scan_hits"] > rel["index_scans"]:
            fail(f"relation {rel['name']!r}: more index-scan hits than "
                 "initiations")
        if rel["kind"] not in RELATION_KINDS:
            fail(f"relation {rel['name']!r}: unknown kind {rel['kind']!r}")
        # v2 access-pattern counters: classified once per search
        # initiation, so they can never outnumber the searches.
        if rel["point_lookups"] + rel["range_scans"] > \
                rel["index_scans"] + rel["contains"]:
            fail(f"relation {rel['name']!r}: point_lookups + range_scans "
                 "exceed index_scans + contains")
        if rel["col0_max"] < rel["col0_min"] and rel["final_size"] > 0:
            fail(f"relation {rel['name']!r}: non-empty but col0_max "
                 f"{rel['col0_max']} < col0_min {rel['col0_min']}")

    print(f"check_observability: profile OK "
          f"({rules} rules, {len(doc['relations'])} relations)")
    return doc


def check_trace(path, expect_workers):
    with open(path) as f:
        doc = json.load(f)
    if "traceEvents" not in doc:
        fail("trace has no traceEvents")

    depth = {}        # tid -> open span count
    last_ts = {}      # tid -> last timestamp
    named_tids = set()
    span_tids = set()
    prev_ts = None
    spans = 0
    for event in doc["traceEvents"]:
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") == "thread_name":
                named_tids.add(event["tid"])
            continue
        if phase not in ("B", "E"):
            fail(f"unexpected phase {phase!r}")
        tid, ts = event["tid"], event["ts"]
        span_tids.add(tid)
        if prev_ts is not None and ts < prev_ts:
            fail(f"timestamps not sorted: {ts} after {prev_ts}")
        prev_ts = ts
        if tid in last_ts and ts < last_ts[tid]:
            fail(f"track {tid} went backwards in time")
        last_ts[tid] = ts
        if phase == "B":
            if "name" not in event:
                fail("B event without a name")
            depth[tid] = depth.get(tid, 0) + 1
            spans += 1
        else:
            depth[tid] = depth.get(tid, 0) - 1
            if depth[tid] < 0:
                fail(f"track {tid}: E without matching B")
    for tid, open_spans in depth.items():
        if open_spans != 0:
            fail(f"track {tid}: {open_spans} unbalanced span(s)")
    unnamed = span_tids - named_tids
    if unnamed:
        fail(f"tracks without thread_name metadata: {sorted(unnamed)}")
    if 0 not in span_tids:
        fail("no main-thread track in trace")
    if expect_workers and len(span_tids) < 2:
        fail("multi-threaded run produced no worker tracks")
    print(f"check_observability: trace OK "
          f"({spans} spans on {len(span_tids)} track(s))")


def check_metrics(path):
    """Validates a Prometheus 0.0.4 text scrape and its cross-family
    consistency; returns {sample name: summed value across label sets}."""
    with open(path) as f:
        lines = f.read().splitlines()

    typeof = {}        # family -> declared type
    current = None     # family whose sample group is open
    totals = {}        # sample name -> value summed over label sets
    hist_state = {}    # histogram series key -> (last le, last count)
    inf_counts = {}    # histogram family -> sum of +Inf bucket counts
    samples = 0
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            fields = line[len("# TYPE "):].split()
            if len(fields) != 2:
                fail(f"malformed TYPE line ({where})")
            family, kind = fields
            if kind not in ("counter", "gauge", "histogram"):
                fail(f"unknown type {kind!r} ({where})")
            if family in typeof:
                fail(f"family {family!r} declared twice ({where})")
            typeof[family] = kind
            current = family
            continue
        if line.startswith("#"):
            fail(f"unexpected comment ({where})")

        name = line.split("{", 1)[0].split(" ", 1)[0]
        if not name:
            fail(f"empty metric name ({where})")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and typeof.get(base) == "histogram":
                family = base
                break
        if family not in typeof:
            fail(f"sample {name!r} has no TYPE header ({where})")
        if family != current:
            fail(f"sample {name!r} outside its family group ({where})")
        try:
            value = float(line.rsplit(" ", 1)[1])
        except (IndexError, ValueError):
            fail(f"unparseable sample ({where})")
        if typeof[family] in ("counter", "histogram") and value < 0:
            fail(f"negative counter sample ({where})")
        totals[name] = totals.get(name, 0.0) + value
        samples += 1

        if typeof[family] == "histogram" and name == family + "_bucket":
            le_at = line.find('le="')
            if le_at < 0:
                fail(f"bucket sample without le ({where})")
            le_text = line[le_at + 4:line.index('"', le_at + 4)]
            le = math.inf if le_text == "+Inf" else float(le_text)
            series = line[:le_at]
            if series in hist_state:
                last_le, last_count = hist_state[series]
                if le <= last_le:
                    fail(f"bucket thresholds not ascending ({where})")
                if value < last_count:
                    fail(f"bucket counts not cumulative ({where})")
            hist_state[series] = (le, value)
            if le == math.inf:
                inf_counts[family] = inf_counts.get(family, 0.0) + value

    for series, (le, _) in hist_state.items():
        if le != math.inf:
            fail(f"histogram series {series!r}... never closed with +Inf")

    # Cross-family consistency.
    for family, kind in typeof.items():
        if kind != "histogram" or family + "_count" not in totals:
            continue
        if totals[family + "_count"] != inf_counts.get(family):
            fail(f"{family}: _count {totals[family + '_count']} != +Inf "
                 f"bucket total {inf_counts.get(family)}")
    dispatched = totals.get("stird_requests_dispatched_total")
    latency_count = totals.get("stird_request_latency_micros_count")
    if dispatched is not None and latency_count is not None \
            and dispatched != latency_count:
        fail(f"{dispatched:.0f} dispatched requests but the latency "
             f"histograms hold {latency_count:.0f} samples")

    print(f"check_observability: metrics OK ({len(typeof)} families, "
          f"{samples} samples)")
    return totals


def main(argv):
    if len(argv) == 3 and argv[1] == "--metrics":
        check_metrics(argv[2])
        return 0
    if len(argv) not in (2, 3):
        print("usage: check_observability.py <profile.json> [trace.json] | "
              "--metrics <metrics.txt>",
              file=sys.stderr)
        return 2
    profile = check_profile(argv[1])
    if len(argv) == 3:
        check_trace(argv[2], expect_workers=profile["threads"] > 1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
