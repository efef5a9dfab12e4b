#!/usr/bin/env python3
"""CI checker for stems observability artifacts.

Usage: check_trace.py TRACE.json TELEMETRY.json [--dispatched]
                      [--serve] [--analyze=FILE] [--stats=FILE]

Asserts the --trace-out file is a loadable Chrome trace-event document
(the format Perfetto / chrome://tracing read) covering the span names
the engine is instrumented with, and that the --telemetry-out file
carries the counter registry with the counters a real run must bump,
plus the schema-2 latency histograms.  With --dispatched,
additionally requires the merged trace to span multiple processes
(coordinator + workers) and wire traffic to have been counted.  With
--serve, the artifacts come from a `stems serve` daemon: requires
serve_request/serve_cell spans, socket-byte and admission counters,
and the analyze "serve" per-request section.  With --analyze=FILE,
validates `stems analyze --format=json` output; with --stats=FILE,
validates a --stats-out JSONL time series.
"""

import json
import sys


def fail(msg):
    print("check_trace: FAIL:", msg)
    sys.exit(1)


def check_trace(path, dispatched, serve):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("displayTimeUnit") != "ms":
        fail(f"{path}: displayTimeUnit != ms")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")

    names = set()
    pids = set()
    min_ts = None
    for e in events:
        for field in ("name", "ph", "pid", "tid"):
            if field not in e:
                fail(f"{path}: event missing {field}: {e}")
        names.add(e["name"])
        if e["ph"] == "M":
            continue
        pids.add(e["pid"])
        ts = float(e["ts"])
        if ts < 0:
            fail(f"{path}: negative ts: {e}")
        min_ts = ts if min_ts is None else min(min_ts, ts)
        if e["ph"] == "X" and float(e["dur"]) < 0:
            fail(f"{path}: negative dur: {e}")
        if e["ph"] == "i" and e.get("s") != "p":
            fail(f"{path}: instant without process scope: {e}")

    if min_ts != 0.0:
        fail(f"{path}: trace does not open at t=0 (min ts {min_ts})")

    want = {"trace", "baseline", "baseline_pass", "thread_name"}
    if dispatched:
        want |= {"dispatch_cell", "worker_cell", "worker_spawn",
                 "encode_cell", "decode_result"}
    elif serve:
        want |= {"serve_request", "serve_cell"}
    else:
        want |= {"cell"}
    missing = want - names
    if missing:
        fail(f"{path}: missing span names {sorted(missing)}; "
             f"have {sorted(names)}")

    if dispatched and len(pids) < 2:
        fail(f"{path}: dispatched trace spans {len(pids)} process(es)")

    print(f"check_trace: {path}: {len(events)} events, "
          f"{len(pids)} process(es), spans {sorted(names)}")


def check_telemetry(path, dispatched, serve):
    with open(path) as f:
        doc = json.load(f)

    t = doc.get("telemetry")
    if not isinstance(t, dict):
        fail(f"{path}: no telemetry object")
    if t.get("schema") != 2:
        fail(f"{path}: telemetry schema != 2")
    if not t.get("wall_ms", 0) > 0:
        fail(f"{path}: wall_ms not positive")
    if not t.get("peak_rss_kb", 0) > 0:
        fail(f"{path}: peak_rss_kb not positive")

    c = t.get("counters")
    if not isinstance(c, dict):
        fail(f"{path}: no counters object")
    must_be_positive = ["trace_cache_misses", "baseline_memo_misses",
                        "cells_executed"]
    if dispatched:
        must_be_positive += ["wire_bytes_sent", "wire_bytes_received"]
    if serve:
        must_be_positive += ["serve_requests_admitted",
                             "socket_bytes_sent",
                             "socket_bytes_received"]
    for name in must_be_positive:
        if not c.get(name, 0) > 0:
            fail(f"{path}: counter {name} is {c.get(name)}")

    hists = t.get("histograms")
    if not isinstance(hists, dict):
        fail(f"{path}: no histograms object")
    for want in ("dispatch_rtt_us", "cell_wall_us", "journal_fsync_us"):
        if want not in hists:
            fail(f"{path}: missing histogram family {want}")
    for name, h in hists.items():
        buckets = h.get("buckets")
        if not isinstance(buckets, dict):
            fail(f"{path}: histogram {name} has no buckets object")
        total = sum(buckets.values())
        if total != h.get("count"):
            fail(f"{path}: histogram {name} bucket sum {total} "
                 f"!= count {h.get('count')}")
        for idx, n in buckets.items():
            if not (0 <= int(idx) <= 64) or n <= 0:
                fail(f"{path}: histogram {name} bad bucket {idx}:{n}")
    if not hists["cell_wall_us"].get("count", 0) > 0:
        fail(f"{path}: cell_wall_us histogram is empty")
    if dispatched and not hists["dispatch_rtt_us"].get("count", 0) > 0:
        fail(f"{path}: dispatched run recorded no dispatch RTTs")

    workers = t.get("workers")
    if dispatched:
        if not workers:
            fail(f"{path}: dispatched telemetry has no workers")
        for w in workers:
            if w.get("cells", 0) > 0 and not w.get("busy_ms", 0) > 0:
                fail(f"{path}: worker with cells but no busy time: {w}")

    print(f"check_trace: {path}: counters ok "
          f"({sum(1 for v in c.values() if v)} non-zero), "
          f"{len(workers or [])} worker(s)")


def check_analyze(path, serve):
    with open(path) as f:
        doc = json.load(f)

    a = doc.get("analyze")
    if not isinstance(a, dict):
        fail(f"{path}: no analyze object")
    if a.get("schema") != 3:
        fail(f"{path}: analyze schema != 3")
    for key in ("trace_extent_ms", "span_count", "phases",
                "critical_path", "timeline", "hit_rates", "workers"):
        if key not in a:
            fail(f"{path}: analyze missing {key}")
    if not a["span_count"] > 0:
        fail(f"{path}: analyze saw no spans")
    if not a["critical_path"]:
        fail(f"{path}: empty critical path")
    prev_end = None
    for step in a["critical_path"]:
        for key in ("name", "start_ms", "dur_ms"):
            if key not in step:
                fail(f"{path}: critical-path step missing {key}: {step}")
        # emitted chronologically: each step ends no earlier than the
        # one it unblocked
        end = step["start_ms"] + step["dur_ms"]
        if prev_end is not None and end < prev_end - 1e-6:
            fail(f"{path}: critical path not chronological at {step}")
        prev_end = end
    for ph in a["phases"]:
        if not ph.get("total_ms", 0) >= 0 or not ph.get("count", 0) > 0:
            fail(f"{path}: bad phase row {ph}")
    if serve:
        requests = a.get("serve")
        if not isinstance(requests, list) or not requests:
            fail(f"{path}: serve trace but no serve section")
        for r in requests:
            for key in ("request", "queue_ms", "wall_ms", "exec_ms",
                        "cells", "replayed"):
                if key not in r:
                    fail(f"{path}: serve row missing {key}: {r}")
            if not r["cells"] > 0 or \
                    not (r["exec_ms"] > 0 or r["replayed"] > 0):
                fail(f"{path}: serve request did no work: {r}")
    print(f"check_trace: {path}: analyze ok "
          f"({a['span_count']} spans, "
          f"{len(a['critical_path'])}-step critical path)")


def check_stats(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        fail(f"{path}: stats file has no samples")

    prev_ts = None
    for i, line in enumerate(lines):
        try:
            s = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i + 1}: not JSON: {e}")
        if s.get("schema") != 1:
            fail(f"{path}:{i + 1}: stats schema != 1")
        for key in ("ts_ms", "rss_kb", "gauges", "counters"):
            if key not in s:
                fail(f"{path}:{i + 1}: sample missing {key}")
        if prev_ts is not None and s["ts_ms"] < prev_ts:
            fail(f"{path}:{i + 1}: ts_ms went backwards")
        prev_ts = s["ts_ms"]
        for g in ("cells_pending", "workers_busy", "cells_done"):
            if g not in s["gauges"]:
                fail(f"{path}:{i + 1}: gauges missing {g}")
    print(f"check_trace: {path}: {len(lines)} stats sample(s) ok")


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    dispatched = "--dispatched" in sys.argv[1:]
    serve = "--serve" in sys.argv[1:]
    analyze = stats = None
    for a in sys.argv[1:]:
        if a.startswith("--analyze="):
            analyze = a.split("=", 1)[1]
        elif a.startswith("--stats="):
            stats = a.split("=", 1)[1]
    if len(args) != 2:
        print(__doc__)
        sys.exit(2)
    check_trace(args[0], dispatched, serve)
    check_telemetry(args[1], dispatched, serve)
    if analyze:
        check_analyze(analyze, serve)
    if stats:
        check_stats(stats)
    print("check_trace: ok")


if __name__ == "__main__":
    main()
