#!/usr/bin/env python3
"""The repository benchmark: the paper suite through `stems run`
in-process, through `--dispatch=4` and through `stems serve` /
`stems submit`, plus a traced panel that times each layer.

One workload, the interface automated runs use (the last stdout line
is the JSON result):

    python3 benchmark/run.py --workload paper_system --seed 1 \\
        --seconds 15 --trace 0

Every workload, repeated, with the traced pass and a summary:

    python3 benchmark/run.py [--seed N] [--repeats 3] [--append-history]

    python3 benchmark/run.py --calibrate   # 10 seeds per workload -> bounds
    python3 benchmark/run.py --smoke                   # tiny, all metrics

Standard library only. The first call builds `stems` and
`stems_benchmark` into build-bench/ (see benchmark/CMakeLists.txt).
See benchmark/README.md for what each workload and metric is for.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
HISTORY = BENCH_DIR / "history.jsonl"

NCPU = 16
REFS = 20000         # refs per CPU: 320k per trace, 3.5M per suite
PANEL_REFS = 10000   # the traced layer panel
SMOKE_REFS = 4000
SETUP_REPEATS = 3    # set-ups per run; setup_s is their median
MIN_OPS = 3          # batch operations per run, however long they take
SMOKE_REQUESTS = 12
CALIBRATION_SEEDS = 10
BOUND_TARGET = 0.10  # the regression bound the benchmark aims to resolve
BOUND_FLOOR = 0.03
BOUND_CAP = 0.25     # the widest bound automated comparison accepts

PAPER = ["OLTP-DB2", "OLTP-Oracle", "Qry1", "Qry2", "Qry16", "Qry17",
         "Apache", "Zeus", "em3d", "ocean", "sparse"]
ENGINES = "sms,ghb,stride,next-line,none"
L1_REGIONS = "256,512,1024,2048,4096,8192"
L1_PHT = "1024,16384"

WORKLOADS = ["paper_system", "paper_l1_sweep", "paper_dispatch",
             "serve_warm"]

E2E_UNITS = {"latency_ms": "ms", "refs_per_s": "refs/s",
             "peak_rss_mb": "MB", "setup_s": "s"}


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark could not run (build, set-up or a crashed tool)."""


# ----------------------------------------------------------------------
# build and processes
# ----------------------------------------------------------------------

def build(build_dir):
    """Configure once, then build incrementally; returns the binaries."""
    generated = [build_dir / "Makefile", build_dir / "build.ninja"]
    if not any(p.exists() for p in generated):
        rc = subprocess.call(["cmake", "-S", str(BENCH_DIR), "-B",
                              str(build_dir),
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr)
        if rc != 0:
            raise Failure("cmake configure failed")
    rc = subprocess.call(["cmake", "--build", str(build_dir), "-j4",
                          "--target", "stems", "stems_benchmark"],
                         stdout=sys.stderr)
    if rc != 0:
        raise Failure("build failed")
    return build_dir / "stems" / "stems", build_dir / "stems_benchmark"


class Done:
    """A finished child: wall seconds, wait4 rusage, exit code, stdout."""

    def __init__(self, wall, ru, rc, out):
        self.wall = wall
        self.rss_kb = ru.ru_maxrss
        self.rc = rc
        self.out = out


def reap(proc):
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru


def run(cmd, cwd, capture=False):
    """Run cmd to completion; the rusage covers it and its reaped
    children (so the peak RSS of a dispatch run is its largest worker)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd,
                            stdout=subprocess.PIPE if capture
                            else subprocess.DEVNULL)
    try:
        out = ""
        if capture:
            with proc.stdout:
                out = proc.stdout.read().decode()
    finally:
        ru = reap(proc)
    return Done(time.perf_counter() - t0, ru, proc.returncode, out)


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise Failure(what + " printed no result")
    return json.loads(lines[-1])


class Daemon:
    """A `stems serve` process listening on unix:s.sock in cwd."""

    def __init__(self, stems, cwd, telemetry=False):
        self.cwd = cwd
        cmd = [str(stems), "serve", "listen=unix:s.sock", "fleet=4",
               "journal-dir=journals", "trace-dir=traces", "quiet=1"]
        if telemetry:
            cmd.append("telemetry-out=telemetry.json")
        self.proc = subprocess.Popen(cmd, cwd=cwd,
                                     stdout=subprocess.DEVNULL)
        self.ru = None

    def stop(self):
        if self.ru is None:
            self.proc.send_signal(signal.SIGTERM)
            self.ru = reap(self.proc)
        return self.ru


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------

def spec_tokens(workload, seed, refs, dispatch=None):
    """The spec of a workload's operation, as `stems run` and
    `stems submit` take it. serve_warm submits paper_system's spec."""
    if workload == "paper_l1_sweep":
        body = ["mode=l1", "workloads=paper", "prefetchers=sms",
                f"sweep.region={L1_REGIONS}",
                f"sweep.pht-entries={L1_PHT}", "threads=4"]
    else:
        body = ["workloads=paper", f"prefetchers={ENGINES}", "timing=1"]
        if dispatch is None:
            dispatch = workload == "paper_dispatch"
        body.append("--dispatch=4" if dispatch else "threads=4")
    return body + [f"ncpu={NCPU}", f"refs={refs}", f"seed={seed}",
                   "wall=0", "quiet=1"]


def spec_cells(workload):
    if workload == "paper_l1_sweep":
        return len(PAPER) * 6 * 2
    return len(PAPER) * len(ENGINES.split(","))


# ----------------------------------------------------------------------
# report checks
# ----------------------------------------------------------------------

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cells_text(report):
    """The report from its cell array on: the part that must match
    across execution modes (the spec header echoes threads/dispatch)."""
    i = report.find('"cells":')
    return report[i:] if i >= 0 else ""


def check_report(report, cells):
    """The parsed report when it is well formed and holds `cells`
    error-free cells, else None."""
    try:
        doc = json.loads(report)
    except ValueError:
        return None
    got = doc.get("cells", [])
    if len(got) != cells or any("error" in c for c in got):
        return None
    return doc


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def model_values(doc):
    """Deterministic model results folded from a report."""
    out = {}
    speedups = {}
    covered = base = 0
    misses = {}
    for c in doc["cells"]:
        if "timing" in c:
            speedups.setdefault(c["label"], []).append(
                c["timing"]["speedup"])
        m = c.get("metrics", {})
        if m.get("baseline_l1_read_misses"):  # 0 in timing=only cells
            misses[c["workload"]] = m["baseline_l1_read_misses"]
        if c["sweep"] == {"pht-entries": "16384", "region": "2048"}:
            covered += m["l1_covered"]
            base += m["baseline_l1_read_misses"]
    for e in ("sms", "ghb"):
        if e in speedups:
            out[f"model.{e}_speedup_geomean"] = geomean(speedups[e])
    if base:
        out["model.sms_l1_coverage"] = covered / base
    if misses:
        out["model.l1_read_misses"] = sum(misses.values())
    return out


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

@contextlib.contextmanager
def scratch(ctx, name):
    """A fresh directory under out/ that is deleted afterwards."""
    work = ctx["out"] / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def batch_setup(ctx, seed, repeats):
    """Record the suite's spills `repeats` times into a fresh directory
    (the last recording stays); returns the directory and the times.
    The batch workloads share this set-up, so the suite mode records
    once per seed (ctx["spills"]) and reuses it."""
    shared = ctx.get("spills")
    if shared is not None and seed in shared:
        return shared[seed]
    spills = (ctx["work"] if shared is None else ctx["out"]) / \
        f"spills-s{seed}"
    times = []
    for _ in range(repeats):
        shutil.rmtree(spills, ignore_errors=True)
        res = run([ctx["bench"], "record", f"dir={spills}",
                   f"ncpu={NCPU}", f"refs={ctx['refs']}", f"seed={seed}"],
                  cwd=ctx["work"])
        if res.rc != 0:
            raise Failure("stems_benchmark record failed")
        times.append(res.wall)
    if shared is not None:
        shared[seed] = spills, times
    return spills, times


def batch_op(stems, work, tokens, k):
    report = work / f"report{k}.json"
    telemetry = work / f"telemetry{k}.json"
    res = run([stems, "run", *tokens, f"json={report.name}",
               f"telemetry-out={telemetry.name}"], cwd=work)
    text = report.read_text() if report.exists() else ""
    tel = (json.loads(telemetry.read_text())["telemetry"]
           if telemetry.exists() else None)
    return res, text, tel


def run_batch(ctx, workload, seed, seconds, trace):
    stems, work, refs = ctx["stems"], ctx["work"], ctx["refs"]
    spills, setup = batch_setup(ctx, seed, 1 if trace else SETUP_REPEATS)
    tokens = spec_tokens(workload, seed, refs) + [f"trace-dir={spills}"]
    cells = spec_cells(workload)

    ops = []
    start = time.perf_counter()
    while len(ops) < ctx["min_ops"] or time.perf_counter() - start < seconds:
        ops.append(batch_op(stems, work, tokens, len(ops)))
        if trace:
            break

    info = {}
    failed_ops = 0
    first = ops[0][1]
    for res, text, tel in ops:
        if res.rc != 0 or tel is None or text != first or \
                check_report(text, cells) is None:
            failed_ops += 1
    doc = check_report(first, cells)
    info["report_sha256"] = sha(first)
    info["cells_sha256"] = sha(cells_text(first))
    if doc:
        info.update(model_values(doc))
    if workload == "paper_dispatch":
        # dispatched cells must match the in-process runner's
        ref, ref_text, _ = batch_op(
            stems, work, spec_tokens(workload, seed, refs, dispatch=False) +
            [f"trace-dir={spills}"], "ref")
        info["inprocess_cells_sha256"] = sha(cells_text(ref_text))
        if ref.rc != 0 or cells_text(ref_text) != cells_text(first):
            log("paper_dispatch: dispatched cells differ from in-process")
            failed_ops = len(ops)

    result = {"attempted": len(ops) * cells, "failed": failed_ops * cells,
              "info": info}
    if trace:
        res, _, tel = ops[0]
        result["run"] = run_counters(tel, res.wall, op_rss_mb(res, tel))
        return result

    result["metrics"] = {
        "latency_ms": median([r.wall * 1e3 for r, _, _ in ops]),
        "refs_per_s": median([cells * NCPU * refs / r.wall
                              for r, _, _ in ops]),
        "peak_rss_mb": median([op_rss_mb(r, t) for r, _, t in ops]),
        "setup_s": median(setup),
    }
    result["info"]["ops"] = len(ops)
    return result


def op_rss_mb(res, tel):
    """Peak RSS of one op: the process, plus every dispatch worker
    (wait4 reports only the largest of them)."""
    if tel and tel.get("workers"):
        return (tel["peak_rss_kb"] +
                sum(w["peak_rss_kb"] for w in tel["workers"])) / 1024
    return res.rss_kb / 1024


def run_counters(tel, wall_s, rss_mb):
    """Per-layer counts of one traced operation (telemetry dump); an
    in-process run or the daemon has 4 lanes (threads=4, fleet=4)."""
    c = tel["counters"] if tel else {}
    cells = c.get("cells_executed", 0)
    busy_ms = (sum(w["busy_ms"] for w in tel["workers"])
               if tel and tel.get("workers") else
               (tel["histograms"]["cell_wall_us"]["sum_us"] / 1e3
                if tel else 0))
    lane_ms = (tel["wall_ms"] * (len(tel["workers"]) or 4)
               if tel else 0)
    return {
        "run.wall_s": (wall_s, "s"),
        "run.peak_rss_mb": (rss_mb, "MB"),
        "run.baseline_passes": (c.get("baseline_memo_misses", 0), "count"),
        "run.timing_passes": (c.get("timing_memo_misses", 0), "count"),
        "run.trace_replays": (c.get("trace_spill_replays", 0), "count"),
        "run.trace_generations": (c.get("trace_cache_misses", 0) -
                                  c.get("trace_spill_replays", 0),
                                  "count"),
        "run.wire_kb": ((c.get("wire_bytes_sent", 0) +
                         c.get("wire_bytes_received", 0) +
                         c.get("socket_bytes_sent", 0) +
                         c.get("socket_bytes_received", 0)) / 1e3, "kB"),
        "run.busy_frac": (busy_ms / lane_ms if lane_ms else 0, "ratio"),
        "run.warm_hit_frac": (c.get("serve_cache_warm_hits", 0) / cells
                              if cells else 0, "ratio"),
        "run.cells_stolen": (c.get("cells_stolen", 0), "count"),
    }


def serve_setup(ctx, seed, k, telemetry):
    """Start a daemon on a fresh directory and submit paper_system's
    spec to it cold (trace generation, every pass); set-up time runs
    from launch to the cold report."""
    d = ctx["work"] / f"daemon{k}"
    d.mkdir()
    t0 = time.perf_counter()
    daemon = Daemon(ctx["stems"], d, telemetry)
    ctx["daemons"].append(daemon)
    res = run([ctx["stems"], "submit", "server=unix:s.sock",
               *spec_tokens("serve_warm", seed, ctx["refs"]),
               "json=cold.json"], cwd=d)
    elapsed = time.perf_counter() - t0
    if res.rc != 0:
        raise Failure("cold submit failed")
    return daemon, elapsed


def run_serve(ctx, seed, seconds, trace):
    stems, bench, refs = ctx["stems"], ctx["bench"], ctx["refs"]
    setups = []
    for k in range(1 if trace else SETUP_REPEATS):
        if k:
            ctx["daemons"][-1].stop()
        daemon, elapsed = serve_setup(ctx, seed, k, trace)
        setups.append(elapsed)
    d = daemon.cwd
    tokens = spec_tokens("serve_warm", seed, refs)
    (d / "spec.txt").write_text(" ".join(tokens + ["json=cold.json"]))

    # the warm phase: the same spec resubmitted by 2 closed-loop clients
    load = run([bench, "load", "server=unix:s.sock", "spec=spec.txt",
                "expect=cold.json", f"seconds={seconds}",
                f"count={ctx['requests']}"], cwd=d, capture=True)
    ru = daemon.stop()
    if load.rc != 0:
        raise Failure("stems_benchmark load failed")
    out = last_json(load.out, "load")
    requests = out["requests"]
    phase_s = out["phase_ns"] / 1e9
    if not requests:
        raise Failure("no request completed")

    # the cold report must equal a fresh `stems run` of the same spec
    cells = spec_cells("serve_warm")
    cold = (d / "cold.json").read_text()
    ref = run([stems, "run", *tokens, "json=ref.json"], cwd=d)
    ref_text = (d / "ref.json").read_text() if ref.rc == 0 else ""
    failed = sum(1 for _, ok in requests if not ok)
    cold_doc = check_report(cold, cells)
    if cold_doc is None or cold != ref_text:
        log("serve_warm: cold report differs from stems run")
        failed = len(requests) + 1
    info = {"report_sha256": sha(cold), "requests": len(requests)}
    if cold_doc:
        info.update(model_values(cold_doc))
    result = {"attempted": len(requests) + 1, "failed": failed,
              "info": info}
    if trace:
        tel = json.loads((d / "telemetry.json").read_text())["telemetry"]
        result["run"] = run_counters(tel, phase_s, ru.ru_maxrss / 1024)
        return result

    ok = sum(1 for _, ok in requests if ok)
    result["metrics"] = {
        "latency_ms": median([ns / 1e6 for ns, _ in requests]),
        "refs_per_s": ok * cells * NCPU * refs / phase_s,
        "peak_rss_mb": ru.ru_maxrss / 1024,
        "setup_s": median(setups),
    }
    return result


def layer_panel(ctx, seed):
    """The traced per-layer panel (stems_benchmark layers): its
    metrics, failed and attempted counts. It does not depend on the
    workload, so the suite mode runs it once."""
    trace_path = ctx["out"] / f"layers-s{seed}.json"
    with scratch(ctx, "panel") as work:
        res = run([ctx["bench"], "layers", "dir=panel", f"ncpu={NCPU}",
                   f"refs={ctx['panel_refs']}", f"seed={seed}",
                   f"trace={trace_path}"], cwd=work, capture=True)
    if res.rc != 0:
        raise Failure("stems_benchmark layers failed")
    raw = last_json(res.out, "layers")
    failed = raw["driver_failed"] + raw["serve_failed"]
    return as_metrics(layer_metrics(raw)), failed, \
        raw["driver_cells"] + raw["serve_requests"]


def layer_metrics(L):
    refs = L["refs"]
    n = L["workloads"]

    def per_ref(ns):
        return ns / refs

    m = {
        "workloads.generate_ms": (L["generate_ns"] / 1e6, "ms"),
        "workloads.generate_mrefs_per_s": (
            refs / L["generate_ns"] * 1e3, "Mrefs/s"),
        "trace.spill_write_ms": (L["spill_write_ns"] / 1e6, "ms"),
        "trace.spill_mb": (L["spill_bytes"] / 1e6, "MB"),
        "trace.spill_validate_ms": (L["spill_validate_ns"] / 1e6, "ms"),
        "trace.interleave_ns_per_ref": (per_ref(L["interleave_ns"]),
                                        "ns/ref"),
        "mem.setup_ms": (L["mem_setup_ns"] / 1e6 / n, "ms"),
        "mem.access_ns_per_ref": (per_ref(L["mem_access_ns"]), "ns/ref"),
        "core.sms_train_predict_ns_per_ref": (per_ref(L["sms_ns"]),
                                              "ns/ref"),
        "study.baseline_ns_per_ref": (per_ref(L["system_ns.none"]),
                                      "ns/ref"),
    }
    for e in ("sms", "ghb", "stride", "next-line"):
        m[f"prefetch.{e}.attach_ns_per_ref"] = (
            per_ref(L[f"system_ns.{e}"] - L["system_ns.none"]), "ns/ref")
        useful = L[f"covered.{e}"]
        m[f"prefetch.{e}.accuracy"] = (
            useful / max(1, useful + L[f"overpredicted.{e}"]), "ratio")
    m["study.l1_ns_per_ref"] = (
        L["l1_ns"] / (refs * L["l1_passes"]), "ns/ref")
    m["study.l1_baseline_ns_per_ref"] = (per_ref(L["l1_baseline_ns"]),
                                         "ns/ref")
    for e in ("none", "sms", "ghb", "stride", "next-line"):
        m[f"sim.timing_ns_per_ref.{e}"] = (per_ref(L[f"timing_ns.{e}"]),
                                           "ns/ref")
    m.update({
        "driver.cell_ms_p50": (L["driver_cell_ms_p50"], "ms"),
        "driver.cell_ms_p90": (L["driver_cell_ms_p90"], "ms"),
        "dispatch.encode_cell_us": (L["dispatch_encode_cell_us"], "us"),
        "dispatch.decode_result_us": (L["dispatch_decode_result_us"],
                                      "us"),
        "dispatch.result_bytes": (L["dispatch_result_bytes"], "bytes"),
        "dispatch.journal_append_us": (L["dispatch_journal_append_us"],
                                       "us"),
        "serve.admit_wait_ms_p50": (L["serve_admit_wait_ms_p50"], "ms"),
        "serve.admit_wait_ms_p90": (L["serve_admit_wait_ms_p90"], "ms"),
        "serve.exec_ms_p50": (L["serve_exec_ms_p50"], "ms"),
        "serve.exec_ms_p90": (L["serve_exec_ms_p90"], "ms"),
        "serve.socket_overhead_ms": (
            L["serve_socket_ms"] - L["serve_inprocess_ms"], "ms"),
        "serve.warm_hit_frac": (
            L["serve_warm_hits"] / max(1, L["serve_cells"]), "ratio"),
        "serve.cells_stolen": (L["serve_cells_stolen"], "count"),
        "model.sms_speedup_geomean": (L["speedup_geomean.sms"], "ratio"),
        "model.ghb_speedup_geomean": (L["speedup_geomean.ghb"], "ratio"),
        "model.sms_l1_coverage": (
            L["l1_covered"] / max(1, L["l1_read_misses"]), "ratio"),
        "model.l1_read_misses": (L["l1_read_misses"], "count"),
    })
    return m


def as_metrics(values):
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(ctx, workload, seed, seconds, trace):
    """One run of one workload: {correct, attempted, failed, metrics,
    info}. Traced, the metrics are the run.* counts of one operation;
    add_panel() adds the layer panel's."""
    with scratch(ctx, f"{workload}-s{seed}") as work:
        ctx = dict(ctx, work=work, daemons=[])
        try:
            if workload == "serve_warm":
                result = run_serve(ctx, seed, seconds, trace)
            else:
                result = run_batch(ctx, workload, seed, seconds, trace)
        finally:
            for daemon in ctx["daemons"]:
                daemon.stop()
    if trace:
        result["metrics"] = as_metrics(result.pop("run"))
    else:
        result["metrics"] = as_metrics(
            {k: (v, E2E_UNITS[k]) for k, v in result["metrics"].items()})
    result["correct"] = result["failed"] == 0
    return result


def add_panel(result, panel):
    metrics, failed, attempted = panel
    result["metrics"].update(metrics)
    result["failed"] += failed
    result["attempted"] += attempted
    result["correct"] = result["failed"] == 0


# ----------------------------------------------------------------------
# command modes
# ----------------------------------------------------------------------

def missing_metrics(spec, result, trace):
    """Metrics BENCHMARK.json names that the result lacks or mis-units."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    return [m["name"] for m in wanted
            if got.get(m["name"], {}).get("unit") != m["unit"]]


def print_info(workload, result):
    for k, v in sorted(result["info"].items()):
        print(f"{workload} {k} {v}")


def one_workload(ctx, args):
    result = run_workload(ctx, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.trace:
        add_panel(result, layer_panel(ctx, args.seed))
    print_info(args.workload, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def fingerprint(build_dir):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True
                                 ).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "kernel": platform.release(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def commit_id():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--short=12", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def suite(ctx, args):
    """Every workload --repeats times plus one traced run each, then
    the layer panel once."""
    seconds = args.seconds
    ctx = dict(ctx, spills={})
    runs = {w: [] for w in WORKLOADS}
    traced = {}
    try:
        for w in WORKLOADS:
            for r in range(args.repeats):
                log(f"{w} repeat {r + 1}/{args.repeats}")
                runs[w].append(run_workload(ctx, w, args.seed, seconds,
                                            False))
            log(f"{w} traced pass")
            traced[w] = run_workload(ctx, w, args.seed, seconds, True)
        log("layer panel")
        panel, panel_failed, panel_attempted = layer_panel(ctx, args.seed)
    finally:
        for spills, _ in ctx["spills"].values():
            shutil.rmtree(spills, ignore_errors=True)

    failed = panel_failed
    summary = {}
    for w in WORKLOADS:
        results = runs[w] + [traced[w]]
        failed += sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        digests = {r["info"]["report_sha256"] for r in results}
        if len(digests) != 1:
            log(f"{w}: report differs between runs")
            failed += 1
        summary[w] = {"failed_frac": sum(r["failed"] for r in results) /
                      attempted, "medians": {}, "layers": {},
                      "info": runs[w][0]["info"]}
        n = len(runs[w])
        for name, unit in E2E_UNITS.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            summary[w]["medians"][name] = median(values)
            print(f"{w} {name} {median(values):.6g} {unit} "
                  f"(median, n={n})")
        print(f"{w} failed_frac {summary[w]['failed_frac']:.6g} ratio "
              f"(n={n + 1})")
        for name, m in traced[w]["metrics"].items():
            summary[w]["layers"][name] = m["value"]
            print(f"{w} {name} {m['value']:.6g} {m['unit']} (traced, n=1)")
        print_info(w, runs[w][0])
    for name, m in panel.items():
        print(f"layers {name} {m['value']:.6g} {m['unit']} (traced, n=1)")
    print(f"layers failed_frac {panel_failed / panel_attempted:.6g} ratio "
          "(n=1)")
    info = {w: summary[w]["info"] for w in WORKLOADS}
    if (info["paper_dispatch"]["cells_sha256"] !=
            info["paper_system"]["cells_sha256"]):
        log("paper_dispatch cells differ from paper_system")
        failed += 1
    if (info["serve_warm"]["report_sha256"] !=
            info["paper_system"]["report_sha256"]):
        log("serve_warm report differs from paper_system's")
        failed += 1
    overhead = (summary["paper_dispatch"]["medians"]["latency_ms"] -
                summary["paper_system"]["medians"]["latency_ms"]) / 1e3
    print(f"paper_dispatch dispatch.overhead_s {overhead:.6g} s "
          f"(median difference, n={args.repeats})")

    entry = {"commit": commit_id(), "seed": args.seed,
             "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
             "repeats": args.repeats, "run_seconds": seconds,
             "fingerprint": fingerprint(ctx["build_dir"]),
             "dispatch_overhead_s": overhead, "workloads": summary,
             "layers": {k: m["value"] for k, m in panel.items()}}
    path = ctx["out"] / f"{entry['commit']}-s{args.seed}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n")
    log(f"wrote {path}")
    if args.append_history:
        line = {k: entry[k] for k in ("commit", "seed", "time",
                                      "repeats", "fingerprint")}
        line["e2e"] = {w: summary[w]["medians"] for w in WORKLOADS}
        line["checks"] = info
        with open(HISTORY, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
        log(f"appended to {HISTORY}")
    return 1 if failed else 0


def spread(values):
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / q2


def calibrate(ctx, spec):
    """Seeds 1..10 per workload. A metric's bound is 3 x its widest
    seed-to-seed spread (quartile distance over median), so that the
    spread sits below a third of the bound, rounded up to 0.01 and kept
    within [BOUND_FLOOR, BOUND_CAP]. A (metric, workload) pair whose
    spread needs more than BOUND_TARGET is printed as unresolved at
    that resolution."""
    seconds = spec["run_seconds"]
    spreads = {}
    failed = 0
    for w in WORKLOADS:
        values = {name: [] for name in E2E_UNITS}
        for seed in range(1, CALIBRATION_SEEDS + 1):
            log(f"calibrate {w} seed {seed}")
            r = run_workload(ctx, w, seed, seconds, False)
            failed += r["failed"]
            for name in E2E_UNITS:
                values[name].append(r["metrics"][name]["value"])
        spreads[w] = {name: spread(v) for name, v in values.items()}
        spreads[w]["values"] = values
    bounds = {}
    for m in spec["end_to_end"]:
        widest = max(spreads[w][m["name"]] for w in WORKLOADS)
        bounds[m["name"]] = min(BOUND_CAP, max(
            BOUND_FLOOR, math.ceil(300 * widest) / 100))
        print(f"{m['name']}: widest spread {widest:.4f} -> bound "
              f"{bounds[m['name']]}")
        for w in WORKLOADS:
            s = spreads[w][m["name"]]
            note = (f"  unresolved at {BOUND_TARGET}"
                    if 3 * s > BOUND_TARGET else "")
            print(f"  {w} {s:.4f}{note}")
    # set-up is timed only 3 times a run, so it gets the largest bound
    bounds["setup_s"] = max(bounds.values())
    for m in spec["end_to_end"]:
        m["bound"] = bounds[m["name"]]
    SPEC_FILE.write_text(json.dumps(spec, indent=2) + "\n")
    (ctx["out"] / "calibration.json").write_text(
        json.dumps(spreads, indent=1) + "\n")
    log(f"bounds written to {SPEC_FILE}")
    return 1 if failed else 0


def smoke(ctx, spec):
    """Every workload once, traced and not, at a tiny scale: every
    metric BENCHMARK.json names must come out with its unit."""
    bad = []
    panel = layer_panel(ctx, 1)
    for w in WORKLOADS:
        for trace in (False, True):
            r = run_workload(ctx, w, 1, 0, trace)
            if trace:
                add_panel(r, panel)
            missing = missing_metrics(spec, r, trace)
            log(f"smoke {w} trace={int(trace)}: failed={r['failed']} "
                f"missing={missing}")
            if missing or not r["correct"]:
                bad.append((w, trace, missing))
    print("smoke:", "FAILED " + str(bad) if bad else "ok")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--append-history", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir", type=Path, default=ROOT / "build-bench")
    p.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = p.parse_args()

    try:
        stems, bench = build(args.build_dir.resolve())
        spec = json.loads(SPEC_FILE.read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        out = args.out.resolve()
        out.mkdir(parents=True, exist_ok=True)
        ctx = {"stems": stems, "bench": bench, "out": out,
               "build_dir": args.build_dir.resolve(), "refs": REFS,
               "panel_refs": PANEL_REFS, "min_ops": MIN_OPS,
               "requests": 0}
        if args.smoke:
            ctx.update(refs=SMOKE_REFS, panel_refs=SMOKE_REFS, min_ops=1,
                       requests=SMOKE_REQUESTS)
            return smoke(ctx, spec)
        if args.calibrate:
            return calibrate(ctx, spec)
        if args.workload:
            return one_workload(ctx, args)
        return suite(ctx, args)
    except (Failure, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
