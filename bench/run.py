"""Benchmark of balcone: the P^n × P^1 sweep and many-factor ring products.

Run from the repository root:

    python3 bench/run.py --workload pn_family --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``pn_family``     commands on P^n × P^1 for n = 4…16;
* ``ring_products`` demo, gap and SVG on products of many projective spaces.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures half the
time untraced, then traces up to four cycles, and prints the per-layer
metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer aborts with exit code 1; a
missing ``src/balcone`` exits with code 2.  Scratch files, spans and a
result record per run go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import Tracer
import hostref
from workloads import (WORKLOADS, Golden, WrongOutput, child_env, load_balcone,
                       process_reference_ms)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 7
CONTROL_REPEATS = 7
# Spans of the P^n sweep run to about a thousand per op; a few cycles give
# every per-layer count while keeping the span file near 10 MB.
TRACE_MAX_CYCLES = 4
# Times are scaled to a reference host speed (see hostref.py).  The run and
# its children keep to one vCPU, since the two vCPUs of the sandbox differ.
# The reference is timed every REFERENCE_EVERY_S and smoothed by a running
# median over SMOOTH_REFS; raw wall times stay in the notes.
REFERENCE_EVERY_S = 0.25
SMOOTH_REFS = 5
PER_LAYER = {
    "python.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "scenario_io.parse_scenario.calls": "count/op",
    "scenario_io.parse_scenario.self_ms": "ms/op",
    "variety.CompleteIntersection.ms": "ms/op",
    "variety.intersection_number.calls": "count/op",
    "variety.intersection_number.ms": "ms/op",
    "variety.pairing_matrix.calls_per_op": "count/op",
    "ring.mul.calls": "count/op",
    "ring.mul.term_pairs": "count/op",
    "ring.mul.self_ms": "ms/op",
    "ring.max_terms": "count",
    "pipeline.express_in_basis.calls": "count/op",
    "pipeline.express_in_basis.self_ms": "ms/op",
    "pipeline.balanced_image_closure.calls_per_op": "count/op",
    "pipeline.image_useful_ratio": "ratio",
    "cones.self_ms": "ms/op",
    "report.payload.self_ms": "ms/op",
    "report.render_json.ms": "ms/op",
    "report.render_text.ms": "ms/op",
    "svg.render_cone_diagram.ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


def make_workload(name, seed, src):
    return WORKLOADS[name](seed, src, Golden())


def smoothed(refs):
    """Centred running median of reference times."""
    h = SMOOTH_REFS // 2
    return [statistics.median(refs[max(0, i - h):i + h + 1]) for i in range(len(refs))]


def measure(wl, seconds, max_cycles=None):
    """Whole cycles of ops until ``seconds`` have passed or ``max_cycles`` ran.

    Latencies are in ms at reference host speed: each op's wall time is
    scaled by the reference time measured around it.  The reference is
    timed before an op once REFERENCE_EVERY_S have passed since it was
    last timed.
    """
    timed, refs, errors = [], [], Counter()
    attempted = failed = cycles = 0
    start = last_ref = perf_counter()
    refs.append(hostref.reference_ms())
    while True:
        cycles += 1
        for op in wl.cycle():
            if perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(hostref.reference_ms())
                last_ref = perf_counter()
            attempted += 1
            wl.begin_op(attempted)
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as e:  # a failed op is counted; the loop goes on
                failed += 1
                errors[f"{op.key}: {type(e).__name__}: {e}"] += 1
                continue
            timed.append((len(refs) - 1, (perf_counter() - t0) * 1e3))
            op.check(out)
        if perf_counter() - start >= seconds or cycles == max_cycles:
            break
    if not timed:
        raise RuntimeError(f"no op completed: {dict(errors)}")
    refs = smoothed(refs)
    lat = sorted(dt * hostref.REFERENCE_MS / refs[ref] for ref, dt in timed)
    raw = sorted(dt for _, dt in timed)
    rank = math.ceil(wl.tail_pct / 100 * len(lat))
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": dict(errors),
        "elapsed_s": perf_counter() - start,
        "busy_s": sum(lat) / 1e3,
        "p50": statistics.median(lat),
        "tail": lat[rank - 1],
        "raw_p50": statistics.median(raw),
        "raw_tail": raw[rank - 1],
        "reference_ms": statistics.median(refs),
        "tail_pct": wl.tail_pct,
        "tail_beyond": len(lat) - rank,
        "samples": len(lat),
    }


def timed_setup(args, where):
    """Wall time of a fresh process that compiles balcone and warms up,
    and the reference time measured just before it."""
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(SRC / "balcone", where / "src" / "balcone",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(where)]
    reference = process_reference_ms()
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(BENCH), capture_output=True, text=True,
                          timeout=150)
    elapsed = perf_counter() - t0
    shutil.rmtree(where, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed, reference


def end_to_end(args, run_dir):
    setups, refs = zip(*(timed_setup(args, run_dir / f"setup-{i}")
                         for i in range(SETUP_REPEATS)))
    wl = make_workload(args.workload, args.seed, SRC)
    wl.warm_up()
    st = measure(wl, args.seconds)
    done = st["attempted"] - st["failed"]
    metrics = {
        "setup_s": (statistics.median(
            [s * hostref.REFERENCE_MS / r for s, r in zip(setups, smoothed(refs))]), "s"),
        "op_ms_p50": (st["p50"], "ms"),
        "op_ms_tail": (st["tail"], "ms"),
        "ops_per_s": (done / st["busy_s"], "1/s"),
        "ok_ratio": (done / st["attempted"], "ratio"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    notes = [
        f"op_ms_tail is p{st['tail_pct']} of {st['samples']} ops, "
        f"{st['tail_beyond']} beyond it",
        f"fail_ratio {st['failed'] / st['attempted']:.6f} ({st['failed']} of {st['attempted']})",
        f"reference {st['reference_ms']:.4f} ms; raw wall: op p50 {st['raw_p50']:.4f} ms, "
        f"tail {st['raw_tail']:.4f} ms, {done / st['elapsed_s']:.4f} ops/s",
        "raw set-ups " + ", ".join(f"{s:.4f}" for s in setups) + " s after references of "
        + ", ".join(f"{r:.3f}" for r in refs) + " ms",
    ]
    return wl, st, metrics, notes


def _python(code, env=None):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return (perf_counter() - t0) * 1e3, proc.stderr


def _import_times(code, env):
    """Cumulative import time in us per module, from ``-X importtime``."""
    _, log = _python(["-X", "importtime", "-c", code], env)
    times = {}
    for line in log.splitlines()[1:]:
        _, cumulative, name = line.split("|")
        times[name.strip()] = int(cumulative)
    return times


def controls(mods):
    """Interpreter start, balcone.cli import and in-process ``cli.main(["demo"])``."""
    env = child_env(SRC)
    bare, imported = [], []
    for _ in range(CONTROL_REPEATS):
        bare.append(_python(["-c", "pass"], env)[0])
        imported.append(_python(["-c", "import balcone.cli"], env)[0])
    bare_modules = set(_import_times("pass", env))
    top = sorted(((us, name) for name, us in _import_times("import balcone.cli", env).items()
                  if name not in bare_modules and name.split(".")[0] != "balcone"),
                 reverse=True)[:5]

    golden, main_ms = Golden(), []
    for _ in range(20):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = perf_counter()
            code = mods["cli"].main(["demo"])
            main_ms.append((perf_counter() - t0) * 1e3)
        if code != 0:
            raise RuntimeError(f"cli.main(['demo']) returned {code}")
        golden.check("pn4/demo-text", out.getvalue())
    startup = statistics.median(bare)
    return {
        "python.startup_ms": startup,
        "cli.import_ms": statistics.median(imported) - startup,
        "cli.main_ms": statistics.median(main_ms),
    }, ["import balcone.cli, top 5 modules beyond bare start-up, cumulative us: "
        + ", ".join(f"{name} {us}" for us, name in top)]


def layer_metrics(summary, ops, overhead):
    spans = summary["spans"]
    counters = summary["counters"]

    def per_op(name, field):
        return spans.get(name, {}).get(field, 0) / ops

    def self_ms(pred):
        return sum(v["self_ms"] for k, v in spans.items() if pred(k)) / ops

    image_calls = spans.get("pipeline.balanced_image_closure", {}).get("calls", 0)
    return {
        "scenario_io.parse_scenario.calls": per_op("scenario_io.parse_scenario", "calls"),
        "scenario_io.parse_scenario.self_ms": per_op("scenario_io.parse_scenario", "self_ms"),
        "variety.CompleteIntersection.ms": per_op("variety.CompleteIntersection.__init__", "ms"),
        "variety.intersection_number.calls":
            per_op("variety.CompleteIntersection.intersection_number", "calls"),
        "variety.intersection_number.ms":
            per_op("variety.CompleteIntersection.intersection_number", "ms"),
        "variety.pairing_matrix.calls_per_op":
            per_op("variety.CompleteIntersection.pairing_matrix", "calls"),
        "ring.mul.calls": per_op("ring.CohomClass.__mul__", "calls"),
        "ring.mul.term_pairs": counters.get("ring.mul.term_pairs", 0) / ops,
        "ring.mul.self_ms": per_op("ring.CohomClass.__mul__", "self_ms"),
        "ring.max_terms": counters.get("ring.max_terms", 0),
        "pipeline.express_in_basis.calls": per_op("pipeline.express_in_basis", "calls"),
        "pipeline.express_in_basis.self_ms": per_op("pipeline.express_in_basis", "self_ms"),
        "pipeline.balanced_image_closure.calls_per_op":
            per_op("pipeline.balanced_image_closure", "calls"),
        "pipeline.image_useful_ratio":
            summary["image_distinct"] / image_calls if image_calls else 1.0,
        "cones.self_ms": self_ms(lambda k: k.startswith("cones.")),
        "report.payload.self_ms":
            self_ms(lambda k: k.startswith("report.") and k.endswith("_payload")),
        "report.render_json.ms": per_op("report.render_json", "ms"),
        "report.render_text.ms": per_op("report.render_text", "ms"),
        "svg.render_cone_diagram.ms": per_op("svg.render_cone_diagram", "ms"),
        "trace.overhead_ratio": overhead,
    }


def per_layer(args, run_dir):
    mods = load_balcone(SRC)
    control, notes = controls(mods)
    wl = make_workload(args.workload, args.seed, SRC)
    wl.warm_up()
    plain = measure(wl, args.seconds / 2)
    spans_path = run_dir / "spans.jsonl.gz"
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    traced = measure(wl, args.seconds / 2, TRACE_MAX_CYCLES)
    summary = tracer.summary()
    tracer.dump(spans_path)
    ops = traced["attempted"] - traced["failed"]
    metrics = dict(control)
    metrics.update(layer_metrics(summary, ops, traced["p50"] / plain["p50"]))
    notes.append(f"traced {ops} ops; spans in {spans_path.relative_to(ROOT)}")
    st = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
    st["errors"] = {**plain["errors"], **traced["errors"]}
    return wl, st, {k: (metrics[k], unit) for k, unit in PER_LAYER.items()}, notes


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "balcone").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_to_one_cpu():
    """Keep this process and its children on one vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    if not (SRC / "balcone" / "__init__.py").is_file():
        print(f"bench: no balcone sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        where = Path(args.setup_only)
        make_workload(args.workload, args.seed, where / "src").warm_up()
        return 0
    run_dir = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl, st, metrics, notes = (per_layer if args.trace else end_to_end)(args, run_dir)
    except WrongOutput as e:
        print(f"bench: wrong output: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:  # a failed set-up, or no op completed
        print(f"bench: {e}", file=sys.stderr)
        return 1
    if args.workload == "pn_family":
        accepted, defect, other = wl.probe()
        notes.append(
            f"known-defect probe (bound E1 1,1 on n = 5…16, ROADMAP item 4): "
            f"{accepted} accepted, {defect} DegreeMismatchError, {other} other errors; "
            f"not counted in attempted/failed")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "machine": platform.machine(),
        "attempted": st["attempted"], "failed": st["failed"], "errors": st["errors"],
        "notes": notes, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"git={record['git_sha']} src={record['src_sha256'][:16]}")
    for k, (v, u) in metrics.items():
        print(f"  {k:46s} {v:14.4f} {u}")
    for note in notes:
        print(f"  {note}")
    for err, count in st["errors"].items():
        print(f"  failed x{count}: {err}")
    print(json.dumps({"correct": True, "attempted": st["attempted"], "failed": st["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
