"""Per-stage benchmarks of the pipeline, one ``benchmark`` call per stage.

Seven scenarios: the quintic conifold, P^n × P^1 cut by (1,1) and (n,1) for
n = 16 and 100, (P^2)^5 cut by five divisors (1,…,1), (P^1)^9 and (P^1)^16
cut by five and eight divisors (1,…,1), and P^13 × P^1 cut by the twelve
distinct divisors (k,1), k = 1…12, where κ's pass starts from the fundamental
class (2^12 x-states against F's two terms per degree).  One more stage runs
a fixed number of commands in a fresh interpreter and records its peak-RSS
growth in ``extra_info``, a memory figure that does not follow how many ops a
time budget completes, and two more time ``python -m balcone demo`` and
``render`` end to end in fresh interpreters.  ``perf/`` is outside the tier-1
``testpaths``; run it with

    python -m pytest perf --benchmark-json=run.json    # timed
    python -m pytest perf -q --benchmark-disable        # each stage once, as a test

and reduce ``run.json`` with ``perf/reduce.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from balcone.cones import Cone2D
from balcone.pipeline import (
    H11_FORMS,
    balanced_cone,
    balanced_image_closure,
    gap_report,
    integrate_forms,
)
from balcone.report import demo_payload, format_class_label, gap_payload, render_json, render_text
from balcone.scenario_io import DEMO_SCENARIO_JSON, parse_class_expr, parse_scenario
from balcone.svg import render_cone_diagram
from balcone.variety import CompleteIntersection


def _document(ambient, divisors, alpha, beta, effective):
    """Codim basis α∧β^(dim−2), β^(dim−1); the Kähler cone is the quadrant."""
    dim = sum(ambient) - len(divisors)
    return {
        "ambient": ambient,
        "divisors": divisors,
        "h11_basis": [{"name": "α", "multidegree": alpha}, {"name": "β", "multidegree": beta}],
        "codim_basis": [{"name": "c1", "expr": "*".join(["α"] + ["β"] * (dim - 2))},
                        {"name": "c2", "expr": "*".join(["β"] * (dim - 1))}],
        "kahler_cone": [[1, 0], [0, 1]],
        "effective_cone": effective,
    }


SCENARIOS = {
    "quintic": DEMO_SCENARIO_JSON,
    **{f"pn{n}": render_json(_document([n, 1], [[1, 1], [n, 1]], [0, 1], [1, 0],
                                        [[1, 0], [-1, 1]])) for n in (16, 100)},
    "p2x5": render_json(_document([2] * 5, [[1] * 5] * 5, [1, 1, 0, 0, 0], [0, 0, 1, 1, 1],
                                  [[1, 0], [0, 1]])),
    "p1x9": render_json(_document([1] * 9, [[1] * 9] * 5, [1] * 4 + [0] * 5, [0] * 4 + [1] * 5,
                                  [[1, 0], [0, 1]])),
    "p1x16": render_json(_document([1] * 16, [[1] * 16] * 8, [1] * 8 + [0] * 8,
                                   [0] * 8 + [1] * 8, [[1, 0], [0, 1]])),
    "p13x1": render_json(_document([13, 1], [[k, 1] for k in range(1, 13)], [0, 1], [1, 0],
                                   [[1, 0], [-1, 1]])),
}


@pytest.fixture(params=sorted(SCENARIOS), scope="module")
def text(request):
    return SCENARIOS[request.param]


@pytest.fixture(scope="module")
def sc(text):
    return parse_scenario(text)


def test_parse_and_build(benchmark, text):
    benchmark(parse_scenario, text)


def test_build(benchmark, sc):
    benchmark(CompleteIntersection, sc.ci.space, sc.ci.divisors)  # the plan and zero check


def test_class_exprs(benchmark, sc):
    benchmark(lambda: [parse_class_expr(e, sc.h11_names) for e in sc.codim_exprs])


def test_kappa(benchmark, sc):
    benchmark(sc.ci.kappa, *sc.h11_multidegrees)


def test_pairing(benchmark, sc):
    benchmark(lambda: [integrate_forms(sc, (h, c)) for h in H11_FORMS for c in sc.codim_forms])


def test_image_closure(benchmark, sc):
    benchmark(balanced_image_closure, sc)


def test_balanced_cone(benchmark, sc):
    benchmark(balanced_cone, sc)


def test_gap_report(benchmark, sc):
    benchmark(gap_report, sc)


def test_demo_payload(benchmark, sc):
    benchmark(demo_payload, sc)  # sc.gap is computed on the first round and kept


def test_render_json(benchmark, sc):
    benchmark(render_json, demo_payload(sc))


def test_render_text(benchmark, sc):
    benchmark(render_text, demo_payload(sc))


def test_render_svg(benchmark, sc):
    benchmark(render_cone_diagram, gap_payload(sc))


def test_cone_from_int_pairs(benchmark, sc):
    rays = [tuple(r) for r in sc.gap.balanced_cone]  # plain int pairs, not Ray
    benchmark(Cone2D, *rays)


def test_class_labels(benchmark, sc):
    rays = [*sc.gap.image_closure, *sc.gap.balanced_cone]
    benchmark(lambda: [format_class_label(r, sc.codim_names) for r in rays])


RSS_OPS = 2000
RSS_SCENARIOS = ("quintic", "pn16", "p2x5")
RSS_ARGVS = (["demo", "--format", "json"], ["demo"], ["render"], ["gap"], ["image"], ["pairing"])
# Reads the scenario texts and argvs from stdin; prints the peak RSS (KB) after one
# warm-up round of every op and again after n ops, each parse → run_command → writer.
# The peak is Linux's VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts at the
# peak RSS of the process that spawned it, so under pytest it hid 2 MB held by 2000 ops.
_RSS_SCRIPT = """
import json, sys
from balcone import cli, report
from balcone.scenario_io import parse_scenario
from balcone.svg import render_cone_diagram
def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
texts, argvs, n = json.load(sys.stdin)
ops = [(t, cli.build_parser().parse_args(a)) for t in texts for a in argvs]
write = {"json": report.render_json, "svg": render_cone_diagram,
         "text": lambda payload: report.render_text(payload, color=False)}
def op(text, args):
    write[args.format](cli.run_command(parse_scenario(text), args))
for text, args in ops:
    op(text, args)
before = peak_kb()
for i in range(n):
    op(*ops[i % len(ops)])
print(json.dumps([before, peak_kb()]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_rss_growth_at_fixed_ops(benchmark):
    """Peak-RSS growth of RSS_OPS commands in a fresh interpreter after a warm-up."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    request = json.dumps([[SCENARIOS[k] for k in RSS_SCENARIOS], RSS_ARGVS, RSS_OPS])

    def run():
        out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT], input=request, check=True,
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        return json.loads(out.stdout)

    before, after = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(ops=RSS_OPS, rss_before_kb=before, rss_growth_kb=after - before)


CLI_OUTPUTS = {"demo": lambda sc: render_text(demo_payload(sc), color=False),
               "render": lambda sc: render_cone_diagram(gap_payload(sc))}


@pytest.mark.parametrize("command", sorted(CLI_OUTPUTS))
def test_cli_end_to_end(benchmark, command):
    """``python -m balcone <command>`` on the built-in quintic in a fresh interpreter:
    start-up, imports, parse, the command and its write to stdout.  One warm-up run
    writes the bytecode first, and stdout must equal the in-process output."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "balcone", command]
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")

    def run():
        return subprocess.run(argv, capture_output=True, encoding="utf-8", env=env)

    run()
    out = benchmark(run)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == CLI_OUTPUTS[command](parse_scenario(DEMO_SCENARIO_JSON))
