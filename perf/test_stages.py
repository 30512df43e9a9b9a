"""Per-stage benchmarks of the pipeline, one ``benchmark`` call per stage.

Three scenarios: the quintic conifold, P^16 × P^1 cut by (1,1) and (16,1),
and (P^2)^5 cut by five divisors (1,…,1).  ``perf/`` is outside the tier-1
``testpaths``; run it with

    python -m pytest perf --benchmark-json=run.json    # timed
    python -m pytest perf -q --benchmark-disable        # each stage once, as a test

and reduce ``run.json`` with ``perf/reduce.py``.
"""

import pytest

from balcone.cones import Cone2D
from balcone.pipeline import gap_report
from balcone.report import demo_payload, format_class_label, gap_payload, render_json, render_text
from balcone.scenario_io import DEMO_SCENARIO_JSON, parse_scenario
from balcone.svg import render_cone_diagram


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
    "pn16": render_json(_document([16, 1], [[1, 1], [16, 1]], [0, 1], [1, 0], [[1, 0], [-1, 1]])),
    "p2x5": render_json(_document([2] * 5, [[1] * 5] * 5, [1, 1, 0, 0, 0], [0, 0, 1, 1, 1],
                                  [[1, 0], [0, 1]])),
}


@pytest.fixture(params=sorted(SCENARIOS), scope="module")
def text(request):
    return SCENARIOS[request.param]


@pytest.fixture(scope="module")
def sc(text):
    return parse_scenario(text)


def test_parse_and_build(benchmark, text):
    benchmark(parse_scenario, text)


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
