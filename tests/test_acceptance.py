"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every check
is exact rational arithmetic; the only tolerances are the stated runtime
budgets.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import balcone
from balcone.cones import Cone2D, Pairing, Ray, det2, dual_cone
from balcone.pipeline import (
    H11_FORMS,
    balanced_cone,
    balanced_image_closure,
    divisor_bound_functional,
    gap_report,
    integrate_forms,
)
from balcone.scenario_io import quintic_conifold_scenario

from _helpers import (
    dense_mul,
    random_class,
    random_cone,
    random_pairing,
    random_space,
)
from _ring_oracle import divisor_class, h11_classes


def report_line(num, ok, text):
    print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}]: {text}")
    assert ok


def test_criterion_1_intersection_numbers():
    sc = quintic_conifold_scenario()
    alpha, beta = H11_FORMS
    start = time.perf_counter()
    abb = integrate_forms(sc, [alpha, beta, beta])
    bbb = integrate_forms(sc, [beta, beta, beta])
    elapsed = time.perf_counter() - start
    ok = abb == 4 and bbb == 5 and elapsed < 0.1
    report_line(
        1, ok,
        f"intersect(α,β,β) = {abb}, intersect(β,β,β) = {bbb} "
        f"(exact; {elapsed * 1000:.2f} ms)",
    )


def test_criterion_2_pairing_matrix():
    sc = quintic_conifold_scenario()
    pm = sc.pairing_matrix
    ok = pm == ((0, 4), (4, 5)) and pm.det == -16
    report_line(
        2, ok,
        f"pairing matrix {[[int(v) for v in row] for row in pm]} "
        f"with determinant {pm.det}",
    )


def test_criterion_3_balanced_cone_rays():
    sc = quintic_conifold_scenario()
    expected = Cone2D((1, 0), (-1, 4))
    direct = dual_cone(Cone2D((1, 0), (-1, 1)), sc.pairing_matrix)
    via_pipeline = balanced_cone(sc)
    ok = direct == expected and via_pipeline == expected
    report_line(
        3, ok,
        "dual of cone{(1,0),(-1,1)} = cone{(1,0),(-1,4)} "
        "(rays α∧β and β∧β−¼α∧β)",
    )


def test_criterion_4_image_closure_and_gap_witness():
    sc = quintic_conifold_scenario()
    image = balanced_image_closure(sc)
    gr = gap_report(sc)
    witness = Ray(-1, 8)
    ok = (
        image == Cone2D((1, 0), (0, 1))
        and all(map(gr.balanced_cone.contains, image))
        and not all(map(image.contains, gr.balanced_cone))
        and gr.strict
        and gr.witness == witness
        and gr.balanced_cone.contains(witness, "open")
        and not image.contains(witness)
    )
    report_line(
        4, ok,
        "image closure cone{(1,0),(0,1)} strictly inside balanced cone; "
        "witness (-1,8) open-inside balanced, outside image closure",
    )


def test_criterion_5_divisor_class_relations():
    sc = quintic_conifold_scenario()
    space = sc.ci.space
    alpha, beta = h11_classes(sc)
    e1 = divisor_class(space, (1, 0)) - divisor_class(space, (0, 1))
    e2 = divisor_class(space, (4, 0)) - divisor_class(space, (0, 1))
    ok = e1 == beta - alpha and e2 == 4 * beta - alpha
    report_line(
        5, ok,
        "class(1,0) - class(0,1) = β−α and class(4,0) - class(0,1) = 4β−α",
    )


def test_criterion_6_bound_functional():
    sc = quintic_conifold_scenario()
    coeffs = divisor_bound_functional(sc, (-1, 1), (3, 4))
    ok = coeffs == (16, 16)
    report_line(
        6, ok,
        f"bound functional at E1 with ample (3,4) = {tuple(map(int, coeffs))}, "
        "a positive multiple of (1,1)",
    )


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(20260810)

    for _ in range(1000):
        space = random_space(rng, max_total=8)
        p = random_class(rng, space)
        q = random_class(rng, space)
        r = random_class(rng, space)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert all(
            e <= n for exp in (p * q).terms() for e, n in zip(exp, space)
        )

    for _ in range(1000):
        space = random_space(rng, max_total=6)
        p = random_class(rng, space)
        q = random_class(rng, space)
        assert (p * q).terms() == dense_mul(space, p, q)

    for _ in range(1000):
        cone = random_cone(rng)
        pairing = random_pairing(rng)
        dual = dual_cone(cone, pairing)
        assert det2(dual.r1, dual.r2) > 0
        assert dual_cone(dual, Pairing(tuple(zip(*pairing)))) == cone
        for r in cone:
            assert any(pairing.pair(r, s) == 0 for s in dual)

    elapsed = time.perf_counter() - start
    ok = elapsed < 30
    report_line(
        7, ok,
        "ring axioms + dense-oracle equivalence (1000 classes each) and "
        f"dual-cone involution + boundary annihilation (1000 cones), exact, "
        f"in {elapsed:.1f} s",
    )


def test_criterion_8_cli_demo_and_render(tmp_path):
    # The child process imports the same balcone as this one, installed or not.
    src = str(Path(balcone.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    demo = subprocess.run(
        [sys.executable, "-m", "balcone", "demo", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    doc = json.loads(demo.stdout)
    values = {
        tuple(e["factors"]): e["value"] for e in doc["intersection_numbers"]
    }
    fields_ok = (
        demo.returncode == 0
        and values[("α", "β", "β")] == "4"
        and values[("β", "β", "β")] == "5"
        and doc["pairing_matrix"] == [["0", "4"], ["4", "5"]]
        and doc["pairing_determinant"] == "-16"
        and doc["balanced_cone"]["rays"] == [[1, 0], [-1, 4]]
        and doc["image_closure"]["rays"] == [[1, 0], [0, 1]]
        and doc["gap"]["strict"] is True
        and doc["gap"]["witness"] == [-1, 8]
        and doc["gap"]["witness_in_balanced_open"] is True
        and doc["gap"]["witness_in_image_closure"] is False
    )
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for target in (a, b):
        render = subprocess.run(
            [sys.executable, "-m", "balcone", "render", "--out", str(target)],
            capture_output=True, env=env,
        )
        assert render.returncode == 0
    render_ok = a.read_bytes() == b.read_bytes() and a.read_bytes().startswith(b"<svg")
    report_line(
        8, fields_ok and render_ok,
        "demo --format json re-parses with criteria 1-4 values; "
        "render emits byte-identical SVG across two runs",
    )
