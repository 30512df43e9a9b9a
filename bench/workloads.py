"""The benchmark's workloads: seeded inputs, one cycle of ops, and checks.

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has finished.  An op's ``run`` does the timed
work and raises when the op fails; its ``check`` compares the output with
golden bytes recorded from the program and with ``oracle`` arithmetic, and
raises ``WrongOutput`` on any difference.  The program sees only the
generated documents and argv.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
PROCESS_TIMEOUT_S = 60

PN_RANGE = range(4, 17)
QUINTIC_PRIMES = (("E1", (-1, 1)), ("E2", (-1, 4)))
# (factor dimension, number of factors, number of divisors (1,…,1)).
# (P^1)^14 with 7 divisors takes about 100 s per op, so it is left out.
# (P^4)^3 makes the number of cases odd, so the median op is the middle
# case's median rather than the mean of two neighbouring cases' extremes.
PRODUCTS = ((1, 8, 4), (1, 9, 5), (2, 5, 5), (3, 4, 6), (4, 3, 6))
ASCII = {"α": "alpha", "β": "beta"}


class WrongOutput(Exception):
    """The program answered, but the answer differs from the reference."""


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], None]


def document_text(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _basis(names_by_exp):
    return [{"name": "∧".join(c), "expr": "*".join(c)} for c in names_by_exp]


def _codim(dim):
    """Codim basis α∧β^(dim−2), β^(dim−1) as names and (a, b) exponents."""
    names = [("α",) + ("β",) * (dim - 2), ("β",) * (dim - 1)]
    return names, [(1, dim - 2), (0, dim - 1)]


def pn_document(n, primes=()):
    """P^n × P^1 cut by (1,1) and (n,1); n = 4 is the quintic conifold."""
    names, _ = _codim(n - 1)
    doc = {
        "ambient": [n, 1],
        "divisors": [[1, 1], [n, 1]],
        "h11_basis": [{"name": "α", "multidegree": [0, 1]},
                      {"name": "β", "multidegree": [1, 0]}],
        "codim_basis": _basis(names),
        "kahler_cone": [[1, 0], [0, 1]],
        "effective_cone": [[1, 0], [-1, 1]],
    }
    if primes:
        doc["prime_divisors"] = [{"name": p, "coords": list(c)} for p, c in primes]
    return doc


def product_document(n, k, m):
    """(P^n)^k cut by m divisors (1,…,1); α and β split the factors in halves."""
    half = k // 2
    alpha = [1] * half + [0] * (k - half)
    beta = [0] * half + [1] * (k - half)
    names, _ = _codim(n * k - m)
    return {
        "ambient": [n] * k,
        "divisors": [[1] * k] * m,
        "h11_basis": [{"name": "α", "multidegree": alpha},
                      {"name": "β", "multidegree": beta}],
        "codim_basis": _basis(names),
        "kahler_cone": [[1, 0], [0, 1]],
        "effective_cone": [[1, 0], [0, 1]],
    }


def draw_ample(rng):
    return tuple(Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(2))


def draw_cone(rng):
    """Two independent integer rays.

    The first coordinate is never negative: argparse reads an argument such
    as ``-1,4`` as an option flag, so ``dual --rays`` cannot receive it.
    """
    while True:
        r1 = (rng.randint(0, 9), rng.randint(-9, 9))
        r2 = (rng.randint(0, 9), rng.randint(-9, 9))
        if r1 != (0, 0) and r2 != (0, 0) and oracle.det(r1, r2) != 0:
            return r1, r2


def pair_arg(v):
    return f"{v[0]},{v[1]}"


def class_names(names, rng):
    return [ASCII[x] for x in names] if rng.random() < 0.5 else list(names)


def pn_pairing(n):
    return [[0, n], [n, n + 1]]


def check_pn_dual(n, cone, p):
    rays = oracle.oriented(*cone)
    expect(f"pn{n}/dual", "input cone", p["input_cone"]["rays"], rays)
    if not oracle.is_dual(pn_pairing(n), rays, p["dual_cone"]["rays"]):
        raise WrongOutput(f"pn{n}/dual: {p['dual_cone']['rays']} is not the dual of {rays}")


def check_pn_bound(n, prime, ample, p):
    want = [str(v) for v in oracle.bound(oracle.kappa_pn(n), prime, ample)]
    expect(f"pn{n}/bound", "coefficients", p["coefficients"], want)


class Golden:
    """sha256 of each fixed output, keyed by op; records instead when asked."""

    def __init__(self, record=False):
        self.record = record
        self.digests = {} if record else json.loads(GOLDEN.read_text(encoding="utf-8"))

    def check(self, key, text):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.record:
            self.digests[key] = digest
        elif self.digests.get(key) != digest:
            raise WrongOutput(f"{key}: output differs from the golden bytes")


def expect(key, what, got, want):
    if got != want:
        raise WrongOutput(f"{key}: {what} is {got!r}, expected {want!r}")


def child_env(pythonpath):
    """The caller's environment without PYTHON* settings, plus ``pythonpath``.

    A child then caches bytecode as a user's interpreter does, whatever
    the caller set (PYTHONDONTWRITEBYTECODE would make every child process
    recompile balcone).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pythonpath)
    return env


def process_reference_ms():
    """The host-speed reference, timed in a fresh process: timings taken in
    the parent skew after each child exits."""
    proc = subprocess.run([sys.executable, str(BENCH / "hostref.py")], env=child_env(BENCH),
                          capture_output=True, text=True, check=True, timeout=PROCESS_TIMEOUT_S)
    return float(proc.stdout)


def load_balcone(src):
    """Import balcone from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"balcone.{m}")
            for m in ("cli", "report", "scenario_io", "svg", "errors")}
    origin = Path(mods["cli"].__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise RuntimeError(f"balcone was imported from {origin}, not from {src}")
    return mods


class InProcess:
    """Runs one command the way ``balcone.cli.main`` does, without a process.

    Module attributes are looked up at call time so that a tracer's
    wrappers are seen.
    """

    def __init__(self, src):
        self.m = load_balcone(src)
        self.parser = self.m["cli"].build_parser()

    def command(self, doc_text, argv):
        m = self.m
        sc = m["scenario_io"].parse_scenario(doc_text)
        if argv[0] == "render":
            payload = m["report"].gap_payload(sc)
            return payload, m["svg"].render_cone_diagram(payload)
        args = self.parser.parse_args(argv)
        payload = m["cli"].run_command(sc, args)
        if args.format == "json":
            return payload, m["report"].render_json(payload)
        return payload, m["report"].render_text(payload)


class Workload:
    tail_pct: int  # the tail percentile reported as op_ms_tail
    tracer = None

    def __init__(self, seed, src, golden):
        self.rng = random.Random(seed)
        self.app = InProcess(src)
        self.golden = golden

    def begin_op(self, op_id):
        if self.tracer is not None:
            self.tracer.op = op_id

    def cycle(self):
        ops = self.ops()
        self.rng.shuffle(ops)
        return ops

    def warm_up(self):
        op = self.warm_up_op()
        op.check(op.run())

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PnFamily(Workload):
    """In-process commands on P^n × P^1, (1,1),(n,1), n = 4…16."""

    tail_pct = 99
    # Five commands that run the image closure and three that do not, so the
    # median op falls inside the slower group, not in the gap between them.
    FIXED = (("demo-json", ["demo", "--format", "json"]), ("demo-text", ["demo"]),
             ("render", ["render"]), ("gap", ["gap"]), ("image", ["image"]),
             ("pairing", ["pairing"]))

    def __init__(self, seed, src, golden):
        super().__init__(seed, src, golden)
        self.docs = {n: document_text(pn_document(n, QUINTIC_PRIMES if n == 4 else ()))
                     for n in PN_RANGE}
        self.probe_docs = {n: document_text(pn_document(n, QUINTIC_PRIMES[:1]))
                           for n in PN_RANGE if n >= 5}

    def _op(self, n, name, argv, extra=None):
        key = f"pn{n}/{name}"

        def check(out):
            payload, text = out
            self.check_closed_forms(n, key, payload)
            if extra is None:
                self.golden.check(key, text)
            else:
                extra(payload)
        return Op(key, lambda: self.app.command(self.docs[n], argv), check)

    def ops(self):
        ops = []
        for n in PN_RANGE:
            ops += [self._op(n, key, argv) for key, argv in self.FIXED]
            dim = n - 1
            names = class_names(["α"] + ["β"] * (dim - 1), self.rng)
            ops.append(self._op(n, "intersect", ["intersect", *names]))
            cone = draw_cone(self.rng)
            ops.append(self._op(n, "dual", ["dual", "--rays", *map(pair_arg, cone),
                                             "--format", "json"],
                                lambda p, n=n, cone=cone: check_pn_dual(n, cone, p)))
        ample = draw_ample(self.rng)
        ops.append(self._op(4, "bound", ["bound", "E1", pair_arg(ample), "--format", "json"],
                            lambda p: check_pn_bound(4, (-1, 1), ample, p)))
        return ops

    def warm_up_op(self):
        return self._op(4, *self.FIXED[0])

    def check_closed_forms(self, n, key, p):
        """P^n × P^1: pairing [[0,n],[n,n+1]], balanced (1,0),(−1,n), image (1,0),(0,1)."""
        matrix = [[str(v) for v in row] for row in pn_pairing(n)]
        if "pairing_matrix" in p:
            expect(key, "pairing", p["pairing_matrix"], matrix)
            expect(key, "determinant", p["pairing_determinant"], str(-n * n))
            expect(key, "intersection numbers", [x["value"] for x in p["intersection_numbers"]],
                   oracle.intersection_numbers(oracle.kappa_pn(n)))
            expect(key, "bounds", [b["coefficients"] for b in p["bound_functionals"]],
                   [[str(v) for v in oracle.bound(oracle.kappa_pn(n), c, (1, 1))]
                    for _, c in (QUINTIC_PRIMES if n == 4 else ())])
        if "matrix" in p:
            expect(key, "pairing", p["matrix"], matrix)
            expect(key, "determinant", p["determinant"], str(-n * n))
        if "balanced_cone" in p:
            expect(key, "balanced rays", p["balanced_cone"]["rays"], [[1, 0], [-1, n]])
        if "image_closure" in p:
            expect(key, "image rays", p["image_closure"]["rays"], [[1, 0], [0, 1]])
        if "gap" in p:
            expect(key, "gap witness", p["gap"]["witness"], [-1, 2 * n])
        if "value" in p:
            expect(key, "intersection number", p["value"], str(n))

    def probe(self):
        """``bound E1 1,1`` where dim ≠ 3, the known defect of ROADMAP item 4.

        Accepted: the oracle's ∫ h∧P∧A^(dim−2), or a ScenarioError at
        /prime_divisors.  Returns (accepted, known defect, other error) counts.
        """
        accepted = defect = other = 0
        errors = self.app.m["errors"]
        for n, text in self.probe_docs.items():
            try:
                payload, _ = self.app.command(text, ["bound", "E1", "1,1", "--format", "json"])
            except errors.DegreeMismatchError:
                defect += 1
                continue
            except errors.ScenarioError as e:
                if e.path == "/prime_divisors":
                    accepted += 1
                else:
                    other += 1
                continue
            except errors.GeometryError:
                other += 1
                continue
            check_pn_bound(n, (-1, 1), (1, 1), payload)
            accepted += 1
        return accepted, defect, other


class RingProducts(Workload):
    """Many-factor products: parse, demo JSON, gap payload and SVG per op."""

    tail_pct = 75

    def __init__(self, seed, src, golden):
        super().__init__(seed, src, golden)
        self.cases = []
        for n, k, m in PRODUCTS:
            doc = product_document(n, k, m)
            dim = n * k - m
            kappa = oracle.kappa_product(doc["ambient"], doc["divisors"],
                                         doc["h11_basis"][0]["multidegree"],
                                         doc["h11_basis"][1]["multidegree"])
            codim = _codim(dim)[1]
            self.cases.append((f"P{n}^{k}/{m}", document_text(doc), kappa, codim))

    def _op(self, case):
        key, text, kappa, codim = case
        m = self.app.m

        def run():
            sc = m["scenario_io"].parse_scenario(text)
            demo = m["report"].demo_payload(sc)
            demo_json = m["report"].render_json(demo)
            gap = m["report"].gap_payload(sc)
            return demo, demo_json, gap, m["svg"].render_cone_diagram(gap)

        def check(out):
            demo, demo_json, gap, svg = out
            matrix = oracle.pairing(kappa, codim)
            expect(key, "intersection numbers", [x["value"] for x in demo["intersection_numbers"]],
                   oracle.intersection_numbers(kappa))
            expect(key, "pairing", demo["pairing_matrix"],
                   [[str(v) for v in row] for row in matrix])
            image = oracle.image_rays(kappa, codim, ((1, 0), (0, 1)))
            for p in (demo, gap):
                expect(key, "image rays", p["image_closure"]["rays"], image)
                if not oracle.is_dual(matrix, [(1, 0), (0, 1)], p["balanced_cone"]["rays"]):
                    raise WrongOutput(f"{key}: balanced cone is not the dual of the effective cone")
            self.golden.check(f"{key}/demo-json", demo_json)
            self.golden.check(f"{key}/svg", svg)

        return Op(key, run, check)

    def ops(self):
        return [self._op(c) for c in self.cases]

    def warm_up_op(self):
        return self._op(self.cases[-1])


WORKLOADS = {"pn_family": PnFamily, "ring_products": RingProducts}
