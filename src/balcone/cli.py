"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 validation error (bad scenario
data), 4 computation error or output I/O failure.  Set the NO_COLOR
environment variable to disable ANSI styling in text output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import report
from .cones import Cone2D
from .errors import (
    ComputationError,
    ScenarioError,
    UnknownNameError,
    ValidationError,
)
from .pipeline import H11_FORMS
from .scenario_io import _canonical, parse_scenario, quintic_conifold_scenario


def _lookup(name, entries, kind):
    """The (declared name, value) entry a user-supplied name refers to, compared
    in lower case with Greek letters and wedge signs in ASCII: ``alpha*beta`` finds ``α∧β``."""
    hit = {_canonical(n): (n, v) for n, v in entries}.get(_canonical(name))
    if hit is None:
        known = ", ".join(n for n, _ in entries) or "(none)"
        raise UnknownNameError(f"unknown {kind} {name!r}; scenario declares: {known}")
    return hit


def _pair_arg(text: str):
    """Two rationals, each an integer, ``p/q`` or a decimal; exponent notation
    is refused, since ``Fraction`` would expand ``1e999999999`` digit by digit."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'X,Y', got {text!r}")
    if "e" in text.lower():
        raise argparse.ArgumentTypeError(f"exponent notation is not accepted, got {text!r}")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational pair {text!r}: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balcone",
        description="Exact intersection numbers and balanced-cone duality for "
        "complete intersections in products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp._negative_number_matcher = re.compile(r"^-\.?\d")  # -1,4 is a value, not a flag
        sp.add_argument(
            "--scenario", metavar="FILE",
            help="scenario JSON file (default: built-in quintic conifold)",
        )
        if name != "render":  # render always writes SVG
            sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument(
            "--out", metavar="FILE", help="write output to FILE instead of stdout"
        )
        return sp

    add("demo", "full pipeline report: intersection numbers, pairing, cones, gap")
    sp = add("intersect", "intersection number of named classes")
    sp.add_argument("factors", nargs="+", metavar="CLASS")
    add("pairing", "pairing matrix of the two bases with determinant")
    sp = add("dual", "dual cone under the intersection pairing")
    sp.add_argument(
        "--rays", nargs=2, type=_pair_arg, metavar="X,Y",
        help="cone generators in degree-1 coordinates (default: effective cone)",
    )
    add("image", "closure of the balanced-map image of the Kähler cone")
    add("balanced", "balanced cone as the pairing-dual of the effective cone")
    add("gap", "compare image closure with the balanced cone")
    sp = add("bound", "bound functional against a known prime divisor")
    sp.add_argument("prime", metavar="PRIME")
    sp.add_argument("ample", type=_pair_arg, metavar="C1,C2")
    add("render", "write the SVG cone diagram for the gap report")
    return parser


def _load_scenario(path):
    if path is None:
        return quintic_conifold_scenario()
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    return parse_scenario(text)


def _intersect_payload(scenario, args) -> dict:
    classes = list(zip(scenario.h11_names + scenario.codim_names,
                       H11_FORMS + scenario.codim_forms))
    names, forms = zip(*[_lookup(n, classes, "class name") for n in args.factors])
    return report.intersect_payload(scenario, names, forms)


_PAYLOADS = {  # command -> payload builder of (scenario, args); render has none
    "demo": lambda sc, args: report.demo_payload(sc),
    "intersect": _intersect_payload,
    "pairing": lambda sc, args: report.pairing_payload(sc),
    "dual": lambda sc, args: report.dual_payload(
        sc, sc.effective_cone if args.rays is None else Cone2D(*args.rays)),
    "image": lambda sc, args: report.image_payload(sc),
    "balanced": lambda sc, args: report.balanced_payload(sc),
    "gap": lambda sc, args: report.gap_payload(sc),
    "bound": lambda sc, args: report.bound_payload(
        sc, _lookup(args.prime, sc.prime_divisors, "prime divisor"), args.ample),
}


def run_command(scenario, args) -> dict:
    """Dispatch a parsed command to its payload builder."""
    return _PAYLOADS[args.command](scenario, args)


def _color_enabled(args) -> bool:
    if args.format != "text" or args.out is not None:
        return False
    if os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _write_output(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load_scenario(args.scenario)
        if args.command == "render":
            from .svg import render_cone_diagram
            text = render_cone_diagram(report.gap_payload(scenario))
        else:
            payload = run_command(scenario, args)
            if args.format == "json":
                text = report.render_json(payload)
            else:
                text = report.render_text(payload, color=_color_enabled(args))
        _write_output(text, args.out)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 3
    except UnknownNameError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 3
    except ComputationError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
