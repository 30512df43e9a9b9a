"""Command-line interface.

One row of ``COMMANDS`` per command, one row of ``EXIT_STATUS`` per handled
error.  Exit codes: 0 success, 2 usage error, 3 validation error (bad scenario
data), 4 computation error or output I/O failure.  Set the NO_COLOR
environment variable to disable ANSI styling in text output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import report
from .cones import Cone2D
from .errors import (
    ComputationError,
    ScenarioError,
    UnknownNameError,
    ValidationError,
)
from .pipeline import H11_FORMS, _canonical
from .scenario_io import parse_scenario, quintic_conifold_scenario


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
        return tuple([Fraction(p.strip()) for p in parts])
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational pair {text!r}: {e}") from e


def _intersect_payload(scenario, args) -> dict:
    classes = list(zip(scenario.h11_names + scenario.codim_names,
                       H11_FORMS + scenario.codim_forms))
    names, forms = zip(*[_lookup(n, classes, "class name") for n in args.factors])
    return report.intersect_payload(scenario, names, forms)


# Each command once: its help text, payload builder of (scenario, args), the arguments
# beyond --scenario, --format and --out, and its output formats with the default first.
_Command = namedtuple("_Command", "help build arguments formats", defaults=((), ("text", "json")))
COMMANDS = {
    "demo": _Command("full pipeline report: intersection numbers, pairing, cones, gap",
                     lambda sc, args: report.demo_payload(sc)),
    "intersect": _Command("intersection number of named classes", _intersect_payload,
                          (("factors", {"nargs": "+", "metavar": "CLASS"}),)),
    "pairing": _Command("pairing matrix of the two bases with determinant",
                        lambda sc, args: report.pairing_payload(sc)),
    "dual": _Command("dual cone under the intersection pairing",
                     lambda sc, args: report.dual_payload(
                         sc, sc.effective_cone if args.rays is None else Cone2D(*args.rays)),
                     (("--rays", {"nargs": 2, "type": _pair_arg, "metavar": "X,Y", "help": "cone "
                                  "generators in degree-1 coordinates (default: effective cone)"}),)),
    "image": _Command("closure of the balanced-map image of the Kähler cone",
                      lambda sc, args: report.image_payload(sc)),
    "balanced": _Command("balanced cone as the pairing-dual of the effective cone",
                         lambda sc, args: report.balanced_payload(sc)),
    "gap": _Command("compare image closure with the balanced cone",
                    lambda sc, args: report.gap_payload(sc)),
    "bound": _Command("bound functional against a known prime divisor",
                      lambda sc, args: report.bound_payload(
                          sc, _lookup(args.prime, sc.prime_divisors, "prime divisor"), args.ample),
                      (("prime", {"metavar": "PRIME"}),
                       ("ample", {"type": _pair_arg, "metavar": "C1,C2"}))),
    "render": _Command("write the SVG cone diagram for the gap report",
                       lambda sc, args: report.gap_payload(sc), formats=("svg",)),
}

# Each handled error once, matched in order, since a ScenarioError is a ValidationError.
EXIT_STATUS = {  # error type -> (stderr label, exit status)
    ScenarioError: ("scenario error", 3),
    UnknownNameError: ("usage error", 2),
    ValidationError: ("validation error", 3),
    ComputationError: ("computation error", 4),
    OSError: ("i/o error", 4),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balcone",
        description="Exact intersection numbers and balanced-cone duality for "
        "complete intersections in products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp._negative_number_matcher = re.compile(r"^-\.?\d")  # -1,4 is a value, not a flag
        sp.add_argument(
            "--scenario", metavar="FILE",
            help="scenario JSON file (default: built-in quintic conifold)",
        )
        sp.set_defaults(format=command.formats[0])
        if len(command.formats) > 1:  # a command with one format takes no --format
            sp.add_argument("--format", choices=command.formats)
        sp.add_argument(
            "--out", metavar="FILE", help="write output to FILE instead of stdout"
        )
        for flag, options in command.arguments:
            sp.add_argument(flag, **options)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on its first call."""
    return build_parser()


def _load_scenario(path):
    if path is None:
        return quintic_conifold_scenario()
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    return parse_scenario(text)


def run_command(scenario, args) -> dict:
    """Dispatch a parsed command to its payload builder."""
    return COMMANDS[args.command].build(scenario, args)


def _color_enabled(args) -> bool:
    if args.out is not None:
        return False
    if os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = _load_scenario(args.scenario)
        payload = run_command(scenario, args)
        if args.format == "svg":
            from .svg import render_cone_diagram
            text = render_cone_diagram(payload)
        elif args.format == "json":
            text = report.render_json(payload)
        else:
            text = report.render_text(payload, color=_color_enabled(args))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
    except tuple(EXIT_STATUS) as e:
        label, status = next(v for t, v in EXIT_STATUS.items() if isinstance(e, t))
        print(f"{label}: {e}", file=sys.stderr)
        return status
    return 0
