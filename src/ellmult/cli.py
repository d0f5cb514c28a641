"""Command-line front end: settings, subcommands, and report emission.

Exit codes are stable: 0 success, 2 input error, 3 verification mismatch,
4 precision exhausted.  Errors are emitted as machine-readable JSON whatever
the requested output format.  Each subcommand takes --format and only the
settings it reads, each checked where it is parsed.  Argv is the only input:
a setting not given as a flag takes its default.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import math
import re
import sys
import typing
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import _jsontext, analytic, bounds, congruent, heights, localdata
from .curves import Multiples, curve_height, make_curve, quasi_minimalize, rational_point, scale_point
from .divpoly import ward_terms
from .errors import (
    EllmultError,
    NotIdentityComponent,
    OffCurve,
    PrecisionExhausted,
    UnknownBound,
)
from .reports import BoundReport

SCHEMA_VERSION = "ellmult/1"
GOLDEN_RESOURCE = "data/table_n75.csv"
GOLDEN_N_MAX = 75

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_PRECISION = 4


class Setting(NamedTuple):
    """A run setting: its flag, the parser that converts and checks it, its default."""

    flag: str
    parse: Callable[[str], object]
    default: object


def _checked(convert: Callable[[str], object], holds: Callable[[object], bool], rule: str) -> Callable[[str], object]:
    """Parser that converts a string, then rejects a value that is not `rule`."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {raw!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {raw}")
        return value

    return parse


FINITE = _checked(float, math.isfinite, "finite")

SETTINGS: Dict[str, Setting] = {
    "precision_bits": Setting("--precision-bits", _checked(int, lambda v: v >= 64, "at least 64"), 128),
    "x_max": Setting("--x-max", _checked(int, lambda v: v >= 1, "at least 1"), 10**6),
    "n_max": Setting("--n-max", _checked(int, lambda v: v >= 1, "at least 1"), 200),
    "tol": Setting("--tol", _checked(float, lambda v: 0 < v < math.inf, "positive and finite"), 1e-10),
    "output_format": Setting(
        "--format", _checked(str, lambda v: v in ("json", "csv", "text"), "json, csv or text"), "json"
    ),
}


# --- emission -------------------------------------------------------------


def _flatten(prefix: str, value, out: List[Tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out.append((prefix, value))


def _emit(args: argparse.Namespace, body: dict) -> int:
    """Write the subcommand's document, schema and command first, in its --format.

    JSON comes from _jsontext.dumps, the text of json.dumps(doc, indent=2,
    sort_keys=True, allow_nan=False) byte for byte, which converts ints of
    2048 digits or more by divide and conquer; the whole text is built before
    it is printed, so a non-finite float raises json's ValueError and prints
    nothing.
    """
    doc = {"schema": SCHEMA_VERSION, "command": args.command, **body}
    if args.output_format == "json":
        print(_jsontext.dumps(doc))
        return EXIT_OK
    rows: List[Tuple[str, object]] = []
    _flatten("", doc, rows)
    if args.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows((key, f"{value}") for key, value in rows)
        return EXIT_OK
    for key, value in rows:
        print(f"{key} = {value}")
    return EXIT_OK


def _emit_error(exc: BaseException, exit_code: int) -> None:
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(_jsontext.dumps({"schema": SCHEMA_VERSION, "error": error}))


def _mp_pair(z) -> List[float]:
    return [float(z.real), float(z.imag)]


# --- subcommands ------------------------------------------------------------


def _quasi_minimal_walk(args: argparse.Namespace) -> Tuple[Multiples, dict]:
    """The walk of the argv point mapped to the quasi-minimal model, and the input_model block."""
    curve, u = quasi_minimalize(make_curve(args.A, args.B))
    P = rational_point(args.x, args.y)
    try:
        walk = Multiples(curve, scale_point(P, u))
    except OffCurve:  # scaling by u keeps a point off the curve; name the point and model argv gave
        raise OffCurve(f"({P.x}, {P.y}) is not on y^2 = x^3 + {args.A} x + {args.B}") from None
    return walk, {"A": args.A, "B": args.B, "u": u}


def _curve_doc(curve) -> dict:
    hE = curve_height(curve)
    return {
        "A": curve.A,
        "B": curve.B,
        "discriminant": curve.discriminant,
        "j": str(curve.j),
        "height": {
            "value": hE.value,
            "j_term": hE.j_term,
            "coefficient_term": hE.coefficient_term,
        },
    }


def _height_doc(point, estimate: heights.HeightEstimate) -> dict:
    return {
        "naive_x": heights.naive_height(point.x),
        "canonical": {
            "value": float(estimate),
            "tolerance": estimate.tolerance,
            "iterations": estimate.iterations,
            "precision_bits": heights.HEIGHT_BITS,
        },
        "torsion_order": estimate.torsion_order,
    }


def _analytic_doc(curve, point, precision_bits: int) -> dict:
    data = analytic.period_data(curve, precision_bits)
    doc = {
        "omega": float(data.omega),
        "omega_str": str(data.omega),
        "omega2": _mp_pair(data.omega2),
        "tau": _mp_pair(data.tau),
        "boundary_note": data.boundary_note,
        "elliptic_log": None,
        "elliptic_log_note": None,
    }
    if point is not None:
        try:
            z = analytic.elliptic_log(data, point)
            doc["elliptic_log"] = float(z)
            doc["elliptic_log_str"] = str(z)
        except NotIdentityComponent as exc:
            doc["elliptic_log_note"] = str(exc)
    return doc


def cmd_analyze(args: argparse.Namespace) -> int:
    walk, input_model = _quasi_minimal_walk(args)
    curve, point = walk.curve, walk.point
    integral = walk[1][1] == 1  # D = 1: x, and so y, is an integer
    terms = ward_terms(walk, args.n_max) if integral else None
    profile = localdata.global_M(walk)
    estimate = heights.canonical_height(walk, tol=args.tol)
    reports = [heights.height_window_check(curve, point, estimate)]
    N = _congruent_parameter(curve, profile)
    if N is not None and estimate.torsion_order is None:
        reports.extend(congruent.height_windows(N, point, estimate.value))
        if terms is not None:
            reports.append(congruent.verify_double_not_integral(N, point))
    return _emit(args, {
        "precision_bits": args.precision_bits,
        "input_model": input_model,
        "curve": _curve_doc(curve),
        "point": {"x": str(point.x), "y": str(point.y), "integral": integral},
        "reduction": profile.to_json(),
        "heights": _height_doc(point, estimate),
        "analytic": _analytic_doc(curve, point, args.precision_bits),
        "ward": {"n_max": args.n_max, "rows": terms.json_rows()} if terms is not None else None,
        "reports": [r.to_json() for r in reports],
    })


def _congruent_parameter(curve, profile: localdata.ComponentProfile) -> Optional[int]:
    """N when the curve is y^2 = x^3 - N^2 x with N square-free, else None."""
    if curve.B != 0 or curve.A >= 0:
        return None
    root = math.isqrt(-curve.A)
    if root * root != -curve.A:
        return None
    # N is square-free iff it is the product of the primes of profile (those of 64 N^6) that divide it
    return root if math.prod(p for p, _ in profile.entries if root % p == 0) == root else None


def cmd_eds(args: argparse.Namespace) -> int:
    # h_n and D_n depend on the model, so eds stays on the argv one
    terms = ward_terms(Multiples(make_curve(args.A, args.B), rational_point(args.x, args.y)), args.n_max)
    return _emit(args, {
        "curve": {"A": args.A, "B": args.B},
        "point": {"x": str(args.x), "y": str(args.y)},
        "n_max": args.n_max,
        "rows": terms.json_rows(),
    })


def cmd_heights(args: argparse.Namespace) -> int:
    walk, input_model = _quasi_minimal_walk(args)
    curve, point = walk.curve, walk.point
    profile = localdata.global_M(walk)
    estimate = heights.canonical_height(walk, tol=args.tol)
    return _emit(args, {
        "precision_bits": heights.HEIGHT_BITS,
        "input_model": input_model,
        "curve": _curve_doc(curve),
        "point": {"x": str(point.x), "y": str(point.y)},
        "heights": _height_doc(point, estimate),
        "M": profile.M,
        "lang_floor": heights.lang_floor(curve, profile.M),
        "reports": [heights.height_window_check(curve, point, estimate).to_json()],
    })


def cmd_periods(args: argparse.Namespace) -> int:
    curve = make_curve(args.A, args.B)
    data = analytic.period_data(curve, args.precision_bits)
    return _emit(args, {
        "precision_bits": args.precision_bits,
        "curve": {"A": curve.A, "B": curve.B, "discriminant": curve.discriminant},
        "omega": float(data.omega),
        "omega_str": str(data.omega),
        "omega_quadrature_str": str(data.omega_carlson),
        "route_delta": float(abs(data.omega - data.omega_carlson)),
        "omega2": _mp_pair(data.omega2),
        "tau": _mp_pair(data.tau),
        "boundary_note": data.boundary_note,
        "omega_floor": analytic.omega_floor(curve.A, curve.B),
    })


# --- bounds registry --------------------------------------------------------


def _poly_growth(W: float, coeffs: Optional[str] = None) -> BoundReport:
    try:
        parsed = congruent.growth_poly() if coeffs is None else tuple(FINITE(part) for part in coeffs.split(","))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"argument --coeffs: {exc}") from None
    return bounds.poly_growth_check(parsed, W)


def _double_not_integral(N: int, x: str) -> BoundReport:
    return congruent.verify_double_not_integral(N, congruent.point_from_abscissa(N, x))


def _nonidentity_multiplier(N: int, x: str, n: int) -> BoundReport:
    return congruent.nonidentity_multiplier(N, congruent.point_from_abscissa(N, x), n)


# name -> evaluator; its parameters are the bound's flags
BOUND_REGISTRY: Dict[str, Callable[..., BoundReport]] = {
    "multiple-height-cap": bounds.multiple_height_cap,
    "calculus": bounds.calculus_threshold,
    "poly-growth": _poly_growth,
    "david-floor": bounds.david_floor_log,
    "n-cap-general": bounds.n_cap_general,
    "upper-form": bounds.upper_form_bound,
    "gap-relation": bounds.gap_relation,
    "composite-cap": bounds.composite_cap,
    "n-cap-congruent": congruent.n_cap,
    "gap-floor": congruent.gap_floor,
    "threshold-N": congruent.resolve_N_threshold,
    "double-not-integral": _double_not_integral,
    "nonidentity-multiplier": _nonidentity_multiplier,
}


def _signature_table(registry) -> Tuple[Dict[str, List[Tuple[str, bool]]], Dict[str, type]]:
    """Each bound's parameters as (name, required), and the one flag type of each parameter name.

    A parameter is required when it has no default; its flag type is its
    annotation, with Optional stripped.
    """
    params: Dict[str, List[Tuple[str, bool]]] = {}
    flag_types: Dict[str, type] = {}
    for bound, evaluator in registry.items():
        hints = typing.get_type_hints(evaluator)
        params[bound] = []
        for name, param in inspect.signature(evaluator).parameters.items():
            params[bound].append((name, param.default is param.empty))
            kind = next((t for t in typing.get_args(hints[name]) if t is not type(None)), hints[name])
            if flag_types.setdefault(name, kind) is not kind:
                raise TypeError(f"--{name} is annotated both {flag_types[name].__name__} and {kind.__name__}")
    return params, flag_types


BOUND_PARAMS, BOUND_FLAGS = _signature_table(BOUND_REGISTRY)


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.name not in BOUND_REGISTRY:
        raise UnknownBound(f"unknown bound {args.name!r}; known: {', '.join(sorted(BOUND_REGISTRY))}")
    params = dict(BOUND_PARAMS[args.name])
    for flag in BOUND_FLAGS:
        if flag not in params and getattr(args, flag) is not None:
            raise ValueError(f"bound {args.name} does not take --{flag}")
    for name, required in params.items():
        if required and getattr(args, name) is None:
            raise ValueError(f"bound requires --{name}")
    kwargs = {name: getattr(args, name) for name in params if getattr(args, name) is not None}
    return _emit(args, {"precision_bits": bounds.EVAL_BITS, "bound": BOUND_REGISTRY[args.name](**kwargs).to_json()})


# --- congruent table ---------------------------------------------------------


def _parse_table_csv(text: str) -> Dict[int, List[Tuple[int, int, str]]]:
    rows: Dict[int, List[Tuple[int, int, str]]] = {}
    for line in text.strip().split("\n")[1:]:
        n_str, x_str, y_str, h_str = line.split(",")
        rows.setdefault(int(n_str), []).append((int(x_str), int(y_str), h_str))
    return rows


def cmd_congruent_table(args: argparse.Namespace) -> int:
    table = congruent.reproduce_table(N_max=args.N_max, x_max=args.x_max)
    csv_text = congruent.table_csv(table)
    computed = _parse_table_csv(csv_text)
    golden_text = resources.files("ellmult").joinpath(GOLDEN_RESOURCE).read_text()
    golden = {N: pts for N, pts in _parse_table_csv(golden_text).items() if N <= args.N_max}
    diff = [
        {"N": N, "expected": golden.get(N, []), "got": computed.get(N, [])}
        for N in sorted(set(golden) | set(computed))
        if golden.get(N) != computed.get(N)
    ]
    match = not diff
    if args.output_format == "csv":
        sys.stdout.write(csv_text)
    else:
        _emit(args, {
            "precision_bits": heights.HEIGHT_BITS,
            "table": table.to_json(),
            "golden": {"resource": GOLDEN_RESOURCE, "match": match, "diff": diff},
        })
    return EXIT_OK if match else EXIT_MISMATCH


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Takes -33/8 as a value, and raises usage errors as ValueError rather than exiting."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # no flag starts with a digit, so a minus before one begins a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        raise ValueError(message)


def _add_settings(sp: argparse.ArgumentParser, handler: Callable, names: Tuple[str, ...]) -> None:
    """Give a subcommand --format and the named settings, which it alone reads."""
    for name in ("output_format",) + names:
        sp.add_argument(SETTINGS[name].flag, dest=name, type=SETTINGS[name].parse, default=SETTINGS[name].default)
    sp.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellmult",
        description="Exact and analytic machinery for integral multiples on elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler, settings in (
        ("analyze", "full per-point report", cmd_analyze, ("precision_bits", "n_max", "tol")),
        ("eds", "division-value sequence terms", cmd_eds, ("n_max",)),
        ("heights", "naive and canonical heights", cmd_heights, ("tol",)),
        ("periods", "real period, second period, tau", cmd_periods, ("precision_bits",)),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--A", type=int, required=True)
        sp.add_argument("--B", type=int, required=True)
        if handler is not cmd_periods:
            sp.add_argument("--x", type=Fraction, required=True)
            sp.add_argument("--y", type=Fraction, required=True)
        _add_settings(sp, handler, settings)

    bnd = sub.add_parser("bounds", help="evaluate a named bound report")
    bnd.add_argument("name")
    for flag, kind in sorted(BOUND_FLAGS.items(), key=lambda item: item[0].casefold()):
        bnd.add_argument(f"--{flag}", type=FINITE if kind is float else kind, default=None)
    _add_settings(bnd, cmd_bounds, ())

    table = sub.add_parser("congruent-table", help=f"rebuild the N <= {GOLDEN_N_MAX} point table")
    table.add_argument(
        "--N-max", dest="N_max", default=GOLDEN_N_MAX,
        type=_checked(int, lambda v: 1 <= v <= GOLDEN_N_MAX, f"between 1 and {GOLDEN_N_MAX}"),
    )
    _add_settings(table, cmd_congruent_table, ("x_max",))

    return parser


# built once: parse_args keeps no state between calls
PARSER = build_parser()


@contextlib.contextmanager
def _integers_of_any_length() -> Iterator[None]:
    """Lift the int-to-str cap (4300 digits by default, absent before Python 3.10.7) for a `with` body.

    Coordinates and sequence terms are exact integers of any length, read as arguments and written out.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def main(argv: Optional[List[str]] = None) -> int:
    with _integers_of_any_length():
        try:
            # parsing raises ValueError (usage) or ZeroDivisionError (Fraction("1/0")): exit 2 below
            args = PARSER.parse_args(argv)
            return args.handler(args)
        except PrecisionExhausted as exc:
            _emit_error(exc, EXIT_PRECISION)
            return EXIT_PRECISION
        except (EllmultError, ValueError, TypeError, ArithmeticError) as exc:
            _emit_error(exc, EXIT_INPUT)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
