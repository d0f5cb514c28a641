"""Command-line front end: configuration, subcommands, and report emission.

Exit codes are stable: 0 success, 2 input error, 3 verification mismatch,
4 precision exhausted.  Errors are emitted as machine-readable JSON whatever
the requested output format.  Environment variables with the ELLMULT_ prefix
mirror the shared flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

from . import analytic, bounds, congruent, heights, localdata
from .curves import curve_height, make_curve, on_curve, rational_point
from .divpoly import ward_terms
from .errors import (
    EllmultError,
    InadmissibleParameters,
    NotIdentityComponent,
    OffCurve,
    PrecisionExhausted,
    UnknownBound,
)
from .reports import BoundReport

SCHEMA_VERSION = "ellmult/1"
ENV_PREFIX = "ELLMULT_"
GOLDEN_RESOURCE = "data/table_n75.csv"

# sequence terms are exact integers with thousands of digits at large n; lift
# the interpreter's int-to-str cap so JSON emission can carry them in full
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_PRECISION = 4


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters; every subcommand reads only what it needs."""

    precision_bits: int = 128
    x_max: int = 10**6
    n_max: int = 200
    tol: float = 1e-10
    output_format: str = "json"

    def validate(self) -> None:
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be at least 64")
        if self.x_max < 1:
            raise ValueError("x_max must be at least 1")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")


_CONFIG_FIELDS: Dict[str, Tuple[str, Callable]] = {
    "precision_bits": (ENV_PREFIX + "PRECISION_BITS", int),
    "x_max": (ENV_PREFIX + "X_MAX", int),
    "n_max": (ENV_PREFIX + "N_MAX", int),
    "tol": (ENV_PREFIX + "TOL", float),
    "output_format": (ENV_PREFIX + "FORMAT", str),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by ELLMULT_* environment variables, overridden by flags."""
    values = {}
    for field_name, (env_name, convert) in _CONFIG_FIELDS.items():
        raw = os.environ.get(env_name)
        if raw is not None:
            try:
                values[field_name] = convert(raw)
            except ValueError:
                raise ValueError(f"cannot parse {env_name}={raw!r}")
        flag = getattr(args, field_name, None)
        if flag is not None:
            values[field_name] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


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


def _emit(doc: dict, cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    rows: List[Tuple[str, object]] = []
    _flatten("", doc, rows)
    if cfg.output_format == "csv":
        print("key,value")
        for key, value in rows:
            print(f"{key},{value}")
    else:
        for key, value in rows:
            print(f"{key} = {value}")


def _emit_error(exc: BaseException, exit_code: int) -> None:
    doc = {
        "schema": SCHEMA_VERSION,
        "error": {"type": type(exc).__name__, "message": str(exc), "exit_code": exit_code},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def _mp_pair(z) -> List[float]:
    return [float(z.real), float(z.imag)]


# --- subcommands ------------------------------------------------------------


def _parse_point(args: argparse.Namespace):
    curve = make_curve(args.A, args.B)
    point = rational_point(args.x, args.y)
    if not on_curve(curve, point):
        raise OffCurve(f"({args.x}, {args.y}) is not on y^2 = x^3 + {args.A} x + {args.B}")
    return curve, point


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
        },
        "torsion_order": estimate.torsion_order,
    }


def _analytic_doc(curve, point, cfg: RunConfig) -> dict:
    data = analytic.period_data(curve, cfg.precision_bits)
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
            z = analytic.elliptic_log(curve, point, cfg.precision_bits)
            doc["elliptic_log"] = float(z)
            doc["elliptic_log_str"] = str(z)
        except NotIdentityComponent as exc:
            doc["elliptic_log_note"] = str(exc)
    return doc


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    curve, point = _parse_point(args)
    terms = ward_terms(curve, point, cfg.n_max) if _is_integral(point) else None
    profile = localdata.global_M(curve, point)
    estimate = heights.canonical_height(curve, point, tol=cfg.tol)
    reports = [heights.height_window_check(curve, point, estimate)]
    N = _congruent_parameter(curve)
    if N is not None and estimate.torsion_order is None:
        reports.extend(congruent.height_windows(N, point, estimate.value))
        if terms is not None:
            reports.append(congruent.verify_double_not_integral(N, point))
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "precision_bits": cfg.precision_bits,
        "curve": _curve_doc(curve),
        "point": {"x": str(point.x), "y": str(point.y), "integral": _is_integral(point)},
        "reduction": profile.to_json(),
        "heights": _height_doc(point, estimate),
        "analytic": _analytic_doc(curve, point, cfg),
        "ward": {"n_max": cfg.n_max, "rows": terms.json_rows()} if terms is not None else None,
        "reports": [r.to_json() for r in reports],
    }
    _emit(doc, cfg)
    return EXIT_OK


def _is_integral(point) -> bool:
    return point.x.denominator == 1 and point.y.denominator == 1


def _congruent_parameter(curve) -> Optional[int]:
    """N when the curve is y^2 = x^3 - N^2 x with N square-free, else None."""
    if curve.B != 0 or curve.A >= 0:
        return None
    root = math.isqrt(-curve.A)
    if root * root != -curve.A:
        return None
    from .factorization import is_square_free

    return root if is_square_free(root) else None


def cmd_eds(args: argparse.Namespace, cfg: RunConfig) -> int:
    curve, point = _parse_point(args)
    terms = ward_terms(curve, point, cfg.n_max)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "eds",
        "curve": {"A": curve.A, "B": curve.B},
        "point": {"x": str(point.x), "y": str(point.y)},
        "n_max": cfg.n_max,
        "rows": terms.json_rows(),
    }
    _emit(doc, cfg)
    return EXIT_OK


def cmd_heights(args: argparse.Namespace, cfg: RunConfig) -> int:
    curve, point = _parse_point(args)
    profile = localdata.global_M(curve, point)
    estimate = heights.canonical_height(curve, point, tol=cfg.tol)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "heights",
        "precision_bits": cfg.precision_bits,
        "curve": _curve_doc(curve),
        "point": {"x": str(point.x), "y": str(point.y)},
        "heights": _height_doc(point, estimate),
        "M": profile.M,
        "lang_floor": heights.lang_floor(curve, profile.M),
        "reports": [heights.height_window_check(curve, point, estimate).to_json()],
    }
    _emit(doc, cfg)
    return EXIT_OK


def cmd_periods(args: argparse.Namespace, cfg: RunConfig) -> int:
    curve = make_curve(args.A, args.B)
    data = analytic.period_data(curve, cfg.precision_bits)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "periods",
        "precision_bits": cfg.precision_bits,
        "curve": {"A": curve.A, "B": curve.B, "discriminant": curve.discriminant},
        "omega": float(data.omega),
        "omega_str": str(data.omega),
        "omega_quadrature_str": str(data.omega_quadrature),
        "route_delta": float(abs(data.omega - data.omega_quadrature)),
        "omega2": _mp_pair(data.omega2),
        "tau": _mp_pair(data.tau),
        "boundary_note": data.boundary_note,
        "omega_floor": analytic.omega_floor(curve.A, curve.B),
    }
    _emit(doc, cfg)
    return EXIT_OK


# --- bounds registry --------------------------------------------------------


def _require(args: argparse.Namespace, *names: str) -> List:
    values = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise ValueError(f"bound requires --{name.replace('_', '-')}")
        values.append(value)
    return values


def _value_report(name: str, inputs: dict, value: Optional[float], citation: str) -> BoundReport:
    if value is None:
        return BoundReport(name=name, inputs=inputs, threshold=None, holds=None, citation=citation, applicable=False)
    return BoundReport(name=name, inputs=inputs, threshold=float(value), holds=True, citation=citation)


def _bound_multiple_height_cap(args, cfg) -> BoundReport:
    n, M, hE = _require(args, "n", "M", "hE")
    value = bounds.multiple_height_cap(int(n), int(M), hE)
    return _value_report(
        "multiple-height-cap", {"n": int(n), "M": int(M), "hE": hE}, value, bounds.MULTIPLE_HEIGHT_CITATION
    )


def _bound_calculus(args, cfg) -> BoundReport:
    a, b = _require(args, "a", "b")
    return _value_report("calculus", {"a": a, "b": b}, bounds.calculus_threshold(a, b), bounds.CALCULUS_CITATION)


def _bound_poly_growth(args, cfg) -> BoundReport:
    (W,) = _require(args, "W")
    if args.coeffs is not None:
        coeffs = tuple(float(part) for part in args.coeffs.split(","))
    else:
        coeffs = congruent.growth_poly(cfg.precision_bits)
    return bounds.poly_growth_check(coeffs, W)


def _bound_david_floor(args, cfg) -> BoundReport:
    logB, logV1, logV2, hE = _require(args, "logB", "logV1", "logV2", "hE")
    value = bounds.david_floor_log(logB, logV1, logV2, hE)
    inputs = {"logB": logB, "logV1": logV1, "logV2": logV2, "hE": hE, "C": float(bounds.DAVID_C)}
    return _value_report("david-floor", inputs, value, bounds.DAVID_CITATION)


def _bound_n_cap_general(args, cfg) -> BoundReport:
    M, hE = _require(args, "M", "hE")
    value = bounds.n_cap_general(int(M), hE)
    inputs = {"M": int(M), "hE": hE, "height_floor": 2 * math.pi * math.sqrt(3)}
    citation = "n with nP integral is capped once h(E) >= 2 pi sqrt(3); below that no cap is emitted"
    return _value_report("n-cap-general", inputs, value, citation)


def _bound_upper_form(args, cfg) -> BoundReport:
    n, c1, hE = _require(args, "n", "c1", "hE")
    value = bounds.upper_form_bound(int(n), c1, hE)
    return _value_report("upper-form", {"n": int(n), "c1": c1, "hE": hE}, value, bounds.UPPER_FORM_CITATION)


def _bound_gap_relation(args, cfg) -> BoundReport:
    n1, n2, hE, c1, omega = _require(args, "n1", "n2", "hE", "c1", "omega")
    return bounds.gap_relation(int(n1), int(n2), hE, c1, omega)


def _bound_composite_cap(args, cfg) -> BoundReport:
    M, hE, Clam = _require(args, "M", "hE", "Clam")
    value = bounds.composite_cap(int(M), hE, Clam)
    return _value_report("composite-cap", {"M": int(M), "hE": hE, "Clam": Clam}, value, bounds.COMPOSITE_CAP_CITATION)


def _bound_n_cap_congruent(args, cfg) -> BoundReport:
    (N,) = _require(args, "N")
    value = congruent.n_cap(int(N))
    ratio = congruent.growth_ratio_check(int(N), cfg.precision_bits)
    inputs = {"N": int(N), "g": ratio.inputs["g"], "g_holds": ratio.holds}
    citation = "n <= max{3.6e27, 9.196e23 (log N)^{5/2}} when nP is integral and N >= 56"
    return _value_report("n-cap-congruent", inputs, value, citation)


def _bound_gap_floor(args, cfg) -> BoundReport:
    n1, N = _require(args, "n1", "N")
    value = congruent.gap_floor(int(n1), int(N))
    citation = "log n2 >= (n1^2/8) log N - log(N)/2 + log(omega1/2)"
    return _value_report("gap-floor", {"n1": int(n1), "N": int(N)}, value, citation)


def _bound_threshold_N(args, cfg) -> BoundReport:
    branch1, branch2 = congruent.resolve_N_threshold()
    citation = "largest N with gap_floor(11, N) below each multiplier-cap branch"
    return _value_report(
        "threshold-N", {"branch1": branch1, "branch2": branch2}, float(branch1), citation
    )


def _bound_double_not_integral(args, cfg) -> BoundReport:
    N, x = _require(args, "N", "x")
    a = int(Fraction(x))
    v = a**3 - int(N) ** 2 * a
    y = math.isqrt(v) if v > 0 else 0
    if v <= 0 or y * y != v:
        raise ValueError(f"abscissa {a} carries no integral point for N = {N}")
    return congruent.verify_double_not_integral(int(N), rational_point(a, y))


def _bound_nonidentity_multiplier(args, cfg) -> BoundReport:
    N, x, n = _require(args, "N", "x", "n")
    a = Fraction(x)
    return congruent.nonidentity_multiplier(int(N), rational_point(a, 0), int(n))


BOUND_REGISTRY: Dict[str, Callable] = {
    "multiple-height-cap": _bound_multiple_height_cap,
    "calculus": _bound_calculus,
    "poly-growth": _bound_poly_growth,
    "david-floor": _bound_david_floor,
    "n-cap-general": _bound_n_cap_general,
    "upper-form": _bound_upper_form,
    "gap-relation": _bound_gap_relation,
    "composite-cap": _bound_composite_cap,
    "n-cap-congruent": _bound_n_cap_congruent,
    "gap-floor": _bound_gap_floor,
    "threshold-N": _bound_threshold_N,
    "double-not-integral": _bound_double_not_integral,
    "nonidentity-multiplier": _bound_nonidentity_multiplier,
}


def cmd_bounds(args: argparse.Namespace, cfg: RunConfig) -> int:
    handler = BOUND_REGISTRY.get(args.name)
    if handler is None:
        raise UnknownBound(f"unknown bound {args.name!r}; known: {', '.join(sorted(BOUND_REGISTRY))}")
    report = handler(args, cfg)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "bounds",
        "precision_bits": cfg.precision_bits,
        "bound": report.to_json(),
    }
    _emit(doc, cfg)
    return EXIT_OK


# --- congruent table ---------------------------------------------------------


def _load_golden() -> Dict[int, List[Tuple[int, int, str]]]:
    text = resources.files("ellmult").joinpath(GOLDEN_RESOURCE).read_text()
    rows: Dict[int, List[Tuple[int, int, str]]] = {}
    for line in text.strip().split("\n")[1:]:
        n_str, x_str, y_str, h_str = line.split(",")
        rows.setdefault(int(n_str), []).append((int(x_str), int(y_str), h_str))
    return rows


def _table_rows(table) -> Dict[int, List[Tuple[int, int, str]]]:
    rows: Dict[int, List[Tuple[int, int, str]]] = {}
    for row in table.rows:
        rows[row.N] = [
            (int(P.x), int(P.y), f"{float(h):.12g}") for P, h in zip(row.points, row.heights)
        ]
    return rows


def cmd_congruent_table(args: argparse.Namespace, cfg: RunConfig) -> int:
    n_max = args.N_max if args.N_max is not None else 75
    table = congruent.reproduce_table(N_max=n_max, x_max=cfg.x_max, height_tol=cfg.tol)
    computed = _table_rows(table)
    golden = {N: pts for N, pts in _load_golden().items() if N <= n_max}
    diff = []
    for N in sorted(set(golden) | set(computed)):
        if golden.get(N) != computed.get(N):
            diff.append(
                {
                    "N": N,
                    "expected": [list(t) for t in golden.get(N, [])],
                    "got": [list(t) for t in computed.get(N, [])],
                }
            )
    match = not diff
    if cfg.output_format == "csv":
        sys.stdout.write(congruent.table_csv(table))
    else:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "congruent-table",
            "precision_bits": cfg.precision_bits,
            "table": table.to_json(),
            "golden": {"resource": GOLDEN_RESOURCE, "match": match, "diff": diff},
        }
        _emit(doc, cfg)
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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
    sp.add_argument("--x-max", dest="x_max", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--tol", dest="tol", type=float, default=None)
    sp.add_argument(
        "--format", dest="output_format", choices=("json", "csv", "text"), default=None
    )


def _add_curve_point(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--A", type=int, required=True)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--x", type=Fraction, required=True)
    sp.add_argument("--y", type=Fraction, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellmult",
        description="Exact and analytic machinery for integral multiples on elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full per-point report")
    _add_curve_point(analyze)
    _add_common(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    eds = sub.add_parser("eds", help="division-value sequence terms")
    _add_curve_point(eds)
    _add_common(eds)
    eds.set_defaults(handler=cmd_eds)

    hts = sub.add_parser("heights", help="naive and canonical heights")
    _add_curve_point(hts)
    _add_common(hts)
    hts.set_defaults(handler=cmd_heights)

    periods = sub.add_parser("periods", help="real period, second period, tau")
    periods.add_argument("--A", type=int, required=True)
    periods.add_argument("--B", type=int, required=True)
    _add_common(periods)
    periods.set_defaults(handler=cmd_periods)

    bnd = sub.add_parser("bounds", help="evaluate a named bound report")
    bnd.add_argument("name")
    for flag, conv in (
        ("--n", int),
        ("--n1", int),
        ("--n2", int),
        ("--M", int),
        ("--N", int),
        ("--hE", float),
        ("--c1", float),
        ("--omega", float),
        ("--Clam", float),
        ("--a", float),
        ("--b", float),
        ("--W", float),
        ("--logB", float),
        ("--logV1", float),
        ("--logV2", float),
    ):
        bnd.add_argument(flag, type=conv, default=None)
    bnd.add_argument("--x", type=str, default=None)
    bnd.add_argument("--coeffs", type=str, default=None)
    _add_common(bnd)
    bnd.set_defaults(handler=cmd_bounds)

    table = sub.add_parser("congruent-table", help="rebuild the N <= 75 point table")
    table.add_argument("--N-max", dest="N_max", type=int, default=None)
    _add_common(table)
    table.set_defaults(handler=cmd_congruent_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
    except (ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") raises the latter
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT
    try:
        return args.handler(args, cfg)
    except PrecisionExhausted as exc:
        _emit_error(exc, EXIT_PRECISION)
        return EXIT_PRECISION
    except (EllmultError, ValueError, TypeError, ZeroDivisionError) as exc:
        _emit_error(exc, EXIT_INPUT)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
