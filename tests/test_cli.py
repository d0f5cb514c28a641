"""Exit codes, settings, and output shapes of the command line."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest
from mpmath.ctx_mp import MPContext

import ellmult
from ellmult import analytic, bounds, cli, congruent, curves, factorization, heights
from ellmult._precision import context
from test_analytic import _polyroots


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# --- analyze ----------------------------------------------------------------


def test_analyze_congruent_point(capsys):
    code, doc = run_json(
        capsys, "analyze", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--n-max", "6"
    )
    assert code == 0
    assert doc["schema"] == "ellmult/1"
    assert doc["curve"]["discriminant"] == 10**6
    assert doc["curve"]["j"] == "1728"
    rows = doc["ward"]["rows"]
    assert rows[2]["D"] == 12 and rows[2]["h"] == 12
    assert len(rows) == 7
    assert doc["reduction"]["M"] == 1
    assert abs(doc["heights"]["canonical"]["value"] - 0.9497410862414) < 1e-9
    assert doc["analytic"]["elliptic_log"] is None
    assert doc["analytic"]["elliptic_log_note"]
    names = [r["name"] for r in doc["reports"]]
    assert "height-window" in names and "double-not-integral" in names
    assert "height-difference-window" in names and "height-floor-window" in names
    by_name = {r["name"]: r for r in doc["reports"]}
    # x = -4 sits on the bounded oval, outside the upper window's domain
    assert by_name["height-upper-window"]["applicable"] is False
    assert all(r["holds"] for r in doc["reports"] if r["applicable"])


def test_analyze_unbounded_component_has_log(capsys):
    code, doc = run_json(
        capsys, "analyze", "--A", "-25", "--B", "0", "--x", "45", "--y", "300", "--n-max", "3"
    )
    assert code == 0
    z = doc["analytic"]["elliptic_log"]
    assert z is not None
    assert abs(z) < doc["analytic"]["omega"] + 1e-12
    by_name = {r["name"]: r for r in doc["reports"]}
    assert by_name["height-upper-window"]["applicable"] is True
    assert by_name["height-upper-window"]["holds"] is True


def test_analyze_rational_point_skips_ward(capsys):
    code, doc = run_json(
        capsys, "analyze", "--A", "0", "--B", "17", "--x", "1/4", "--y", "33/8"
    )
    assert code == 0
    assert doc["ward"] is None
    assert doc["point"]["integral"] is False


def test_analyze_off_the_congruent_family_reports_only_the_height_window(capsys):
    # -A = 2 is not a square, so the curve is no y^2 = x^3 - N^2 x and no congruent-number report applies
    code, doc = run_json(capsys, "analyze", "--A", "-2", "--B", "0", "--x", "2", "--y", "2", "--n-max", "3")
    assert code == 0
    assert [r["name"] for r in doc["reports"]] == ["height-window"]
    assert doc["reports"][0]["holds"] is True
    assert doc["reduction"]["r"] == {"2": 2}


def test_negative_fraction_as_separate_argument(capsys):
    base = ["heights", "--A", "0", "--B", "17", "--x", "1/4"]
    code, doc = run_json(capsys, *base, "--y", "-33/8")
    assert code == 0
    assert doc["point"]["y"] == "-33/8"
    assert (code, doc) == run_json(capsys, *base, "--y=-33/8")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["heights", "--A", "-25", "--x", "-4", "--y", "6"], "required: --B"),
        (["heights", "--A", "x", "--B", "0", "--x", "-4", "--y", "6"], "invalid int value"),
        (["periods", "--A", "-25", "--B", "0", "--bogus"], "unrecognized arguments"),
        (["no-such-command"], "invalid choice"),
        (["heights", "--A", "0", "--B", "17", "--x", "1/0", "--y", "3"], "Fraction(1, 0)"),
        (["bounds", "double-not-integral", "--N", "5", "--x", "1/0"], "Fraction(1, 0)"),
        (["congruent-table", "--N-max", "7", "--tol", "1e-12"], "unrecognized arguments: --tol 1e-12"),
    ],
)
def test_usage_error_is_json_exit_2(capsys, argv, message):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["exit_code"] == 2
    assert message in doc["error"]["message"]


def test_analyze_off_curve_exit_2(capsys):
    code, doc = run_json(capsys, "analyze", "--A", "-25", "--B", "0", "--x", "3", "--y", "3")
    assert code == 2
    assert doc["error"]["type"] == "OffCurve"


def test_analyze_singular_curve_exit_2(capsys):
    code, doc = run_json(capsys, "analyze", "--A", "0", "--B", "0", "--x", "0", "--y", "0")
    assert code == 2
    assert doc["error"]["type"] == "SingularCurve"


def test_text_format(capsys):
    code, out = run(
        capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--format", "text"
    )
    assert code == 0
    assert "schema = ellmult/1" in out
    assert any(line.startswith("heights.canonical.value = 0.94974") for line in out.splitlines())


def test_csv_format_key_value(capsys):
    code, out = run(
        capsys, "periods", "--A", "-25", "--B", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("omega,1.17261978646") for line in lines)


# --- eds / heights / periods --------------------------------------------------


def test_eds_rows(capsys):
    code, doc = run_json(
        capsys, "eds", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--n-max", "4"
    )
    assert code == 0
    h = [row["h"] for row in doc["rows"]]
    assert h == [0, 1, 12, -2257, -1494696]


def test_heights_doc(capsys):
    code, doc = run_json(capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6")
    assert code == 0
    assert doc["M"] == 1
    # h(E) sits below the validity cutoff of the height floor, so no floor applies
    assert doc["lang_floor"] is None
    assert doc["heights"]["torsion_order"] is None
    assert doc["reports"][0]["name"] == "height-window"


def test_heights_torsion_point(capsys):
    code, doc = run_json(capsys, "heights", "--A", "-25", "--B", "0", "--x", "5", "--y", "0")
    assert code == 0
    assert doc["heights"]["torsion_order"] == 2
    assert doc["heights"]["canonical"]["value"] == 0.0


def test_periods_routes_agree(capsys):
    code, doc = run_json(capsys, "periods", "--A", "-25", "--B", "0")
    assert code == 0
    assert doc["route_delta"] < 1e-20
    assert doc["omega"] == pytest.approx(1.1726197864628052, abs=1e-12)
    assert doc["tau"] == [0.0, 1.0]
    assert doc["omega_floor"] > 0


def test_periods_on_a_curve_with_large_coefficients(capsys):
    # omega is about 3.7e-15: with eps/8 taken as an absolute bound, as ctx.quad
    # takes it, the quadrature route landed 2^-58 off and the command exited 4
    code, doc = run_json(capsys, "periods", f"--A={10**60}", "--B=1")
    assert code == 0
    assert doc["route_delta"] <= doc["omega"] * 2.0**-140


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("A, B", [(-3 * 10**12, 2 * 10**18 + d) for d in (1, -1)] + [(-3 * 10**10, 2 * 10**15 + 1)])
def test_nearly_singular_periods_exit_0(capsys, A, B, bits):
    # a double root of x^3 + A x + B at 10^6 or 10^5, split by B +- 1
    code, doc = run_json(capsys, "periods", f"--A={A}", f"--B={B}", "--precision-bits", str(bits))
    assert code == 0
    ctx = context(2 * bits)
    omega = ctx.mpf(doc["omega_str"])
    assert ctx.mpf(doc["route_delta"]) <= omega * ctx.mpf(2) ** -(bits - 16)
    # an AGM of its own at twice the precision, on the roots ctx.polyroots finds
    e1, e2, e3 = _polyroots(curves.make_curve(A, B), ctx)
    reference = ctx.pi / ctx.re(ctx.agm(ctx.sqrt(e1 - e2), ctx.sqrt(e1 - e3)))
    assert abs(omega - reference) <= reference * ctx.mpf(2) ** -bits


def _close_pair_omega(A, B, bits):
    """omega of y^2 = x^3 + A x + B by an AGM at 2 bits, on root differences that do not cancel.

    The root far from the close pair e, e' comes from Newton's method, and
    |e - e'| from the discriminant 16 prod (e_i - e_j)^2 over g'(far)^2 =
    ((far - e)(far - e'))^2, so no two nearly equal numbers are subtracted.
    """
    ctx = context(2 * bits)
    far = -2 * ctx.sqrt(ctx.mpf(-A) / 3)
    for _ in range(12):
        far -= (far**3 + A * far + B) / (3 * far**2 + A)
    disc = curves.make_curve(A, B).discriminant
    gap = ctx.sqrt(abs(ctx.mpf(disc)) / 16) / (3 * far**2 + A)
    if disc > 0:  # e1 - e2 = gap, e3 = far
        return ctx.pi / ctx.agm(ctx.sqrt((gap - 3 * far) / 2), ctx.sqrt(gap))
    # e1 = far and e2 = -far/2 + i gap/2
    y = ctx.mpc(3 * far / 2, -gap / 2)
    return ctx.pi / ctx.agm(ctx.sqrt(y).real, ctx.sqrt(abs(y)))


@pytest.mark.parametrize("k, d", [(60, -1), (66, -1), (200, -1), (30, 1), (200, 1)])
def test_periods_of_a_split_double_root_exit_0(capsys, k, d):
    # (-3 10^k, 2 10^(3k/2) + d) has a double root at 10^(k/2) split by d.  With
    # d = -1 the two close real roots differ only in the last 10 of 160 bits
    # at k = 60 and round to one value from k = 66 on, so their difference is
    # taken from roots isolated again at a wider precision.  With d = 1 the
    # pair is 10^(k/2) +- i 10^(-k/4)/sqrt(3) and e1 - e2 lies close to the
    # negative axis, where R_F must not form Re sqrt(e1 - e2) by cancellation.
    A, B = -3 * 10**k, 2 * 10 ** (3 * k // 2) + d
    code, doc = run_json(capsys, "periods", f"--A={A}", f"--B={B}", "--precision-bits", "128")
    assert code == 0
    ctx = context(256)
    omega = ctx.mpf(doc["omega_str"])
    assert ctx.mpf(doc["route_delta"]) <= omega * ctx.mpf(2) ** -(128 - 16)
    reference = _close_pair_omega(A, B, 128)
    assert abs(omega - reference) <= reference * ctx.mpf(2) ** -128


def test_periods_floor_past_the_float_range(capsys):
    # 1 + |A| + |B| = 10^400 + 2 does not convert to a float
    code, doc = run_json(capsys, "periods", f"--A={10**400}", "--B=1")
    assert code == 0
    assert doc["omega_floor"] == pytest.approx(1e-200, rel=1e-15)


def test_analyze_near_two_torsion_exit_0(capsys):
    # (2, 3) lies 9/A from the real 2-torsion point
    code, doc = run_json(
        capsys, "analyze", "--A=10000000000000007", "--B=-20000000000000013", "--x=2", "--y=3", "--n-max", "10"
    )
    assert code == 0
    assert doc["analytic"]["elliptic_log_str"].startswith("-0.000185407466459")


def test_periods_isolates_the_roots_of_a_curve_with_huge_coefficients(capsys):
    # mpmath's polyroots did not converge here in 200 steps at 128 bits
    code, doc = run_json(capsys, "periods", f"--A={-(10**100)}", f"--B={10**140}")
    assert code == 0
    assert doc["route_delta"] <= doc["omega"] * 2.0 ** -(doc["precision_bits"] - 16)
    assert doc["omega_str"] == doc["omega_quadrature_str"]


def test_precision_exhausted_exit_4(capsys):
    code, doc = run_json(
        capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--tol", "1e-30"
    )
    assert code == 4
    assert doc["error"]["type"] == "PrecisionExhausted"
    assert doc["error"]["exit_code"] == 4


# --- work done per command ---------------------------------------------------------


def _count_calls(monkeypatch, *targets):
    """Wrap each (module, name) so the returned Counter records its calls."""
    calls = Counter()
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


COUNTED = ((heights, "torsion_order"), (heights, "canonical_height"), (analytic, "_cubic_roots"))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--n-max", "4"],
        ["analyze", "--A", "-25", "--B", "0", "--x", "45", "--y", "300", "--n-max", "4"],
        ["analyze", "--A", "-25", "--B", "0", "--x", "5", "--y", "0", "--n-max", "4"],
    ],
)
def test_analyze_computes_each_quantity_once(capsys, monkeypatch, argv):
    calls = _count_calls(monkeypatch, *COUNTED)
    code, _ = run(capsys, *argv)
    assert code == 0
    # the elliptic log reuses the roots that period_data isolated
    assert calls == {"torsion_order": 1, "canonical_height": 1, "_cubic_roots": 1}


def test_analyze_factors_N_once(capsys, monkeypatch):
    calls = Counter()
    original = factorization.factor_int

    def counting(n):
        calls[n] += 1
        return original(n)

    for module in (congruent, curves, factorization):
        monkeypatch.setattr(module, "factor_int", counting)
    code, _ = run(capsys, "analyze", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--n-max", "30")
    assert code == 0
    # gcd(A, B) = N^2 once where quasi_minimalize looks for primes to strip,
    # the discriminant 64 N^6 once for the reduction profile, which also decides
    # that N is square-free, and N once where the congruent windows validate it
    assert calls == {25: 1, 5: 1, 1000000: 1}


def test_heights_computes_each_quantity_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, *COUNTED)
    code, _ = run(capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6")
    assert code == 0
    assert calls == {"torsion_order": 1, "canonical_height": 1}


@pytest.mark.parametrize("n_max", ["5", "50"])
def test_eds_checks_the_point_once_on_entry(capsys, monkeypatch, n_max):
    calls = _count_calls(monkeypatch, (curves, "on_curve"))
    code, _ = run(capsys, "eds", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--n-max", n_max)
    assert code == 0
    # where the walk that ward_terms reads is built
    assert calls == {"on_curve": 1}


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
@pytest.mark.parametrize("command", [["analyze", "--n-max", "5"], ["heights"]], ids=["analyze", "heights"])
@pytest.mark.parametrize("u", [1, 2])
def test_point_commands_check_the_point_once(capsys, monkeypatch, command, u):
    calls = _count_calls(monkeypatch, (curves, "on_curve"))
    argv = [*command, f"--A={-25 * u**4}", "--B=0", f"--x={-4 * u**2}", f"--y={6 * u**3}"]
    code, _ = run(capsys, *argv)
    assert code == 0
    # once, on the quasi-minimal model, where the one walk is built
    assert calls == {"on_curve": 1}


@pytest.mark.parametrize("command", ["analyze", "heights"])
def test_off_curve_point_on_a_scaled_model_is_reported_as_given(capsys, monkeypatch, command):
    calls = _count_calls(monkeypatch, (curves, "on_curve"))
    # u = 2: the check runs on (-25, 0) at (3/4, 3/8), the message names argv's point and model
    code, doc = run_json(capsys, command, "--A", "-400", "--B", "0", "--x", "3", "--y", "3")
    assert code == 2
    assert doc["error"] == {
        "exit_code": 2,
        "message": "(3, 3) is not on y^2 = x^3 + -400 x + 0",
        "type": "OffCurve",
    }
    assert calls == {"on_curve": 1}


def _model_free_part(command, doc):
    """What must not depend on the model: M, r, h(E), hhat, lang_floor and each report's verdict."""
    profile = doc["reduction"] if command == "analyze" else {"M": doc["M"]}
    return {
        "M": profile["M"],
        "r": profile.get("r"),
        "hE": doc["curve"]["height"]["value"],
        "hhat": doc["heights"]["canonical"]["value"],
        "lang_floor": doc.get("lang_floor"),
        "reports": [(r["name"], r["holds"], r["threshold"]) for r in doc["reports"]],
    }


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
@pytest.mark.parametrize("command", [["analyze", "--n-max", "5"], ["heights"]], ids=["analyze", "heights"])
@pytest.mark.parametrize("N, x, y", [(5, -4, 6), (15, -9, 36)], ids=["N=5", "N=15"])
def test_scaled_models_give_the_same_answers(capsys, command, N, x, y):
    answers = []
    for u in (1, 2, 3, 6):
        argv = [*command, f"--A={-N * N * u**4}", "--B=0", f"--x={x * u**2}", f"--y={y * u**3}"]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["input_model"] == {"A": -N * N * u**4, "B": 0, "u": u}
        assert doc["curve"]["A"] == -N * N and (doc["point"]["x"], doc["point"]["y"]) == (str(x), str(y))
        answers.append(_model_free_part(command[0], doc))
    assert answers[1:] == answers[:1] * 3


def test_periods_isolates_roots_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, *COUNTED)
    code, _ = run(capsys, "periods", "--A", "0", "--B", "17", "--precision-bits", "128")
    assert code == 0
    assert calls == {"_cubic_roots": 1}


PERIOD_ARGV = [
    ["analyze", "--A", "-25", "--B", "0", "--x", "45", "--y", "300", "--n-max", "4"],
    ["analyze", "--A", "1", "--B", "1", "--x", "0", "--y", "1", "--n-max", "4"],
    ["periods", "--A", "-25", "--B", "0"],
    ["periods", "--A", "1", "--B", "1", "--precision-bits", "256"],
]


def _run_without(capsys, monkeypatch, method, argv):
    """Run argv with MPContext.<method> raising; both period routes and the log must still come out.

    argv runs once unpatched first, so every context it needs exists: creating
    an MPContext binds its special functions on the class again, over the patch.
    """

    def refuse(*args, **kwargs):
        raise AssertionError(f"mpmath's {method} was called")

    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(MPContext, method, refuse)
    code, doc = run_json(capsys, *argv)
    assert code == 0
    if argv[0] == "analyze":
        assert doc["analytic"]["elliptic_log_str"]
    else:
        assert doc["omega_quadrature_str"]


@pytest.mark.parametrize("argv", PERIOD_ARGV)
def test_no_command_reaches_mpmath_quadrature(capsys, monkeypatch, argv):
    _run_without(capsys, monkeypatch, "quad", argv)


@pytest.mark.parametrize("argv", PERIOD_ARGV)
def test_no_command_reaches_elliprf(capsys, monkeypatch, argv):
    _run_without(capsys, monkeypatch, "elliprf", argv)


# --- settings: flags, defaults and rules ------------------------------------------


def test_invalid_precision_exit_2(capsys):
    code, doc = run_json(
        capsys, "periods", "--A", "-25", "--B", "0", "--precision-bits", "32"
    )
    assert code == 2
    assert doc["error"]["type"] == "ValueError"


# the settings each subcommand takes besides --format
TAKEN = {
    "analyze": {"precision_bits", "n_max", "tol"},
    "eds": {"n_max"},
    "heights": {"tol"},
    "periods": {"precision_bits"},
    "bounds": set(),
    "congruent-table": {"x_max"},
}
SUBCOMMAND_ARGV = {
    "analyze": ["analyze", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6"],
    "eds": ["eds", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6"],
    "heights": ["heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6"],
    "periods": ["periods", "--A", "-25", "--B", "0"],
    "bounds": ["bounds", "calculus", "--a", "1", "--b", "1"],
    "congruent-table": ["congruent-table", "--N-max", "7"],
}
SETTING_VALUES = {"precision_bits": "256", "x_max": "1000", "n_max": "5", "tol": "1e-8", "output_format": "text"}


def parser_settings():
    """Subcommand -> the settings its build_parser() subparser takes besides --format."""
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest for a in sp._actions if a.dest in cli.SETTINGS} - {"output_format"}
        for name, sp in subparsers.choices.items()
    }


@pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
@pytest.mark.parametrize("setting", list(SETTING_VALUES))
def test_subcommand_takes_only_its_settings(capsys, command, setting):
    argv = SUBCOMMAND_ARGV[command] + [cli.SETTINGS[setting].flag, SETTING_VALUES[setting]]
    if setting == "output_format" or setting in TAKEN[command]:
        args = cli.build_parser().parse_args(argv)
        assert {name for name in cli.SETTINGS if hasattr(args, name)} == TAKEN[command] | {"output_format"}
        assert getattr(args, setting) == cli.SETTINGS[setting].parse(SETTING_VALUES[setting])
        args = cli.build_parser().parse_args(SUBCOMMAND_ARGV[command])
        assert getattr(args, setting) == cli.SETTINGS[setting].default
    else:
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"]["message"] == f"unrecognized arguments: {' '.join(argv[-2:])}"


def test_settable_pairs():
    taken = parser_settings()
    assert taken == TAKEN
    assert sum(len(settings) + 1 for settings in taken.values()) == 13


def test_readme_lists_every_subcommand_with_its_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("takes `--format` and these settings", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, re.M)
    flags = {setting.flag: name for name, setting in cli.SETTINGS.items()}
    listed = {name: {flags[f] for f in re.findall(r"`(--[\w-]+)`", cell)} for name, cell in rows}
    assert listed == parser_settings()


@pytest.mark.parametrize(
    "argv",
    [argv for command, argv in SUBCOMMAND_ARGV.items() if command != "congruent-table"]
    + [["bounds", "n-cap-congruent", "--N", "56"]],
    ids=" ".join,
)
def test_csv_document_has_two_fields_a_row(capsys, argv):
    # values such as the boundary note and a bound's citation hold commas, and are quoted
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert [len(row) for row in rows] == [2] * len(rows)


@pytest.mark.parametrize("tol", ["1e-10", "1e-3", "0.5"])
def test_heights_reports_the_precision_it_used(capsys, tol):
    code, doc = run_json(capsys, *SUBCOMMAND_ARGV["heights"], "--tol", tol)
    assert code == 0
    assert doc["precision_bits"] == heights.HEIGHT_BITS == 128


def test_analyze_reports_its_height_precision(capsys):
    code, doc = run_json(capsys, *SUBCOMMAND_ARGV["analyze"], "--precision-bits", "256", "--n-max", "2")
    assert code == 0
    assert doc["precision_bits"] == 256
    assert doc["heights"]["canonical"]["precision_bits"] == heights.HEIGHT_BITS == 128


TORSION_ARGV = ["--A", "-25", "--B", "0", "--x", "5", "--y", "0"]


@pytest.mark.parametrize(
    "argv, height_keys",
    [
        (["heights", *TORSION_ARGV, "--tol", "1e-30"], [(), ("heights", "canonical")]),
        (["analyze", *TORSION_ARGV, "--n-max", "3", "--tol", "1e-30"], [("heights", "canonical")]),
    ],
    ids=["heights", "analyze"],
)
def test_tight_tolerance_reports_the_height_precision_it_ran_at(capsys, argv, height_keys):
    # no doubling runs at a torsion point, so nothing ran above 128 bits
    code, doc = run_json(capsys, *argv)
    assert code == 0
    for keys in height_keys:
        section = doc
        for key in keys:
            section = section[key]
        assert section["precision_bits"] == 128, keys


@pytest.mark.parametrize(
    "argv",
    [
        ["poly-growth", "--W", "1e30"],
        ["n-cap-congruent", "--N", "56"],
        ["poly-growth", "--W", "1e30", "--coeffs", "1,2"],
        ["calculus", "--a", "1", "--b", "1"],
        ["gap-floor", "--n1", "11", "--N", "75"],
    ],
)
def test_bounds_report_the_precision_they_ran_at(capsys, argv):
    # every bound runs at bounds.EVAL_BITS; no flag sets another precision
    code, doc = run_json(capsys, "bounds", *argv, "--precision-bits", "256")
    assert code == 2
    assert doc["error"]["message"] == "unrecognized arguments: --precision-bits 256"
    code, doc = run_json(capsys, "bounds", *argv)
    assert code == 0
    assert doc["precision_bits"] == bounds.EVAL_BITS == 128


def test_nonpositive_tol_exit_2(capsys):
    code, doc = run_json(
        capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--tol", "0"
    )
    assert code == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_tol_must_be_positive_and_finite_exit_2(capsys, tol):
    code, doc = run_json(capsys, *SUBCOMMAND_ARGV["heights"], "--tol", tol)
    assert code == 2
    assert doc["error"]["message"] == f"argument --tol: must be positive and finite, got {tol}"


# --- bounds registry -------------------------------------------------------------


# flags of one run of each bound, and its text output between the name and
# the trailing "bound.applicable = True", without the "bound." prefix
BOUND_TEXT = {
    "multiple-height-cap": (
        ["--n", "2", "--M", "1", "--hE", "3.0"],
        "inputs.n = 2\n"
        "inputs.M = 1\n"
        "inputs.hE = 3.0\n"
        "threshold = 22.693147180559944\n"
        "holds = True\n"
        "citation = hhat(P) <= log n + (16 M^2 / 3 + 2) h(E) when nP is integral\n"
    ),
    "calculus": (
        ["--a", "4.1", "--b", "4.217"],
        "inputs.a = 4.1\n"
        "inputs.b = 4.217\n"
        "threshold = 8.317\n"
        "holds = True\n"
        "citation = x^2 - a log x - b >= 0 for every x >= max{e, a + b}\n"
    ),
    "poly-growth": (
        ["--W", "3.6e27"],
        "inputs.W = 3.6e+27\n"
        "inputs.degree = 6\n"
        "inputs.max_term = 4.92547447771882e+55\n"
        "threshold = 1.296e+55\n"
        "holds = False\n"
        "citation = W^2 > 2^-k P^(k)(log W) for k = 0..deg implies x^2 > P(log x) for x >= W\n"
    ),
    "david-floor": (
        ["--logB", "20", "--logV1", "10", "--logV2", "5", "--hE", "2.5"],
        "inputs.logB = 20.0\n"
        "inputs.logV1 = 10.0\n"
        "inputs.logV2 = 5.0\n"
        "inputs.hE = 2.5\n"
        "inputs.C = 4e+41\n"
        "threshold = -1.1511545671847509e+47\n"
        "holds = True\n"
        "citation = log|L| >= -C (log B + 1)(log log B + h(E) + 1)^3 log V1 log V2, C = 4x10^41\n"
    ),
    "n-cap-general": (
        ["--M", "1", "--hE", "11.0"],
        "inputs.M = 1\n"
        "inputs.hE = 11.0\n"
        "inputs.height_floor = 10.882796185405306\n"
        "threshold = 6.170906467439195e+27\n"
        "holds = True\n"
        "citation = n with nP integral is capped once h(E) >= 2 pi sqrt(3); below that no cap is emitted\n"
    ),
    "upper-form": (
        ["--n", "2", "--c1", "1e-5", "--hE", "3.0"],
        "inputs.n = 2\n"
        "inputs.c1 = 1e-05\n"
        "inputs.hE = 3.0\n"
        "threshold = -0.00012000000000000002\n"
        "holds = True\n"
        "citation = log|L_{n,m}(z, omega)| <= -c1 n^2 h(E) for n beyond the regime constant\n"
    ),
    "gap-relation": (
        ["--n1", "2", "--n2", "1000000", "--hE", "3.0", "--c1", "1e-5", "--omega", "1.0"],
        "inputs.n1 = 2\n"
        "inputs.n2 = 1000000\n"
        "inputs.hE = 3.0\n"
        "inputs.c1 = 1e-05\n"
        "inputs.omega = 1.0\n"
        "inputs.log_n2 = 13.815510557964274\n"
        "threshold = -0.6930271805599453\n"
        "holds = True\n"
        "citation = c1 n1^2 h(E) + log(omega) - log(2) <= log n2\n"
    ),
    "composite-cap": (
        ["--M", "1", "--hE", "10", "--Clam", "1e-5"],
        "inputs.M = 1\n"
        "inputs.hE = 10.0\n"
        "inputs.Clam = 1e-05\n"
        "threshold = 743333.3333333331\n"
        "holds = True\n"
        "citation = a <= max{e, (1/C_lam)(1/h(E) + 16 M^2 / 3 + 2)} for composite n = a b\n"
    ),
    "n-cap-congruent": (
        ["--N", "56"],
        "inputs.N = 56\n"
        "inputs.g = 2.9298953270238086\n"
        "inputs.g_holds = True\n"
        "threshold = 3.6e+27\n"
        "holds = True\n"
        "citation = n <= max{3.6e27, 9.196e23 (log N)^{5/2}} when nP is integral and N >= 56\n"
    ),
    "gap-floor": (
        ["--n1", "11", "--N", "75"],
        "inputs.n1 = 11\n"
        "inputs.N = 75\n"
        "threshold = 63.41407581554013\n"
        "holds = True\n"
        "citation = log n2 >= (n1^2/8) log N - log(N)/2 + log(omega1/2)\n"
    ),
    "threshold-N": (
        [],
        "inputs.branch1 = 75\n"
        "inputs.branch2 = 54\n"
        "threshold = 75.0\n"
        "holds = True\n"
        "citation = largest N with gap_floor(11, N) below each multiplier-cap branch\n"
    ),
    "double-not-integral": (
        ["--N", "5", "--x", "-4"],
        "inputs.N = 5\n"
        "inputs.x = -4\n"
        "inputs.ord2 = -4\n"
        "inputs.x_parity = 0\n"
        "inputs.N_parity = 1\n"
        "inputs.case_floor = -2\n"
        "threshold = -2.0\n"
        "holds = True\n"
        "citation = x(2P) = (x^2 + N^2)^2 / (4 (x^3 - N^2 x)) has ord_2 < 0 for integral non-torsion P\n"
    ),
    "nonidentity-multiplier": (
        ["--N", "5", "--x", "-4", "--n", "3"],
        "inputs.N = 5\n"
        "inputs.x = -4.0\n"
        "inputs.n = 3\n"
        "inputs.n_squared = 9\n"
        "inputs.chain_bound = 6.85887727528042\n"
        "threshold = 6.85887727528042\n"
        "holds = False\n"
        "citation = n^2 < 8 (log(N)/2 + log(N^2 + 1)/4 + log(2)/12) / (log N + log(2)/2) <= 8 forces n = 1\n"
    ),
}

# bound -> (flag named when none is given, flag named when only it is left out)
MISSING_FLAG = {
    "multiple-height-cap": ("--n", "--hE"),
    "calculus": ("--a", "--b"),
    "poly-growth": ("--W", "--W"),
    "david-floor": ("--logB", "--hE"),
    "n-cap-general": ("--M", "--hE"),
    "upper-form": ("--n", "--hE"),
    "gap-relation": ("--n1", "--omega"),
    "composite-cap": ("--M", "--Clam"),
    "n-cap-congruent": ("--N", "--N"),
    "gap-floor": ("--n1", "--N"),
    "double-not-integral": ("--N", "--x"),
    "nonidentity-multiplier": ("--N", "--n"),
}


def test_every_registered_bound_is_pinned():
    assert list(BOUND_TEXT) == list(cli.BOUND_REGISTRY)
    required = [name for name, params in cli.BOUND_PARAMS.items() if any(req for _, req in params)]
    assert list(MISSING_FLAG) == required


@pytest.mark.parametrize("name", list(BOUND_TEXT))
def test_bounds_text_output(capsys, name):
    flags, body = BOUND_TEXT[name]
    code, out = run(capsys, "bounds", name, *flags, "--format", "text")
    assert code == 0
    head = f"schema = ellmult/1\ncommand = bounds\nprecision_bits = 128\nbound.name = {name}\n"
    lines = "".join(f"bound.{line}\n" for line in body.splitlines())
    assert out == head + lines + "bound.applicable = True\n"


@pytest.mark.parametrize("name", list(MISSING_FLAG))
def test_bounds_missing_flag_exit_2(capsys, name):
    first, last = MISSING_FLAG[name]
    flags = BOUND_TEXT[name][0]
    i = flags.index(last)
    for argv, flag in (([], first), (flags[:i] + flags[i + 2 :], last)):
        code, doc = run_json(capsys, "bounds", name, *argv)
        assert code == 2
        assert doc["error"]["message"] == f"bound requires {flag}"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["calculus", "--a", "1", "--b", "1", "--N", "5"], "--N"),
        (["gap-floor", "--n1", "11", "--N", "75", "--x", "3"], "--x"),
    ],
)
def test_bounds_rejects_flag_its_bound_does_not_take(capsys, argv, flag):
    code, doc = run_json(capsys, "bounds", *argv)
    assert code == 2
    assert doc["error"]["message"] == f"bound {argv[0]} does not take {flag}"


def test_bound_flags_from_signatures():
    assert cli.BOUND_FLAGS == {
        **dict.fromkeys(("n", "n1", "n2", "M", "N"), int),
        **dict.fromkeys(("hE", "c1", "omega", "Clam", "a", "b", "W", "logB", "logV1", "logV2"), float),
        **dict.fromkeys(("x", "coeffs"), str),
    }

    def takes_int(n: int) -> float:
        return n

    def takes_float(n: float, coeffs: Optional[str] = None) -> float:
        return n

    assert cli._signature_table({"f": takes_float}) == (
        {"f": [("n", True), ("coeffs", False)]},
        {"n": float, "coeffs": str},
    )
    with pytest.raises(TypeError, match="--n is annotated both int and float"):
        cli._signature_table({"i": takes_int, "f": takes_float})


def test_readme_lists_every_bound_with_its_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Registered bound names", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, re.M)
    assert [name for name, _ in rows] == list(cli.BOUND_REGISTRY)
    for name, flags in rows:
        assert re.findall(r"--(\w+)", flags) == [p for p, _ in cli.BOUND_PARAMS[name]], name


def test_bounds_calculus(capsys):
    code, doc = run_json(capsys, "bounds", "calculus", "--a", "4.1", "--b", "4.217")
    assert code == 0
    assert doc["bound"]["threshold"] == pytest.approx(8.317)


def test_bounds_unknown_name_exit_2(capsys):
    code, doc = run_json(capsys, "bounds", "no-such-bound")
    assert code == 2
    assert doc["error"]["type"] == "UnknownBound"


def test_bounds_missing_argument_exit_2(capsys):
    code, doc = run_json(capsys, "bounds", "calculus", "--a", "4.1")
    assert code == 2
    assert "--b" in doc["error"]["message"]


def test_bounds_multiple_height_cap(capsys):
    code, doc = run_json(
        capsys, "bounds", "multiple-height-cap", "--n", "2", "--M", "1", "--hE", "3.0"
    )
    assert code == 0
    import math

    assert doc["bound"]["threshold"] == pytest.approx(math.log(2) + (16 / 3 + 2) * 3.0)


def test_bounds_david_floor(capsys):
    code, doc = run_json(
        capsys,
        "bounds",
        "david-floor",
        "--logB",
        "20",
        "--logV1",
        "10",
        "--logV2",
        "5",
        "--hE",
        "2.5",
    )
    assert code == 0
    assert doc["bound"]["threshold"] < 0
    assert doc["bound"]["inputs"]["C"] == 4e41


def test_bounds_david_floor_inadmissible_exit_2(capsys):
    code, doc = run_json(
        capsys,
        "bounds",
        "david-floor",
        "--logB",
        "5",
        "--logV1",
        "10",
        "--logV2",
        "5",
        "--hE",
        "2.5",
    )
    assert code == 2
    assert doc["error"]["type"] == "InadmissibleParameters"


def test_bounds_poly_growth_explicit_coeffs(capsys):
    code, doc = run_json(
        capsys, "bounds", "poly-growth", "--W", "2", "--coeffs", "0,0,1"
    )
    assert code == 0
    assert doc["bound"]["holds"] is True
    assert doc["bound"]["inputs"]["degree"] == 2


def test_bounds_poly_growth_default_coeffs_red_at_stated_cap(capsys):
    # the stated cap fails the k = 0 comparison; the report says so honestly
    code, doc = run_json(capsys, "bounds", "poly-growth", "--W", "3.6e27")
    assert code == 0
    assert doc["bound"]["holds"] is False
    assert doc["bound"]["inputs"]["degree"] == 6
    code, doc = run_json(capsys, "bounds", "poly-growth", "--W", "7.4e27")
    assert code == 0
    assert doc["bound"]["holds"] is True


def test_bounds_n_cap_general_sentinel(capsys):
    code, doc = run_json(capsys, "bounds", "n-cap-general", "--M", "1", "--hE", "10.0")
    assert code == 0
    assert doc["bound"]["applicable"] is False
    assert doc["bound"]["holds"] is None
    code, doc = run_json(capsys, "bounds", "n-cap-general", "--M", "1", "--hE", "11.0")
    assert code == 0
    assert doc["bound"]["applicable"] is True
    assert doc["bound"]["threshold"] > 1e20


def test_bounds_n_cap_congruent(capsys):
    code, doc = run_json(capsys, "bounds", "n-cap-congruent", "--N", "56")
    assert code == 0
    assert doc["bound"]["threshold"] == pytest.approx(3.6e27)
    assert doc["bound"]["inputs"]["g_holds"] is True
    code, doc = run_json(capsys, "bounds", "n-cap-congruent", "--N", "55")
    assert code == 2


def test_bounds_threshold_n(capsys):
    code, doc = run_json(capsys, "bounds", "threshold-N")
    assert code == 0
    assert doc["bound"]["inputs"] == {"branch1": 75, "branch2": 54}


def test_bounds_gap_floor(capsys):
    code, doc = run_json(capsys, "bounds", "gap-floor", "--n1", "11", "--N", "75")
    assert code == 0
    assert doc["bound"]["threshold"] == pytest.approx(63.414, abs=1e-3)


def test_bounds_gap_relation(capsys):
    code, doc = run_json(
        capsys,
        "bounds",
        "gap-relation",
        "--n1",
        "2",
        "--n2",
        "1000000",
        "--hE",
        "3.0",
        "--c1",
        "1e-5",
        "--omega",
        "1.0",
    )
    assert code == 0
    assert doc["bound"]["holds"] is True


def test_bounds_upper_form_and_composite(capsys):
    code, doc = run_json(
        capsys, "bounds", "upper-form", "--n", "2", "--c1", "1e-5", "--hE", "3.0"
    )
    assert code == 0
    assert doc["bound"]["threshold"] == pytest.approx(-1.2e-4)
    code, doc = run_json(
        capsys, "bounds", "composite-cap", "--M", "1", "--hE", "10", "--Clam", "1e-5"
    )
    assert code == 0
    assert doc["bound"]["threshold"] == pytest.approx(1e5 * (0.1 + 16 / 3 + 2))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(flag for flag, kind in cli.BOUND_FLAGS.items() if kind is float))
def test_bounds_float_flags_must_be_finite_exit_2(capsys, flag, value):
    code, doc = run_json(capsys, "bounds", "calculus", f"--{flag}={value}")
    assert code == 2
    assert doc["error"]["message"] == f"argument --{flag}: must be finite, got {value}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["n-cap-general", "--M", "0", "--hE", "11"], "need M >= 1"),
        (["composite-cap", "--M", "1", "--hE", "0", "--Clam", "1"], "need M >= 1 and hE > 0"),
        (["poly-growth", "--W", "-5"], "W must be positive"),
        (["multiple-height-cap", "--n", "2", "--M", "1", "--hE", "-1"], "need hE > 0"),
        (["upper-form", "--n", "2", "--c1", "1e-5", "--hE", "0"], "need hE > 0"),
        (["david-floor", "--logB", "20", "--logV1", "10", "--logV2", "5", "--hE", "-2"], "need hE > 0"),
        (
            ["gap-relation", "--n1", "2", "--n2", "10", "--hE", "-3", "--c1", "1e-5", "--omega", "1"],
            "need n1 >= 1 and hE > 0",
        ),
        (
            ["gap-relation", "--n1", "-5", "--n2", "-1", "--hE", "3", "--c1", "1e-5", "--omega", "1"],
            "need n1 >= 1 and hE > 0",
        ),
        (["nonidentity-multiplier", "--N", "5", "--x", "-4", "--n", "0"], "need n >= 1"),
        (["nonidentity-multiplier", "--N", "5", "--x", "-4", "--n", "-1"], "need n >= 1"),
    ],
)
def test_bounds_reject_input_outside_their_statement_exit_2(capsys, argv, message):
    code, doc = run_json(capsys, "bounds", *argv)
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message, "exit_code": 2}


BIG_M = str(10**200)


@pytest.mark.parametrize(
    "argv, message, error",
    [
        (["poly-growth", "--W", "2", "--coeffs", "nan,1"], "argument --coeffs: must be finite, got nan", "ValueError"),
        (
            ["poly-growth", "--W", "2", "--coeffs", "1e400"],
            "argument --coeffs: must be finite, got 1e400",
            "ValueError",
        ),
        (
            ["multiple-height-cap", "--n", "2", "--M", "1000", "--hE", "1e308"],
            "bound multiple-height-cap: threshold is inf, not a finite number",
            "ValueError",
        ),
        (
            ["multiple-height-cap", "--n", "2", "--M", BIG_M, "--hE", "3"],
            "integer division result too large for a float",
            "OverflowError",
        ),
        (
            ["composite-cap", "--M", BIG_M, "--hE", "3", "--Clam", "1"],
            "integer division result too large for a float",
            "OverflowError",
        ),
        (["n-cap-general", "--M", BIG_M, "--hE", "11"], "int too large to convert to float", "OverflowError"),
    ],
)
def test_bounds_never_emit_nan_or_infinity_exit_2(capsys, argv, message, error):
    code, out = run(capsys, "bounds", *argv)
    assert code == 2
    assert json.loads(out)["error"] == {"type": error, "message": message, "exit_code": 2}
    assert "NaN" not in out and "Infinity" not in out


def test_emit_refuses_non_finite_floats(capsys):
    args = argparse.Namespace(command="bounds", output_format="json")
    with pytest.raises(ValueError):
        cli._emit(args, {"value": float("nan")})
    assert capsys.readouterr().out == ""


def test_bounds_double_not_integral(capsys):
    code, doc = run_json(capsys, "bounds", "double-not-integral", "--N", "5", "--x", "-4")
    assert code == 0
    assert doc["bound"]["holds"] is True
    assert doc["bound"]["inputs"]["ord2"] == -4
    code, doc = run_json(capsys, "bounds", "double-not-integral", "--N", "5", "--x", "3")
    assert code == 2


@pytest.mark.parametrize(
    "x, message",
    [
        ("-4.5", "abscissa -4.5 carries no rational point for N = 5"),
        ("7/2", "abscissa 7/2 carries no real point for N = 5"),
        ("1681/144", "abscissa 1681/144 is not an integer"),
    ],
    ids=["-4.5", "7/2", "1681/144"],
)
def test_bounds_double_not_integral_rejects_fraction(capsys, x, message):
    code, doc = run_json(capsys, "bounds", "double-not-integral", "--N", "5", "--x", x)
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message, "exit_code": 2}


@pytest.mark.parametrize("x", ["-4", "-4.0", "-8/2"])
def test_bounds_double_not_integral_integral_spellings_agree(capsys, x):
    # every spelling of an integer gives the same document as the plain one
    _, plain = run(capsys, "bounds", "double-not-integral", "--N", "5", "--x", "-4")
    code, out = run(capsys, "bounds", "double-not-integral", "--N", "5", "--x", x)
    assert code == 0
    assert out == plain


def test_bounds_nonidentity_multiplier(capsys):
    code, doc = run_json(
        capsys, "bounds", "nonidentity-multiplier", "--N", "5", "--x", "-4", "--n", "1"
    )
    assert code == 0
    assert doc["bound"]["holds"] is True
    assert doc["bound"]["inputs"]["chain_bound"] < 8
    code, doc = run_json(
        capsys, "bounds", "nonidentity-multiplier", "--N", "5", "--x", "-4", "--n", "3"
    )
    assert code == 0
    assert doc["bound"]["holds"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (["double-not-integral", "--N", "0", "--x", "1"], "N must be a square-free positive integer, got 0"),
        (["double-not-integral", "--N", "-5", "--x", "-4"], "N must be a square-free positive integer, got -5"),
        (["nonidentity-multiplier", "--N", "4", "--x", "4", "--n", "1"], "N must be a square-free positive integer, got 4"),
        (["gap-floor", "--n1", "11", "--N", "0"], "need N >= 1"),
        (["gap-floor", "--n1", "11", "--N", "-3"], "need N >= 1"),
    ],
)
def test_congruent_bounds_reject_N_outside_the_family(capsys, argv, message):
    code, doc = run_json(capsys, "bounds", *argv)
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message, "exit_code": 2}


@pytest.mark.parametrize("x", ["3", "-6", "1/2"])
def test_bounds_nonidentity_multiplier_rejects_abscissa_without_real_point(capsys, x):
    # x^3 - 25 x < 0 there, so no real point has this abscissa
    code, doc = run_json(capsys, "bounds", "nonidentity-multiplier", "--N", "5", "--x", x, "--n", "1")
    assert code == 2
    assert doc["error"]["message"] == f"abscissa {x} carries no real point for N = 5"


@pytest.mark.parametrize("x, kind", [("-1", "rational"), ("-1/2", "rational"), ("1/2", "real")])
def test_bounds_nonidentity_multiplier_rejects_abscissa_without_rational_point(capsys, x, kind):
    # x^3 - 25 x is 24, 99/8 and -99/8: no rational square, so no rational point
    code, doc = run_json(capsys, "bounds", "nonidentity-multiplier", "--N", "5", "--x", x, "--n", "1")
    assert code == 2
    assert "bound" not in doc
    assert doc["error"]["message"] == f"abscissa {x} carries no {kind} point for N = 5"


def test_bounds_nonidentity_multiplier_accepts_rational_point(capsys):
    # x(2P + (0, 0)) for P = (-4, 6) on N = 5, with y = 60 * 7595 / 41^3, on the bounded oval
    code, doc = run_json(capsys, "bounds", "nonidentity-multiplier", "--N", "5", "--x=-3600/1681", "--n", "1")
    assert code == 0
    assert doc["bound"]["holds"] is True


@pytest.mark.parametrize("x", ["45", "1681/144"])
def test_bounds_nonidentity_multiplier_rejects_unbounded_component(capsys, x):
    # (45, 300) and x(2P) for P = (-4, 6) lie on the unbounded component x >= N
    code, doc = run_json(capsys, "bounds", "nonidentity-multiplier", "--N", "5", "--x", x, "--n", "1")
    assert code == 2
    assert "bound" not in doc
    assert doc["error"]["type"] == "NotBoundedComponent"
    assert doc["error"]["message"] == f"x = {x} lies off the bounded component -5 <= x <= 0"


# --- congruent-table --------------------------------------------------------------


def test_table_small_n_max_matches(capsys):
    code, doc = run_json(capsys, "congruent-table", "--N-max", "10")
    assert code == 0
    assert doc["golden"]["match"] is True
    assert [row["N"] for row in doc["table"]["rows"]] == [5, 6, 7]


def test_table_full_matches_golden(capsys):
    code, doc = run_json(capsys, "congruent-table")
    assert code == 0
    assert doc["golden"]["match"] is True
    assert len(doc["table"]["rows"]) == 16


def test_table_x_max_too_small_exit_3(capsys):
    # the golden side is restricted by N-max only, never by x-max
    code, doc = run_json(capsys, "congruent-table", "--N-max", "29", "--x-max", "100")
    assert code == 3
    missing = {entry["N"] for entry in doc["golden"]["diff"]}
    assert 29 in missing  # its only point has x = 284229
    assert 6 in missing  # loses (294, 5040)


def test_table_x_max_below_n_exit_3(capsys):
    # x_max = 10 lies below most N; each row is still searched on [-N, 10]
    code, doc = run_json(capsys, "congruent-table", "--x-max", "10")
    assert code == 3
    diff = {entry["N"]: entry for entry in doc["golden"]["diff"]}
    assert diff[5]["got"] == [[-4, 6, diff[5]["expected"][0][2]]]  # keeps (-4, 6), loses (45, 300)
    assert 7 in diff and diff[7]["got"] == []


@pytest.mark.parametrize("n_max", ["0", "76", "100"])
def test_table_n_max_outside_golden_range_exit_2(capsys, n_max):
    code, doc = run_json(capsys, "congruent-table", "--N-max", n_max)
    assert code == 2
    assert doc["error"]["message"] == f"argument --N-max: must be between 1 and 75, got {n_max}"


def test_table_n_max_ends(capsys):
    code, doc = run_json(capsys, "congruent-table", "--N-max", "1")
    assert code == 0
    assert doc["golden"]["match"] is True and doc["table"]["rows"] == []
    code, doc = run_json(capsys, "congruent-table", "--N-max", "75")
    assert code == 0
    assert doc["golden"]["match"] is True and len(doc["table"]["rows"]) == 16


def test_table_csv_matches_golden_prefix(capsys):
    code, out = run(capsys, "congruent-table", "--N-max", "7", "--format", "csv")
    assert code == 0
    from importlib import resources

    golden = resources.files("ellmult").joinpath("data/table_n75.csv").read_text()
    expected = [line for line in golden.splitlines() if line.split(",")[0] in ("N", "5", "6", "7")]
    assert out.splitlines() == expected


def test_table_csv_at_a_wider_window_matches_golden(capsys):
    code, out = run(capsys, "congruent-table", "--x-max", "10000000000", "--format", "csv")
    assert code == 0
    from importlib import resources

    assert out == resources.files("ellmult").joinpath("data/table_n75.csv").read_text()


def test_import_does_not_load_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; cap = getattr(sys, 'get_int_max_str_digits', lambda: None); before = cap(); "
        "import ellmult, ellmult.cli; print('numpy' in sys.modules, 'sympy' in sys.modules, before, cap())"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    numpy_loaded, sympy_loaded, before, after = done.stdout.split()
    assert numpy_loaded == "False"
    assert sympy_loaded == "False"
    # importing the CLI leaves the interpreter's int-to-str cap alone
    assert before == after


def test_all_lists_exactly_the_public_names():
    assert all(hasattr(ellmult, name) for name in ellmult.__all__)
    public = {
        name
        for name, value in vars(ellmult).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(ellmult.__all__)


# --- integers past the interpreter's int-to-str cap -----------------------------------


def test_eds_writes_terms_past_the_digit_cap(capsys, default_digit_cap):
    code, out = run(capsys, "eds", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--n-max", "80")
    assert code == 0
    # x(80P) = k_80 / h_80^2 with 5280 digits in k_80 and 2640 in h_80
    row = json.loads(out, parse_int=str)["rows"][-1]
    assert max(len(row[key].lstrip("-")) for key in ("h", "k", "D")) > default_digit_cap
    assert sys.get_int_max_str_digits() == default_digit_cap


def test_eds_reads_a_point_past_the_digit_cap(capsys, default_digit_cap):
    # (X, Y) is an integral point of y^2 = x^3 + Y^2 - X^3, with 4401 digits in X
    X, Y = 10**4400 + 1, 10**6700
    sys.set_int_max_str_digits(0)
    B, x, y = str(Y * Y - X**3), str(X), str(Y)
    sys.set_int_max_str_digits(default_digit_cap)
    code, out = run(capsys, "eds", "--A", "0", "--B", B, "--x", x, "--y", y, "--n-max", "1")
    assert code == 0
    assert sys.get_int_max_str_digits() == default_digit_cap
    sys.set_int_max_str_digits(0)
    assert json.loads(out)["point"] == {"x": x, "y": y}


@pytest.mark.parametrize(
    "argv",
    [
        ["heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--tol", "1e-30"],
        ["heights", "--A", "-25", "--B", "0", "--x", "3", "--y", "3"],
        ["heights", "--A", "-25"],
    ],
)
def test_failed_call_restores_the_digit_cap(capsys, default_digit_cap, argv):
    code, _ = run(capsys, *argv)
    assert code in (2, 4)
    assert sys.get_int_max_str_digits() == default_digit_cap
