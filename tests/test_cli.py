"""Exit codes, config precedence, and output shapes of the command line."""

import json
from collections import Counter

import pytest

from ellmult import analytic, cli, heights


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
    # root isolation runs once for the periods and once for the elliptic log
    assert calls == {"torsion_order": 1, "canonical_height": 1, "_cubic_roots": 2}


def test_heights_computes_each_quantity_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, *COUNTED)
    code, _ = run(capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6")
    assert code == 0
    assert calls == {"torsion_order": 1, "canonical_height": 1}


def test_periods_isolates_roots_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, *COUNTED)
    code, _ = run(capsys, "periods", "--A", "0", "--B", "17", "--precision-bits", "128")
    assert code == 0
    assert calls == {"_cubic_roots": 1}


# --- config precedence ----------------------------------------------------------


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ELLMULT_FORMAT", "text")
    code, out = run(capsys, "bounds", "calculus", "--a", "0", "--b", "0")
    assert code == 0
    assert out.startswith("schema = ellmult/1")


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("ELLMULT_FORMAT", "text")
    code, doc = run_json(
        capsys, "bounds", "calculus", "--a", "0", "--b", "0", "--format", "json"
    )
    assert code == 0
    assert doc["bound"]["threshold"] == pytest.approx(2.718281828459045)


def test_env_n_max(capsys, monkeypatch):
    monkeypatch.setenv("ELLMULT_N_MAX", "3")
    code, doc = run_json(capsys, "eds", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6")
    assert code == 0
    assert len(doc["rows"]) == 4


def test_invalid_precision_exit_2(capsys):
    code, doc = run_json(
        capsys, "periods", "--A", "-25", "--B", "0", "--precision-bits", "32"
    )
    assert code == 2
    assert doc["error"]["type"] == "ValueError"


def test_invalid_env_value_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("ELLMULT_TOL", "not-a-number")
    code, doc = run_json(capsys, "periods", "--A", "-25", "--B", "0")
    assert code == 2
    assert "ELLMULT_TOL" in doc["error"]["message"]


def test_nonpositive_tol_exit_2(capsys):
    code, doc = run_json(
        capsys, "heights", "--A", "-25", "--B", "0", "--x", "-4", "--y", "6", "--tol", "0"
    )
    assert code == 2


# --- bounds registry -------------------------------------------------------------


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


def test_bounds_double_not_integral(capsys):
    code, doc = run_json(capsys, "bounds", "double-not-integral", "--N", "5", "--x", "-4")
    assert code == 0
    assert doc["bound"]["holds"] is True
    assert doc["bound"]["inputs"]["ord2"] == -4
    code, doc = run_json(capsys, "bounds", "double-not-integral", "--N", "5", "--x", "3")
    assert code == 2


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


def test_table_csv_matches_golden_prefix(capsys):
    code, out = run(capsys, "congruent-table", "--N-max", "7", "--format", "csv")
    assert code == 0
    from importlib import resources

    golden = resources.files("ellmult").joinpath("data/table_n75.csv").read_text()
    expected = [line for line in golden.splitlines() if line.split(",")[0] in ("N", "5", "6", "7")]
    assert out.splitlines() == expected
