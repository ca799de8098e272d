import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import riskquad
from riskquad.cli import _parser, fmt12, ingest_rv_csv, main
from riskquad.core import DiscreteRv, InvalidDistribution
from riskquad.measures import CatalogSpec, make_catalog_quadrangle


@pytest.fixture
def u5_csv(tmp_path):
    path = tmp_path / "u5.csv"
    path.write_text("value\n1\n2\n3\n4\n5\n")
    return str(path)


@pytest.fixture
def atoms_csv(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("value,prob\n-1,0.5\n1,0.5\n")
    return str(path)


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    rows = ["x1,y"]
    rng = np.random.default_rng(0)
    for _ in range(7):
        x = rng.uniform(-2, 2)
        rows.append(f"{x},{1 + 2 * x + rng.normal() * 0.2}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def scen_csv(tmp_path):
    path = tmp_path / "scen.csv"
    path.write_text("a1,a2\n0.05,-0.02\n-0.03,0.04\n0.11,0.02\n")
    return str(path)


def test_ingest_two_column(atoms_csv):
    rv = ingest_rv_csv(atoms_csv)
    assert rv.values.tolist() == [-1.0, 1.0]
    assert rv.probs.tolist() == [0.5, 0.5]


def test_ingest_single_column(u5_csv):
    rv = ingest_rv_csv(u5_csv)
    assert rv.n_atoms == 5
    assert rv.probs.tolist() == pytest.approx([0.2] * 5)


def test_ingest_normalizes_near_one(tmp_path):
    path = tmp_path / "near.csv"
    path.write_text("value,prob\n0,0.4999999\n1,0.4999999\n")
    rv = ingest_rv_csv(str(path))
    assert rv.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_ingest_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("value,prob\n0,0.5\nx,0.5\n")
    with pytest.raises(InvalidDistribution, match=":3"):
        ingest_rv_csv(str(bad))
    neg = tmp_path / "neg.csv"
    neg.write_text("value,prob\n0,-0.5\n1,1.5\n")
    with pytest.raises(InvalidDistribution, match="negative"):
        ingest_rv_csv(str(neg))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InvalidDistribution, match="empty"):
        ingest_rv_csv(str(empty))


def test_ingest_reads_every_cell_as_float_does(tmp_path):
    # the one-conversion reading against float() on each cell, bit for bit,
    # with blank rows skipped, a weight column, a mass in a row of extra
    # cells, and the per-row reading naming the line of a bad or short row
    from riskquad.cli import ingest_dataset_csv, ingest_scenarios_csv

    rng = np.random.default_rng(5)
    draws = rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-9, 9, (40, 1))
    draws[:, 1] = 0.025
    cells = [[repr(float(v)) for v in row] for row in draws]
    rows = [",".join(r) for r in cells]
    ds = tmp_path / "ds.csv"
    ds.write_text("x1,weight,x2,y\n" + "\n".join(rows[:20]) + "\n,,\n" + "\n".join(rows[20:]) + "\n")
    data = ingest_dataset_csv(str(ds))
    want = np.array([[float(c) for c in r] for r in cells])
    assert data.features.tobytes() == want[:, [0, 2]].copy().tobytes()
    assert data.target.tobytes() == want[:, 3].tobytes() and np.asarray(data.weights).tobytes() == want[:, 1].tobytes()
    scen = tmp_path / "scen.csv"
    scen.write_text("\n".join(rows) + "\n")
    mat, probs = ingest_scenarios_csv(str(scen))
    assert mat.tobytes() == want.tobytes() and probs is None
    rv = tmp_path / "rv.csv"
    rv.write_text("name,value,prob\n" + "".join(f"a{i},{c[0]},0.025\n" for i, c in enumerate(cells)))
    got = ingest_rv_csv(str(rv))
    ref = DiscreteRv(want[:, 0], np.full(40, 0.025) / sum([0.025] * 40))
    assert got.values.tobytes() == ref.values.tobytes() and got.probs.tobytes() == ref.probs.tobytes()
    short = tmp_path / "short.csv"
    for text, line in (("value,prob\n0,0.5\n1\n", 3), ("value,prob\n1\n2\n", 2)):
        short.write_text(text)
        with pytest.raises(InvalidDistribution, match=rf"short.csv:{line}: bad prob cell \['1'\]"):
            ingest_rv_csv(str(short))
    ds.write_text("x1,y\n0,1\n1,z\n")
    with pytest.raises(ValueError, match="ds.csv:3: non-numeric cell"):
        ingest_dataset_csv(str(ds))


def test_value_column_is_read_by_its_place_in_the_header(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("id,value\n10,1\n20,2\n")
    rv = ingest_rv_csv(str(path))
    assert rv.values.tolist() == [1.0, 2.0]
    assert rv.probs.tolist() == [0.5, 0.5]


RV = ["eval", "--family", "quantile", "--alpha", "0.5"]
REGRESS = ["regress", "--model", "quantile", "--alpha", "0.5"]
SCENARIOS = {"portfolio": ["portfolio"], "dro": ["dro", "--phi", "kl", "--tau", "0.3"]}
# each form and cell it reads: the command, the CSV with {} for the cell, and the cell's line
CELLS = {
    "rv-value": (RV, "value,prob\n1,0.5\n{},0.5\n", 3),
    "rv-prob": (RV, "value,prob\n1,0.5\n2,{}\n", 3),
    "rv-value-only": (RV, "value\n{}\n2\n", 2),
    "dataset-feature": (REGRESS, "x1,x2,y\n0,1,1\n{},0,2\n2,1,3\n", 3),
    "dataset-target": (REGRESS, "x1,y\n0,1\n1,2\n2,{}\n", 4),
    "dataset-weight": (REGRESS, "x1,weight,y\n0,{},1\n1,0.5,2\n", 2),
}
for name, argv in SCENARIOS.items():
    CELLS[f"{name}-return"] = (argv, "a1,a2\n0.02,0.01\n{},0.02\n", 3)
    CELLS[f"{name}-headless-return"] = (argv, "0.02,{}\n0.01,0.03\n", 1)
    CELLS[f"{name}-prob"] = (argv, "a1,a2,prob\n0.02,0.01,0.5\n-0.03,0.02,{}\n", 3)
RAGGED = {
    "rv": (RV, "value,prob\n1,0.5\n2\n", 3),
    "dataset-long": (REGRESS, "x1,y\n0,1\n1,2,3\n", 3),
    "dataset-short": (REGRESS, "x1,x2,y\n0,1,1\n1,2\n", 3),
    **{name: (argv, "a1,a2\n0.02,0.01\n0.03\n", 3) for name, argv in SCENARIOS.items()},
    **{f"{name}-text": (argv, text.format("x"), line) for name, (argv, text, line) in CELLS.items()},
}


def _one_error_line(capfd, path, line):
    out, err = capfd.readouterr()
    # file descriptor 1 stays empty: no report, and nothing written beneath sys.stdout as LAPACK's DLASCL note was
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}:{line}: "), err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, text, line", CELLS.values(), ids=CELLS)
def test_a_non_finite_cell_exits_1_naming_its_file_and_line(tmp_path, capfd, cell, argv, text, line):
    path = tmp_path / "in.csv"
    path.write_text(text.format(cell))
    assert main(argv + ["--input", str(path)]) == 1
    _one_error_line(capfd, path, line)


# each form with blank rows above its bad row: the line is the file's own, blank rows counted
BLANK_ROWS = {
    "rv": (RV, "value,prob\n1,0.5\n\n,\nnan,0.5\n", 5),
    "rv-negative-prob": (RV, "value,prob\n\n0,-0.5\n1,1.5\n", 3),
    "dataset": (REGRESS, "x1,y\n0,1\n\n1,abc\n", 4),
    "scenarios": (SCENARIOS["portfolio"], "0.1,0.2\n\n0.3,inf\n", 3),
}


@pytest.mark.parametrize("argv, text, line", BLANK_ROWS.values(), ids=BLANK_ROWS)
def test_blank_rows_keep_the_line_numbers_of_the_file(tmp_path, capfd, argv, text, line):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(argv + ["--input", str(path)]) == 1
    _one_error_line(capfd, path, line)


@pytest.mark.parametrize("argv, text, line", RAGGED.values(), ids=RAGGED)
def test_a_ragged_row_or_text_cell_exits_1_naming_its_file_and_line(tmp_path, capfd, argv, text, line):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(argv + ["--input", str(path)]) == 1
    _one_error_line(capfd, path, line)


@pytest.mark.parametrize("command", ["eval", "statistic"])
def test_a_command_given_no_quadrangle_asks_for_one(u5_csv, capsys, command):
    assert main([command, "--input", u5_csv]) == 1
    assert capsys.readouterr().err == "error: give a quadrangle: --family, --phi, or a --spec that carries 'family' or 'phi'\n"


def test_eval_command(u5_csv, capsys):
    code = main(["eval", "--family", "quantile", "--alpha", "0.6", "--input", u5_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["risk"] == 4.5
    assert payload["statistic"] == [3.0, 4.0]


def test_eval_validation_error(u5_csv, capsys):
    code = main(["eval", "--family", "quantile", "--alpha", "1.4", "--input", u5_csv])
    assert code == 1


def test_statistic_command(atoms_csv, capsys):
    code = main(["statistic", "--family", "mean_pl", "--input", atoms_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statistic"] == [0.0, 0.0]


def test_family_sweep_limits(u5_csv, capsys):
    code = main(["family", "--phi", "kl", "--input", u5_csv, "--taus", "1e-6,1,1e6", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    sweep = payload["sweep"]
    assert abs(sweep[0]["value"] - payload["mean"]) <= 5e-3
    assert abs(sweep[-1]["value"] - payload["ess_sup"]) <= 1e-3


def test_envelope_command(u5_csv, capsys):
    code = main(["envelope", "--family", "quantile", "--alpha", "0.5", "--input", u5_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support_gap"] <= 1e-7
    assert all(v == "pass" for v in payload["axioms"].values())


@pytest.mark.parametrize("family", [["--family", "quantile", "--alpha", "0.8"], ["--family", "mean_pl"], ["--family", "expectile_pl", "--K", "0.5"]], ids=["quantile", "mean_pl", "expectile_pl"])
def test_envelope_command_on_fifty_atoms(family, tmp_path, capsys):
    # the support by the envelope's vertex scan meets the primal risk, and
    # every axiom passes, on a 50-atom r.v.
    rng = np.random.default_rng(50)
    path = tmp_path / "rv50.csv"
    path.write_text("value,prob\n" + "".join(f"{v!r},{p!r}\n" for v, p in zip(rng.normal(size=50).tolist(), rng.dirichlet(np.ones(50)).tolist())))
    code = main(["envelope", *family, "--input", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support_gap"] <= 1e-12 * (1.0 + abs(payload["primal_risk"]))
    assert payload["axioms"] and all(v == "pass" for v in payload["axioms"].values())


def test_regress_command(data_csv, capsys):
    code = main(["regress", "--model", "quantile", "--alpha", "0.5", "--input", data_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tracking"] is True
    assert abs(payload["coefficients"][0] - 2.0) < 0.5


def test_portfolio_command(scen_csv, capsys):
    code = main(["portfolio", "--family", "quantile", "--alpha", "0.5", "--input", scen_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_portfolio_command_mean_pl_is_exact(scen_csv, capsys):
    # mean_pl's regret carries LP data, so the portfolio is one exact LP
    from test_robust import _grid_portfolio

    code = main(["portfolio", "--family", "mean_pl", "--input", scen_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    w = np.array(payload["weights"])
    scen = np.loadtxt(scen_csv, delimiter=",", skiprows=1)
    q = make_catalog_quadrangle(CatalogSpec("mean_pl", {}))
    risk = payload["risk"]
    # numbers print at 12 significant digits
    assert risk == pytest.approx(q.risk(DiscreteRv(-(scen @ w))), rel=1e-11, abs=1e-12)
    assert risk <= _grid_portfolio(scen, q.risk) + 1e-12 * (1.0 + abs(risk))


def test_regress_reports_its_gap_and_exits_2_above_1e_4(data_csv, capsys, monkeypatch):
    import dataclasses

    import riskquad.cli as cli

    # expectile_mse is least squares: exact, gap 0
    assert main(["regress", "--model", "expectile_mse", "--q", "0.75", "--input", data_csv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["gap"] == 0.0
    # a fit whose rounds ended above the bound still prints its report
    fit_linear = cli.fit_linear
    monkeypatch.setattr(cli, "fit_linear", lambda err, data: dataclasses.replace(fit_linear(err, data), gap=2e-4))
    assert main(["regress", "--model", "quantile", "--alpha", "0.5", "--input", data_csv, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["gap"] == 2e-4


def test_portfolio_cutting_planes_exit_2_when_their_rounds_run_out(scen_csv, capsys):
    # cvar2 has no LP data: the cutting planes certify it, and one round cannot
    args = ["portfolio", "--family", "cvar2", "--alpha", "0.5", "--input", scen_csv, "--format", "json"]
    assert main(args) == 0
    assert sum(json.loads(capsys.readouterr().out)["weights"]) == pytest.approx(1.0, abs=1e-9)
    assert main(args + ["--max-iter", "1"]) == 2
    assert "gap" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("probs", [(0.6, 0.6, -0.2), (0.0, 0.0, 0.0)], ids=["negative", "zero-sum"])
def test_portfolio_rejects_bad_prob_column(tmp_path, capsys, probs):
    path = tmp_path / "scen.csv"
    rows = [(0.05, -0.02), (-0.03, 0.04), (0.11, 0.02)]
    path.write_text("a1,a2,prob\n" + "".join(f"{a},{b},{p}\n" for (a, b), p in zip(rows, probs)))
    assert main(["portfolio", "--input", str(path), "--format", "json"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("command", ["portfolio", "dro"])
@pytest.mark.parametrize("text", ["", "a1,a2\n"], ids=["empty", "header-only"])
def test_scenarios_without_a_data_row_exit_1(tmp_path, capsys, command, text):
    path = tmp_path / "scen.csv"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}: need at least one data row"


def test_dro_command(scen_csv, capsys):
    code = main(["dro", "--phi", "kl", "--tau", "0.3", "--input", scen_csv, "--max-iter", "600", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["route_gap"] <= 1e-4


@pytest.mark.parametrize("phi", ["kl", "tv", "pearson"])
def test_dro_command_certifies_every_ball(scen_csv, capsys, phi):
    code = main(["dro", "--phi", phi, "--tau", "0.5", "--input", scen_csv, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["route_gap"] <= 1e-12 * (1.0 + abs(payload["value"]))


def test_solver_fault_exits_2_without_traceback(scen_csv, capsys, monkeypatch):
    import riskquad.cli as cli

    def broken(*args, **kwargs):
        raise IndexError("index 3 is out of bounds")

    monkeypatch.setattr(cli, "dro_solve", broken)
    code = main(["dro", "--phi", "kl", "--tau", "0.5", "--input", scen_csv])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("# read")]
    assert lines == ["solver: IndexError: index 3 is out of bounds"]


def test_epi_command(atoms_csv, capsys):
    code = main(["epi", "--input", atoms_csv, "--alpha", "0.5", "--epsilons", "0.5,1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["gap"] <= 1e-4 for row in payload["sweep"])


def test_check_command_single_family(u5_csv, capsys):
    code = main(["check", "--family", "quantile", "--alpha", "0.7", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True


def test_check_given_a_divergence_runs_catalog_families_only(capsys):
    assert main(["check", "--phi", "kl", "--beta", "0.5"]) == 1
    assert capsys.readouterr().err == "error: check runs catalog families only: give --family, or a --spec that carries 'family'\n"


def test_json_round_trip_and_determinism(u5_csv, capsys):
    args = ["eval", "--family", "qsau", "--eps", "0.4", "--input", u5_csv, "--format", "json", "--seed", "0"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    payload = json.loads(out1)
    rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert rendered == out1
    # 12-significant-digit round trip is stable
    for key in ("risk", "deviation", "regret", "error"):
        assert fmt12(payload[key]) == payload[key]


def test_output_file(u5_csv, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--family", "quantile", "--alpha", "0.6", "--input", u5_csv, "--format", "json", "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["risk"] == 4.5


def test_console_entry_point(u5_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "riskquad.cli", "eval", "--family", "quantile", "--alpha", "0.6", "--input", u5_csv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4.5" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["eval", "--family", "nosuch"], ["eval", "--alpha", "abc"], []],
    ids=["bad-choice", "bad-float", "no-command"],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: riskquad")
    assert ": error: " in err[-1]


@pytest.mark.parametrize("extra", [[], ["--alpha", "0.5"]], ids=["no-parameter", "alpha"])
def test_family_with_phi_is_a_usage_error(u5_csv, capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "quantile", "--phi", "kl", "--input", u5_csv] + extra)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: riskquad")
    assert err[-1] == "riskquad: error: argument --phi: not allowed with argument --family"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["regress", "--model", "quantile"], "error: family 'quantile' takes params ['alpha'], got []"),
        (["eval", "--phi", "kl"], "error: phi 'kl' takes param 'beta', got []"),
    ],
    ids=["regress-alpha", "phi-beta"],
)
def test_missing_parameter_is_named(data_csv, capsys, argv, message):
    assert main(argv + ["--input", data_csv]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == message


@pytest.mark.parametrize(
    "argv, name",
    [
        (["envelope", "--family", "quantile", "--alpha", "1"], "alpha"),
        (["epi", "--alpha", "1"], "alpha"),
        (["epi", "--alpha", "-0.5"], "alpha"),
        (["envelope", "--family", "quantile"], "alpha"),
        (["envelope", "--family", "expectile_pl"], "K"),
        (["eval", "--family", "standard_mean", "--lam", "inf", "--format", "json"], "lam"),
        (["family", "--taus", "inf"], "taus"),
        (["eval", "--phi", "kl", "--beta", "nan"], "beta"),
        (["family", "--phi", "kl", "--taus", "nan"], "taus"),
        (["dro", "--phi", "kl", "--tau", "nan"], "tau"),
        (["eval", "--family", "qsau", "--eps", "inf"], "eps"),
        (["epi", "--epsilons", "nan"], "epsilons"),
        (["eval", "--family", "biased_mean", "--x=-inf"], "x"),
        (["portfolio", "--target-mean", "nan"], "target-mean"),
    ],
    ids=[
        "envelope-alpha-1",
        "epi-alpha-1",
        "epi-alpha-negative",
        "envelope-no-alpha",
        "envelope-no-K",
        "eval-lam-inf",
        "family-taus-inf",
        "eval-beta-nan",
        "family-taus-nan",
        "dro-tau-nan",
        "eval-eps-inf",
        "epi-epsilons-nan",
        "eval-x-minus-inf",
        "portfolio-target-mean-nan",
    ],
)
def test_bad_or_missing_parameter_exits_1_naming_it(u5_csv, capsys, argv, name):
    # exit 2 is kept for a solve that does not converge
    assert main(argv + ["--input", u5_csv]) == 1
    err = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("# read")]
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert re.search(rf"\b{name}\b", err[0]), err


# `riskquad [<command>] --help` as printed before the parser was cached; the key "" is no command
HELP = json.loads((pathlib.Path(__file__).parent / "fixtures" / "cli_help.json").read_text())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    # the fixture was printed at 80 columns; help wraps to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_repeated_calls_match_fresh_processes(u5_csv, capsys):
    # one cached parser serves every call: nothing of one call leaks into the next
    runs = [
        ["eval", "--family", "qsau", "--eps", "0.4", "--input", u5_csv, "--format", "json", "--seed", "3"],
        ["eval", "--family", "quantile", "--alpha", "0.6", "--input", u5_csv],
        ["envelope", "--family", "quantile", "--alpha", "0.5", "--input", u5_csv, "--format", "json", "--seed", "3"],
        ["envelope", "--family", "quantile", "--alpha", "0.5", "--input", u5_csv],
    ]
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    src = os.path.dirname(os.path.dirname(riskquad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, (code, out) in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "riskquad.cli"] + argv, capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (code, out)


def test_parser_actions_keep_no_state():
    # a parser reused across calls must not accumulate into, or hand out, a shared mutable default
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [_parser(), *sub.choices.values()]
    assert len(parsers) == 10
    for parser in parsers:
        for action in parser._actions:
            assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction, argparse._CountAction))
            assert action.default is None or isinstance(action.default, (str, int, float, bool, tuple))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--spec", "{bad", "--input", "u5.csv"],
        ["eval", "--spec", "missing.json", "--input", "u5.csv"],
        ["eval", "--spec", ".", "--input", "u5.csv"],
        ["eval", "--spec", "number.json", "--input", "u5.csv"],
        ["family", "--taus", "1,a", "--input", "u5.csv"],
        ["eval", "--family", "mean_pl", "--input", "."],
    ],
    ids=["bad-json", "missing-path", "directory", "not-an-object", "bad-grid", "input-directory"],
)
def test_unreadable_spec_grid_or_input_exits_1(u5_csv, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "number.json").write_text("5\n")
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("phi, beta", [("kl", "0.5"), ("tv", "0.8")])
def test_divergence_eval_is_positively_homogeneous(tmp_path, capsys, phi, beta):
    # X = {-1, 0.5, 2, 3} w.p. (.1, .4, .3, .2), scaled by s: every member reads s times its unit value
    def members(s):
        path = tmp_path / f"x{s:g}.csv"
        path.write_text("value,prob\n" + "".join(f"{s * v!r},{p}\n" for v, p in [(-1.0, 0.1), (0.5, 0.4), (2.0, 0.3), (3.0, 0.2)]))
        assert main(["eval", "--phi", phi, "--beta", beta, "--input", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        lo, hi = payload["statistic"]
        return [payload[k] for k in ("risk", "deviation", "regret", "error")] + [lo, hi]

    unit = members(1.0)
    for s in (1e6, 1e-9):
        for got, want in zip(members(s), unit):
            assert abs(got / s - want) <= 1e-11 * (1.0 + abs(want)), (s, got, want)


# printed before pearson's regret became the phi-regret, which left its risk, deviation and balls as they were
PEARSON = json.loads((pathlib.Path(__file__).parent / "fixtures" / "pearson_cli.json").read_text())


def test_pearson_risk_and_balls_are_unchanged(tmp_path, scen_csv, capsys):
    rv = tmp_path / "rv.csv"
    rv.write_text(PEARSON["rv_csv"])
    assert main(["eval", "--phi", "pearson", "--beta", "0.5", "--input", str(rv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {k: payload[k] for k in ("risk", "deviation")} == PEARSON["eval --phi pearson --beta 0.5"]
    assert main(["dro", "--phi", "pearson", "--tau", "0.5", "--input", scen_csv, "--format", "json"]) == 0
    assert capsys.readouterr().out == PEARSON["dro --phi pearson --tau 0.5"]
    assert main(["family", "--phi", "pearson", "--taus", "0.1,1,10", "--input", str(rv), "--format", "json"]) == 0
    assert capsys.readouterr().out == PEARSON["family --phi pearson --taus 0.1,1,10"]
