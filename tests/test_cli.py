"""Command-line surface: formats, exit codes, determinism."""

import argparse
import json
import math

import pytest

from gauss_spectra import transfer
from gauss_spectra.acceptance import VerifyConfig, run_criterion
from gauss_spectra.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            k, _, v = line[2:].partition("=")
            meta[k] = v
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            parsed = []
            for c in cells:
                try:
                    parsed.append(float(c))
                except ValueError:
                    parsed.append(c)
            rows.append(parsed)
    return meta, header, rows


def test_pressure_single_point(capsys):
    code, out, _ = run(capsys, "pressure", "--t", "1", "--q", "0")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["cutoff"] == "64" and meta["collocation_order"] == "16"
    assert header == ["t", "q", "pressure", "dP_dt", "dP_dq", "tail_error"]
    assert abs(rows[0][2]) < 1e-6


def test_pressure_zeta_point(capsys):
    code, out, _ = run(capsys, "pressure", "--t", "0", "--q", "-2")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0][2] == pytest.approx(math.log(math.pi ** 2 / 6.0), abs=1e-6)


def test_pressure_domain_exit(capsys):
    code, _, err = run(capsys, "pressure", "--t", "0.4", "--q", "0")
    assert code == 2
    assert "0.4" in err


def test_pressure_without_perron_mode_exits_2(capsys, monkeypatch):
    def no_perron_pair(A, t, q, disc):
        raise transfer.ConvergenceError(f"no positive real eigenvalue at (t, q) = ({t}, {q})")

    monkeypatch.setattr(transfer, "_perron_pair", no_perron_pair)
    code, out, err = run(capsys, "pressure", "--t", "1", "--q", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no positive real eigenvalue")
    assert len(err.strip().splitlines()) == 1


def test_pressure_at_t_40(capsys):
    code, out, _ = run(capsys, "pressure", "--t", "40", "--q", "0")
    assert code == 0
    _, header, rows = parse_csv(out)
    value = float(rows[0][header.index("pressure")])
    assert abs(value + 80.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)) < 1e-12


@pytest.mark.parametrize("argv", [["--t", "inf", "--q", "0"], ["--t", "nan", "--q", "0"],
                                  ["--t", "1", "--q", "nan"], ["--t", "1", "--q=-inf"],
                                  ["--q", "0", "--min", "nan", "--max", "2", "--count", "3"],
                                  ["--q", "0", "--min", "1", "--max", "inf", "--count", "3"]])
def test_pressure_rejects_non_finite_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["pressure", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "expected a finite number" in errors[0]


def test_pressure_missing_args(capsys):
    code, _, err = run(capsys, "pressure")
    assert code == 2


def test_pressure_sweep_parallel_matches_serial(capsys):
    # two identical sweeps give byte-identical output
    args = ["pressure", "--t", "0.9", "--min", "-1", "--max", "0", "--count", "5"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2


def test_spectrum_json_roundtrip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["spectrum", "khintchine", "--min", "0.7", "--max", "1.4",
                     "--count", "4", "--format", "json", "--output", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["metadata"]["kind"] == "khintchine"
    assert doc["metadata"]["grid_spacing"] == "linear"      # --spacing omitted
    assert doc["metadata"]["solved"] == 4
    assert len(doc["rows"]) == 4
    dims = [r["dimension"] for r in doc["rows"]]
    assert max(dims) > 0.999
    # round-trip at full precision
    assert doc["rows"][0]["exponent"] == 0.7


def test_spectrum_window_exit(capsys):
    code, _, err = run(capsys, "spectrum", "khintchine", "--min", "1e-6",
                       "--max", "1e-5", "--count", "3")
    assert code == 2
    assert "window" in err


def test_spectrum_count_validation(capsys):
    code, _, err = run(capsys, "spectrum", "khintchine", "--min", "0.5",
                       "--max", "2.0", "--count", "1")
    assert code == 2


def test_constants_table(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "2.6854" in out
    assert "0.53128" in out
    meta, header, rows = parse_csv(out)
    assert header == ["name", "value", "method"]


def test_constants_json_provenance(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = {r["name"]: r for r in doc["rows"]}
    assert "dim_E2" in names
    assert "method" in names["dim_E2"]
    assert abs(names["lyapunov_constant"]["value"] - 2.373138220831251) < 1e-12


def test_gnuplot_script(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["spectrum", "khintchine", "--min", "0.7", "--max", "1.4",
                 "--count", "4", "--spacing", "log", "--output", str(out),
                 "--gnuplot"])
    assert code == 0
    script = tmp_path / "curve.csv.gp"
    assert script.exists()
    assert str(out) in script.read_text()


def test_gnuplot_requires_output(capsys):
    code, out, err = run(capsys, "pressure", "--t", "1", "--q", "0", "--gnuplot")
    assert code == 2
    assert out == ""
    assert "--gnuplot requires --output" in err


def test_common_validation(capsys):
    assert run(capsys, "pressure", "--t", "1", "--q", "0", "--cutoff", "4")[0] == 2
    assert run(capsys, "constants", "--collocation-order", "2")[0] == 2


OPTIONS = {
    "pressure": {"--cutoff", "--collocation-order", "--format", "--output", "--gnuplot",
                 "--t", "--q", "--min", "--max", "--count", "--spacing"},
    "spectrum": {"--cutoff", "--collocation-order", "--format", "--output", "--gnuplot",
                 "--min", "--max", "--count", "--spacing"},
    "constants": {"--collocation-order", "--format", "--output"},
    "verify": {"--cutoff", "--collocation-order", "--seed", "--list"},
}


def test_subcommand_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
                for name, sp in sub.choices.items()}
    assert accepted == OPTIONS


@pytest.mark.parametrize("argv", [
    ["pressure", "--t", "1", "--q", "0", "--tolerance", "1"],
    ["pressure", "--t", "1", "--q", "0", "--seed", "3"],
    ["spectrum", "khintchine", "--min", "0.7", "--max", "1.4", "--count", "4",
     "--jobs", "2"],
    ["constants", "--cutoff", "64"],
    ["constants", "--gnuplot"],
    ["verify", "--list", "--format", "json", "--output", "v.json"],
])
def test_removed_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert "unrecognized arguments: --" in err


@pytest.mark.parametrize("sweep", [["--min", "0", "--max", "1", "--count", "3"],
                                   ["--count", "3"]])
def test_pressure_point_rejects_sweep(capsys, sweep):
    code, out, err = run(capsys, "pressure", "--t", "1", "--q", "0", *sweep)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --t with --q is one point")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("point", [["--t", "1", "--q", "0"], []])
def test_pressure_rejects_spacing_without_grid(capsys, point):
    code, out, err = run(capsys, "pressure", *point, "--spacing", "log")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --spacing needs a grid")
    assert len(err.strip().splitlines()) == 1


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 15
    assert lines[0].startswith("c01")
    # each criterion has one title: the one a run prints
    for cid in ("c01", "c03", "c11"):
        assert f"{cid}  {run_criterion(cid, VerifyConfig()).title}" in lines


def test_coarse_discretization_fails_informatively():
    # deliberately coarse: the normalization criterion must fail and carry
    # the measured delta rather than raising
    res = run_criterion("c03", VerifyConfig(cutoff=8, order=4))
    assert not res.passed
    assert "P(1,0)" in res.measured


def test_spectrum_failure_rows_and_exit3(capsys, monkeypatch):
    import gauss_spectra.cli as cli_mod
    from gauss_spectra.spectra import SpectrumCurve, SpectrumPoint

    def fake_curve(grid, provider):
        # only one of three points "solves"
        pt = SpectrumPoint(exponent=float(grid[1]), dimension=0.9, q_value=-0.1,
                           residuals=(0.0, 0.0), t_slope=0.0)
        return SpectrumCurve(points=[pt],
                             metadata={"failures": [
                                 {"exponent": float(grid[0]), "error": "x"},
                                 {"exponent": float(grid[2]), "error": "x"}],
                                 "solves": 0})

    monkeypatch.setattr(cli_mod, "khintchine_curve", fake_curve)
    code, out, _ = run(capsys, "spectrum", "khintchine", "--min", "0.5",
                       "--max", "2.0", "--count", "3")
    assert code == 3
    _, _, rows = parse_csv(out)
    assert math.isnan(rows[0][1]) and rows[0][3] == math.inf
    assert rows[1][1] == 0.9


def test_verify_exit_codes(capsys, monkeypatch):
    import gauss_spectra.cli as cli_mod
    from gauss_spectra.acceptance import CriterionResult

    def fake_run(cid, cfg):
        ok = cid != "c02"
        return CriterionResult(cid=cid, title="t", passed=ok, measured="m",
                               expected="e", tolerance="tol", runtime=0.0,
                               budget=1.0)

    monkeypatch.setattr(cli_mod, "CRITERIA", (("c01", "a", None), ("c02", "b", None)))
    monkeypatch.setattr(cli_mod, "run_criterion", fake_run)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL c02" in out and "PASS c01" in out

    monkeypatch.setattr(cli_mod, "CRITERIA", (("c01", "a", None),))
    code, out, _ = run(capsys, "verify")
    assert code == 0
