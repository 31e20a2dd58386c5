import json
import os

import numpy as np
import pytest

import solispec.certificate
import solispec.cli
from solispec.cli import main
from solispec.config import DEFAULTS, RunConfig, print_defaults


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = {
        "nonlinearity": {"family": "power", "params": [1.0]},
        "mu": 1.0,
        "grid": {"R": 20.0, "h": 2e-3},
        "scan": {"lmin": 1.5, "lmax": 3.0, "n": 4},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_print_defaults_round_trips(capsys):
    payload = json.loads(print_defaults())
    assert payload["mu"] == 1.0
    assert payload["scan"]["n"] == 200
    assert main(["--print-defaults"]) == 0
    assert json.loads(capsys.readouterr().out) == DEFAULTS


def test_no_command_shows_help(capsys):
    assert main([]) == 2


def test_ground_command(tmp_path, cfg_path):
    out = str(tmp_path / "ground.csv")
    assert main(["ground", "--config", cfg_path, "--out", out]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert set(data.dtype.names) == {"x", "Q", "Qp"}
    mid = len(data) // 2
    assert data["Q"][mid] == pytest.approx(np.sqrt(2.0), abs=1e-8)
    sidecar = json.loads((tmp_path / "ground.json").read_text())
    assert sidecar["rate"] == pytest.approx(1.0, abs=1e-3)
    assert sidecar["c0"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-2)
    assert "config_hash" in sidecar and sidecar["tool"]["version"]


def test_jost_command(tmp_path, cfg_path):
    out = str(tmp_path / "jost.csv")
    assert main(["jost", "--config", cfg_path, "--lambda", "2.0", "--out", out]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert set(data.dtype.names) == {"x", "f", "g", "fp", "gp"}
    sidecar = json.loads((tmp_path / "jost.json").read_text())
    assert sidecar["residual"] <= 1e-7


def test_invert_check_command(cfg_path, capsys):
    assert main(["invert-check", "--config", cfg_path, "--lambda", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "r_u" in out and "r_v" in out
    r_u = float(out.split("r_u =")[1].split()[0])
    assert r_u <= 1e-6


def test_spectrum_command(tmp_path):
    cfg = {
        "nonlinearity": {"family": "power", "params": [1.0]},
        "mu": 1.0,
        "grid": {"R": 20.0, "h": 2e-3},
        "scan": {"lmin": 1.5, "lmax": 3.0, "n": 2},
        "eigen": {"R": 12.0, "n": 801},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "spec.json")
    assert main(["spectrum", "--config", str(path), "--out", out]) == 0
    payload = json.loads((tmp_path / "spec.json").read_text())
    lams = [e["lambda"] for e in payload["eigenvalues"]]
    h_eig = payload["grid"]["h"]
    assert any(abs(l) <= 2 * h_eig for l in lams)
    assert all(e["imag"] >= 0.0 for e in payload["eigenvalues"])


def test_scan_command_and_outputs(tmp_path, cfg_path):
    out = str(tmp_path / "report.json")
    assert main(["scan", "--config", cfg_path, "--out", out]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert all(r["verdict"] == "no-embedded-eigenvalue" for r in payload["records"])
    assert payload["config_hash"] and payload["tool"]["version"]
    assert payload["timestamp"] is None
    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_text[0] == "lambda,v0,v0p,mismatch,verdict"
    assert len(csv_text) == 1 + 4


def test_scan_stamp_embeds_timestamp(tmp_path, cfg_path):
    out = str(tmp_path / "report.json")
    assert main(["scan", "--config", cfg_path, "--n", "1", "--lmax", "1.5",
                 "--lmin", "1.5", "--out", out, "--stamp"]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["timestamp"] is not None
    # the hash covers the overridden grid, not just the file
    assert payload["config_hash"] != RunConfig.from_file(cfg_path).config_hash()


def test_scan_empty_grid_exits_2_without_files(tmp_path, cfg_path):
    out = str(tmp_path / "r.json")
    code = main(["scan", "--config", cfg_path, "--n", "0", "--out", out])
    assert code == 2
    assert not os.path.exists(out)
    assert not os.path.exists(str(tmp_path / "r.csv"))


def test_scan_grid_in_gap_exits_2(tmp_path, cfg_path):
    code = main(["scan", "--config", cfg_path, "--lmin", "0.2", "--lmax", "0.8",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("grid", [["--lmin", "5", "--lmax", "5", "--n", "3"],
                                  ["--lmin", "0.2", "--lmax", "0.8"]])
def test_scan_bad_grid_exits_2_before_solve(tmp_path, cfg_path, capsys, monkeypatch, grid):
    """Every energy of the scan grid is checked before the ground state is solved."""
    def no_solve(*args, **kwargs):
        raise AssertionError("ground state solved for a rejected grid")
    monkeypatch.setattr(solispec.cli, "solve_ground_state", no_solve)
    out = str(tmp_path / "r.json")
    assert main(["scan", "--config", cfg_path, *grid, "--out", out]) == 2
    assert "lambda" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("lmin, lmax", [("0.99999999999999", "2"), ("-10", "10")])
def test_scan_accepts_threshold_and_both_branches(tmp_path, cfg_path, lmin, lmax):
    """scan accepts the energies scan_embedded certifies: the threshold within its
    relative tolerance, and a grid spanning the gap with no energy inside it."""
    out = str(tmp_path / "r.json")
    assert main(["scan", "--config", cfg_path, "--lmin", lmin, "--lmax", lmax, "--n", "2",
                 "--out", out]) == 0
    records = json.loads((tmp_path / "r.json").read_text())["records"]
    assert [r["lambda"] for r in records] == [float(lmin), float(lmax)]
    assert records[0]["at_threshold"] == (lmin == "0.99999999999999")


@pytest.mark.parametrize("command, out", [("ground", "g.csv"), ("scan", "r.json")])
def test_unwritable_out_exits_2(tmp_path, cfg_path, capsys, command, out):
    """An --out in a missing directory is a configuration error, and no file is written."""
    path = tmp_path / "missing" / out
    assert main([command, "--config", cfg_path, "--out", str(path)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_jost_too_large_lambda_exits_1(tmp_path, cfg_path, capsys):
    """A decaying mode that underflows at the station fails the run and writes nothing."""
    out = tmp_path / "jost.csv"
    assert main(["jost", "--config", cfg_path, "--lambda", "1500", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: kappa * x_asym = 678 underflows")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_scan_determinism_bitwise(tmp_path, cfg_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["scan", "--config", cfg_path, "--out", out1]) == 0
    assert main(["scan", "--config", cfg_path, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_hypothesis_violation_exits_1(tmp_path):
    cfg = {
        "nonlinearity": {"family": "saturable", "params": [2.0]},  # no profile exists
        "mu": 1.0,
        "grid": {"R": 20.0, "h": 2e-3},
        "scan": {"lmin": 1.5, "lmax": 3.0, "n": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["ground", "--config", str(path), "--out", str(tmp_path / "g.csv")]) == 1


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["ground", "--config", str(path), "--out", str(tmp_path / "g.csv")]) == 2
    path.write_text("[1, 2]")
    assert main(["ground", "--config", str(path), "--out", str(tmp_path / "g.csv")]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "g.csv")


def test_missing_config_exits_2(tmp_path):
    assert main(["ground", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "g.csv")]) == 2


def test_control_command_detects_candidate(tmp_path):
    out = str(tmp_path / "control.json")
    assert main(["control", "--mu", "1.0", "--depth", "6.0", "--n", "9", "--out", out]) == 0
    payload = json.loads((tmp_path / "control.json").read_text())
    assert payload["predicted_embedded_levels"] == [3.0]
    assert payload["candidate"] is not None
    assert abs(payload["candidate"]["lambda"] - 3.0) <= 0.05
    assert payload["candidate"]["verdict"] == "embedded-candidate"


def test_control_command_shallow_well(tmp_path):
    out = str(tmp_path / "control.json")
    assert main(["control", "--mu", "1.0", "--depth", "0.1", "--n", "7", "--out", out]) == 0
    payload = json.loads((tmp_path / "control.json").read_text())
    assert payload["candidate"] is None
    assert all(r["verdict"] != "embedded-candidate" for r in payload["records"])


def test_control_failed_detection_exits_1(tmp_path, monkeypatch):
    """A predicted level the detector cannot locate fails the run."""
    monkeypatch.setattr(solispec.certificate, "sech_well_levels", lambda mu, depth: [6.0])
    out = str(tmp_path / "control.json")
    assert main(["control", "--mu", "1.0", "--depth", "6.0", "--n", "3", "--out", out]) == 1
    assert not os.path.exists(out)


def test_control_inconclusive_root_exits_1(tmp_path):
    """A sign change located with a verdict other than embedded-candidate fails the run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerances": {"theta_mismatch": 1e-12}}))
    out = str(tmp_path / "control.json")
    assert main(["control", "--config", str(path), "--depth", "6.0", "--n", "1",
                 "--out", out]) == 1
    assert not os.path.exists(out)


def test_control_mu_override_ignores_scan_block(tmp_path):
    """The default scan block [1, 10] does not fit mu = 2, but control does not read it."""
    out = str(tmp_path / "control.json")
    assert main(["control", "--mu", "2.0", "--depth", "12.0", "--n", "5", "--out", out]) == 0
    payload = json.loads((tmp_path / "control.json").read_text())
    assert payload["predicted_embedded_levels"] == [7.0, 2.0]
    assert abs(payload["candidate"]["lambda"] - 7.0) <= 0.05


def test_control_reads_thresholds_from_config(tmp_path):
    """control certifies with the config's tolerances, which its config_hash covers."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerances": {"theta_mismatch": 0.5}}))
    out = str(tmp_path / "control.json")
    assert main(["control", "--config", str(path), "--depth", "0.1", "--n", "3",
                 "--out", out]) == 0
    payload = json.loads((tmp_path / "control.json").read_text())
    assert payload["thresholds"]["theta_mismatch"] == 0.5
    assert payload["thresholds"]["theta_cert"] == 1e-3


@pytest.mark.parametrize("p", [13.5, 30.0])
def test_ground_steep_power_law(tmp_path, p):
    """Steep power laws are valid inputs; their peak is the root of G(s) = mu*s."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nonlinearity": {"family": "power", "params": [p]},
                                "grid": {"R": 20.0, "h": 2e-3}}))
    out = str(tmp_path / "ground.csv")
    assert main(["ground", "--config", str(path), "--out", out]) == 0
    sidecar = json.loads((tmp_path / "ground.json").read_text())
    assert sidecar["shoot_value"] == pytest.approx((p + 1.0) ** (0.5 / p), abs=1e-12)


@pytest.mark.parametrize("over", [[], ["--lmin", "1.5", "--lmax", "3.0", "--n", "2"]])
def test_scan_non_object_block_exits_2(tmp_path, capsys, over):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scan": 5}))
    out = str(tmp_path / "r.json")
    assert main(["scan", "--config", str(path), *over, "--out", out]) == 2
    assert "scan must be a JSON object" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid", [["--n", "0"], ["--lmin", "2.0"], ["--lmax", "4.0"],
                                  ["--lmin", "nan", "--lmax", "4.0"]])
def test_control_bad_grid_exits_2(tmp_path, grid):
    out = str(tmp_path / "control.json")
    assert main(["control", "--depth", "6.0", *grid, "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("depth", ["nan", "inf"])
def test_control_non_finite_depth_exits_2(tmp_path, capsys, depth):
    out = str(tmp_path / "control.json")
    assert main(["control", "--depth", depth, "--out", out]) == 2
    assert "finite --depth" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("eigen", [{"n": "abc"}, {"k": 0}, {"R": -1.0}, None])
def test_spectrum_bad_eigen_block_exits_2(tmp_path, eigen):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eigen": eigen}))
    out = str(tmp_path / "spec.json")
    assert main(["spectrum", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("n", [5, 11, 21])
def test_spectrum_coarse_eigen_grid_exits_2(tmp_path, capsys, n):
    """An eigen grid with fewer than 10 nodes before the tail anchor is a config error."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eigen": {"n": n}}))
    out = str(tmp_path / "spec.json")
    assert main(["spectrum", "--config", str(path), "--out", out]) == 2
    assert "fewer than 10 grid points" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, block", [
    ("ground", {"grid": {"R": "30"}}),
    ("ground", {"grid": {"h": [0.001]}}),
    ("scan", {"scan": {"lmin": "1.5", "lmax": 3.0, "n": 4}}),
    ("scan", {"scan": {"lmin": 1.5, "lmax": "3.0", "n": 4}}),
    ("ground", {"tolerances": {"theta_cert": "small"}}),
    ("ground", {"tolerances": {"tol_ode": -1}}),
    ("spectrum", {"eigen": {"window": [0.5]}}),
    ("spectrum", {"eigen": {"n": 3}}),
    ("spectrum", {"eigen": {"k": True}}),
    *[("ground", {"nonlinearity": {"family": family, "params": [bad]}})
      for family in ("power", "cubic_quintic", "saturable") for bad in (float("nan"), float("inf"))],
    *[("ground", {"nonlinearity": {"family": "tabulated",
                                   "table": {"s": [0.0, 1.0, 2.0, 3.0], "F": [0.0, 1.0, bad, 3.0]}}})
      for bad in (float("nan"), float("inf"))],
    ("scan", {"scan": {"lmin": 3.0, "lmax": 1.5, "n": 4}}),
])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, block):
    """Malformed numbers are configuration errors, not tracebacks or solver failures."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(block))
    out = str(tmp_path / "out.json")
    assert main([command, "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if "nonlinearity" in block:
        assert "bad nonlinearity block" in err
    assert not os.path.exists(out)


def test_from_file_does_not_alias_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mu": 1.0}))
    cfg = RunConfig.from_file(str(path))
    assert cfg.raw["scan"] is not DEFAULTS["scan"]
    cfg.raw["scan"]["n"] = 5
    assert DEFAULTS["scan"]["n"] == 200


def test_config_validation_rules(tmp_path):
    bad = {"mu": -1.0}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(Exception):
        RunConfig.from_file(str(path)).validate()
    ok = RunConfig()
    assert ok.validate() is ok
    assert len(ok.config_hash()) == 64


def test_small_box_warns(tmp_path):
    cfg = {"mu": 1.0, "grid": {"R": 15.0}, "scan": {"lmin": 1.5, "lmax": 2.0, "n": 2}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.warns(UserWarning, match="far-field"):
        RunConfig.from_file(str(path)).validate()


@pytest.mark.parametrize("command, grid, message", [
    ("ground", {"h": 1.5}, "fewer than 10 grid points"),
    ("ground", {"R": 8.0}, "too small to reach the far field"),
    ("scan", {"R": 8.0}, "too small to reach the far field"),
    ("ground", {"R": 20.0, "h": 30.0}, "invalid grid parameters"),
])
def test_bad_main_grid_exits_2(tmp_path, capsys, command, grid, message):
    """The profile grid is checked when the config is validated, and blamed by name."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": grid}))
    out = str(tmp_path / "out.json")
    assert main([command, "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error: grid: " in err and message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["jost", "--lambda", "0.5"],
    ["jost", "--lambda", "-2"],
    ["jost", "--lambda", "nan"],
    ["invert-check", "--lambda", "0.5"],
    ["invert-check", "--lambda", "2.0", "--x0", "-1"],
    ["invert-check", "--lambda", "2.0", "--x0", "0"],
    ["invert-check", "--lambda", "2.0", "--x0", "16"],
    ["jost", "--lambda", "inf"],
    ["invert-check", "--lambda", "inf"],
])
def test_out_of_range_cli_numbers_exit_2(cfg_path, capsys, monkeypatch, argv):
    """Energies off the positive branch and x0 outside (0, R - 5) are refused before any solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("ground state solved for a rejected argument")
    monkeypatch.setattr(solispec.cli, "solve_ground_state", no_solve)
    assert main([*argv, "--config", cfg_path]) == 2
    assert "configuration error" in capsys.readouterr().err
