import json
import os
import subprocess
import sys

import pytest

import roughvol
from roughvol.cli import run


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_freeze_gap_writes_both_artifacts(tmp_path, capsys):
    code = run(
        ["freeze-gap", "--alpha", "0.75", "--n", "16,64,256", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr()
    assert "wrote" in out.out and out.err == ""
    csv_path = tmp_path / "freeze-gap.csv"
    data = json.loads(read(tmp_path / "freeze-gap.json"))
    lines = read(csv_path).decode().splitlines()
    assert lines[0] == "n,gap,asymptote,ratio"
    assert len(lines) == 4
    assert data["tool"]["name"] == "roughvol"
    assert data["tool"]["command"] == "freeze-gap"
    assert data["results"]["zeta_argument"] == pytest.approx(0.5)
    assert data["pass"]["asymptote_band"] in (True, False)


def test_missing_alpha_fails_without_artifacts(tmp_path, capsys):
    code = run(["exact-law", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr()
    assert "error:" in out.err and "--alpha" in out.err
    assert list(tmp_path.iterdir()) == []


def test_bad_subcommand_and_bad_value(tmp_path, capsys):
    assert run(["no-such-mode", "--alpha", "0.75"]) == 1
    assert run(["exact-law", "--alpha", "1.4", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert "error:" in out.err
    assert list(tmp_path.iterdir()) == []


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# base setup\nalpha = 0.8\nkappa1 = 0.7\nn = 8,16\n")
    out = tmp_path / "art"
    code = run(
        [
            "scheme-law",
            "--config",
            str(cfg),
            "--kappa1",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    echo = json.loads(read(out / "scheme-law.json"))["config"]
    assert echo["alpha"] == 0.8  # from the file
    assert echo["kappa1"] == 0.25  # flag wins over file
    assert echo["kappa2"] == -1.0  # default survives
    assert echo["quantity"] == "mean_X"  # full echo includes unused keys
    # the whole echo: every option key once, n parsed, specs canonical, plus out
    assert echo == {
        "alpha": 0.8,
        "b": "constant:0.0",
        "f": "affine:0.0,1.0",
        "horizon": 1.0,
        "kappa1": 0.25,
        "kappa2": -1.0,
        "l0": 0.0,
        "n": [8, 16],
        "order": 3,
        "out": str(out),
        "paths": 10000,
        "phi": "polynomial:0.0,0.0,0.0,1.0",
        "quantity": "mean_X",
        "rho": 0.7,
        "seed": 1234,
        "sigma": 1.0,
        "tol": 0.15,
        "which": "exact",
        "x0": 0.2,
    }


def test_unknown_config_key_is_located(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.8\nkurtosis = 3\n")
    assert run(["exact-law", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "run.cfg:2" in err and "kurtosis" in err


def test_weak_rate_artifact_shape(tmp_path):
    code = run(
        [
            "weak-rate",
            "--alpha",
            "0.75",
            "--quantity",
            "mean_X",
            "--n",
            "16,32,64,128",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = read(tmp_path / "weak-rate.csv").decode().splitlines()
    assert lines[0] == "n,error,v_n,ratio"
    assert len(lines) == 5
    doc = json.loads(read(tmp_path / "weak-rate.json"))
    for key in ("slope", "intercept", "r_squared", "theoretical"):
        assert key in doc["results"]
    assert isinstance(doc["pass"]["rate_within_band"], bool)


def test_stationary_is_json_only(tmp_path):
    code = run(["stationary", "--alpha", "0.75", "--out", str(tmp_path)])
    assert code == 0
    assert not (tmp_path / "stationary.csv").exists()
    doc = json.loads(read(tmp_path / "stationary.json"))
    res = doc["results"]
    assert res["rel_gap"] < 0.05
    assert doc["pass"]["variance_settled"] in (True, False)


def test_stationary_near_alpha_one_half(tmp_path):
    # the closed-form limit and cov_exact at t = 40 both stay in range at
    # the alpha -> 1/2 edge, where the Mittag-Leffler terms are largest
    code = run(["stationary", "--alpha", "0.51", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(read(tmp_path / "stationary.json"))
    assert doc["pass"]["variance_settled"] is True


def test_byte_identical_reruns(tmp_path):
    argv = [
        "sample",
        "--alpha",
        "0.75",
        "--n",
        "32",
        "--paths",
        "2000",
        "--seed",
        "5",
        "--out",
        str(tmp_path),
    ]
    assert run(argv) == 0
    first_csv = read(tmp_path / "sample.csv")
    first_json = read(tmp_path / "sample.json")
    assert run(argv) == 0
    assert read(tmp_path / "sample.csv") == first_csv
    assert read(tmp_path / "sample.json") == first_json


def test_mc_artifact_has_coarse_and_fine_rows(tmp_path):
    code = run(
        [
            "mc",
            "--alpha",
            "0.75",
            "--n",
            "16,64",
            "--paths",
            "4000",
            "--seed",
            "3",
            "--phi",
            "poly:0,0,0,1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = read(tmp_path / "mc.csv").decode().splitlines()
    assert lines[0] == "grid_n,estimate,std_error"
    assert len(lines) == 3
    assert lines[1].startswith("16,") and lines[2].startswith("64,")
    res = json.loads(read(tmp_path / "mc.json"))["results"]
    assert {"difference", "difference_se", "z"} <= set(res)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exit_code(tmp_path, capsys):
    code = run(
        [
            "mc",
            "--alpha",
            "0.75",
            "--n",
            "16,32",
            "--paths",
            "64",
            "--f",
            "exponential-affine:1,900",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert not (tmp_path / "mc.json").exists()


def test_exact_law_marginal_table(tmp_path):
    code = run(
        [
            "exact-law",
            "--alpha",
            "0.8",
            "--x0",
            "0.4",
            "--n",
            "8",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = read(tmp_path / "exact-law.csv").decode().splitlines()
    assert lines[0] == "t,mean,var"
    assert len(lines) == 10  # header + t=0 row + 8 grid rows
    assert lines[1] == "0.0,0.4,0.0"


def test_scheme_moment_writes_only_the_total(tmp_path, capsys):
    argv = ["moment", "--alpha", "0.75", "--which", "scheme", "--order", "4"]
    assert run(argv + ["--n", "128", "--out", str(tmp_path)]) == 0
    lines = read(tmp_path / "moment.csv").decode().splitlines()
    assert lines[0] == "word,contribution"
    assert len(lines) == 2 and lines[1].startswith("total,")
    data = json.loads(read(tmp_path / "moment.json"))
    assert data["results"]["n"] == 128
    assert float(lines[1].split(",")[1]) == data["results"]["total"]
    # N >= 2 refuses n > 2048 before any law is built
    assert run(argv + ["--n", "2049", "--out", str(tmp_path / "big")]) == 1
    assert "n <= 2048" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


def test_import_leaves_mpmath_unloaded():
    # mpmath is a test-only dependency: a fresh CLI import must not load it
    src = os.path.dirname(os.path.dirname(roughvol.__file__))
    code = "import roughvol.cli, sys; sys.exit(any(m.split('.')[0] == 'mpmath' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def test_cli_at_nonpositive_kappa2_leaves_scipy_unloaded(tmp_path):
    # only hyp2f1 needs scipy; no command at kappa2 <= 0 may load it
    src = os.path.dirname(os.path.dirname(roughvol.__file__))
    ops = [
        ["exact-law", "--n", "16"],
        ["moment", "--which", "exact", "--order", "2", "--b", "poly:0.1,0,0.3"],
        ["scheme-law", "--n", "64"],
        ["sample", "--n", "32", "--paths", "256"],
        ["strong-rate", "--n", "8,16,32,64"],
        ["mc", "--n", "8,16", "--paths", "256", "--phi", "poly:0,0,0,1"],
    ]
    argvs = [op + ["--alpha", "0.75", "--kappa2", "-1", "--out", str(tmp_path)] for op in ops]
    code = (
        "import sys, roughvol.cli\n"
        f"codes = [roughvol.cli.run(argv) for argv in {argvs!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "sys.exit(f'{codes} {loaded[:5]}' if any(codes) or loaded else 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
