import json
import os

import pytest

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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
