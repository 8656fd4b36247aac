import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdrelay.cli import main, parse_grid
from fdrelay.harness import read_records_csv, read_records_json


def test_parse_grid_comma_list():
    assert parse_grid("-10,0,10") == (-10.0, 0.0, 10.0)


def test_parse_grid_range_inclusive():
    assert parse_grid("-10:20:5") == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def test_parse_grid_single_value():
    assert parse_grid("5") == (5.0,)


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main([
        "sweep", "--snr-db", "0,5", "--inr-db", "0", "--scheme", "proposed",
        "--ns", "1", "--nr", "2", "--slots", "2", "--realizations", "2",
        "--iterations", "5", "--seed", "1", "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    records = read_records_csv(str(out))
    assert len(records) == 4
    assert {r.snr_db for r in records} == {0.0, 5.0}


def test_trajectory_requires_single_point(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "trajectory", "--snr-db", "0,5", "--inr-db", "0",
            "--out", str(tmp_path / "t.csv"),
        ])
    # a grid from the config file is refused too, before anything runs
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"snr_db": [0, 5]}))
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit):
        main([
            "trajectory", "--config", str(config), "--slots", "1", "--realizations", "2",
            "--out", str(out),
        ])
    assert not out.exists()


def test_trajectory_emits_per_slot_series(tmp_path):
    out = tmp_path / "t.json"
    code = main([
        "trajectory", "--snr-db", "5", "--inr-db", "0", "--scheme", "proposed",
        "--ns", "1", "--nr", "2", "--slots", "3", "--realizations", "2",
        "--iterations", "5", "--seed", "1", "--out", str(out), "--format", "json",
    ])
    assert code == 0
    records = read_records_json(str(out))
    assert [r.slot for r in records] == [1, 2, 3]


def test_config_file_overrides_flags(tmp_path):
    out = tmp_path / "c.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"snr_db": [7.0], "realizations": 3}))
    code = main([
        "sweep", "--snr-db", "0,5", "--inr-db", "0", "--scheme", "proposed",
        "--ns", "1", "--nr", "2", "--slots", "1", "--realizations", "2",
        "--iterations", "5", "--seed", "1", "--out", str(out),
        "--config", str(config),
    ])
    assert code == 0
    records = read_records_csv(str(out))
    assert {r.snr_db for r in records} == {7.0}
    assert records[0].n_realizations == 3


def test_seed_env_var_used_as_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FDRELAY_SEED", "99")
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--snr-db", "0", "--inr-db", "0", "--scheme", "proposed",
        "--ns", "1", "--nr", "2", "--slots", "1", "--realizations", "2",
        "--iterations", "5", "--out", str(out),
    ])
    assert code == 0
    assert read_records_csv(str(out))[0].seed == 99


def test_select_memory_command(capsys):
    code = main([
        "select-memory", "--snr-db", "0", "--inr-db", "-100",
        "--ns", "1", "--nr", "2", "--realizations", "10", "--seed", "0",
        "--iterations", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "selected memory: 1" in out


@pytest.mark.parametrize("flag", [["--memory", "3"], ["--slots", "1"]])
def test_select_memory_rejects_flags_it_would_ignore(tmp_path, capsys, flag):
    argv = ["select-memory", "--snr-db", "0", "--inr-db", "0", "--realizations", "2"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + flag)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({flag[0][2:]: int(flag[1])}))
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--config", str(config)])
    assert excinfo.value.code == 2
    assert f"unknown config key {flag[0][2:]!r}" in capsys.readouterr().err


def test_validate_command(capsys):
    code = main(["validate", "--draws", "4000", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "oracle checks passed" in out


@pytest.mark.parametrize("argv, seed_env", [(["--seed", "-1"], None), (["--draws", "0"], None), ([], "abc")])
def test_validate_bad_input_is_a_usage_error(monkeypatch, capsys, argv, seed_env):
    if seed_env is not None:
        monkeypatch.setenv("FDRELAY_SEED", seed_env)
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", *argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("fdrelay validate: error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_memory_flag_accepts_inf_and_auto(tmp_path):
    out = tmp_path / "m.csv"
    code = main([
        "sweep", "--snr-db", "0", "--inr-db", "-100", "--scheme", "proposed",
        "--ns", "1", "--nr", "2", "--slots", "2", "--realizations", "2",
        "--iterations", "5", "--seed", "1", "--memory", "auto", "--out", str(out),
    ])
    assert code == 0
    records = read_records_csv(str(out))
    assert records[0].m_hat == "1"


_BAD_VALUES = (["--memory", "0"], ["--scheme", "nope"], ["--realizations", "0"], ["--snr-db", ""],
               ["--iterations", "0"], ["--nr", "0"])
# An empty scheme list and a repeated value; their cases follow all of the above, so those keep their ids.
_EMPTY_OR_REPEATED = (["--scheme", ","], ["--snr-db", "0,0"])
# A negative seed, a config file that cannot be read, an output file in a missing directory and an output
# path that is a directory; after the above too.
_MISSING = os.path.join(os.sep, "nonexistent")
_SEED_OR_PATH = (["--seed", "-1"], ["--config", os.path.join(_MISSING, "c.json")],
                 ["--out", os.path.join(_MISSING, "r.csv")], ["--out", os.sep])


@pytest.mark.parametrize("command, bad", [
    (command, bad) for values in (_BAD_VALUES, _EMPTY_OR_REPEATED, _SEED_OR_PATH)
    for command in ("sweep", "trajectory", "select-memory") for bad in values
    if command != "select-memory" or bad[0] not in ("--scheme", "--memory", "--out")  # flags select-memory lacks
])
def test_bad_spec_value_is_a_usage_error(tmp_path, capsys, command, bad):
    out = tmp_path / "r.csv"
    argv = [command, "--snr-db", "0", "--inr-db", "0"]
    if command != "select-memory":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + bad)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fdrelay {command}: error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--snr-db", "--inr-db"])
def test_nan_grid_value_is_a_usage_error(tmp_path, capsys, flag):
    # every grid value is checked before anything runs, not only the first; SNR -inf dB and
    # INR inf dB give an infinite noise or loopback-error variance
    out = tmp_path / "r.csv"
    for grid in ("0,nan", "0,-inf" if flag == "--snr-db" else "0,inf"):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--snr-db", "0", "--inr-db", "0", flag, grid, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("fdrelay sweep: error: ") and err.count("\n") == 1, grid
        assert not out.exists()


def test_exit_codes_through_the_module(tmp_path):
    # 0 when every cell succeeds, 1 when a cell fails (a noise-free SNR leaves the
    # rate's interference covariance singular), 2 for a usage error
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "r.csv"

    def run(*args):
        base = [sys.executable, "-m", "fdrelay.cli", "sweep", "--inr-db=-inf", "--ns", "1", "--nr", "2",
                "--slots", "1", "--realizations", "2", "--iterations", "3", "--out", str(out)]
        return subprocess.run(base + list(args), env=env, capture_output=True, text=True).returncode

    assert run("--snr-db", "0") == 0
    assert run("--snr-db", "0,inf") == 1
    assert len(read_records_csv(str(out))) == 1
    out.unlink()
    assert run("--snr-db", "0", "--memory", "0") == 2
    assert not out.exists()
