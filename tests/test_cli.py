import json

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


def test_validate_command(capsys):
    code = main(["validate", "--draws", "4000", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "oracle checks passed" in out


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
