"""The comparison of tools/fixed_sweeps.py on canned sweep CSVs; no sweep runs."""

import csv
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fixed_sweeps.py"
_SPEC = importlib.util.spec_from_file_location("fixed_sweeps", _PATH)
fixed_sweeps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fixed_sweeps)

_COLUMNS = ["snr_db", "inr_db", "scheme", "slot", "m", "mean_sum_mse", "se_sum_mse", "mean_sum_rate",
            "se_sum_rate", "n_realizations", "m_hat", "seed", "config_hash"]


def _row(slot, mse, m_hat="3"):
    return ["0.0", "5.0", "proposed", str(slot), "3", repr(mse), "0.01", "4.5", "0.02", "20", m_hat, "7", "abc"]


def _write(directory: Path, rows_by_sweep):
    directory.mkdir()
    for name in fixed_sweeps.SWEEPS:
        with open(directory / name, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_COLUMNS)
            writer.writerows(rows_by_sweep.get(name, [_row(1, 0.5), _row(2, 0.625)]))
    return directory


def test_rounding_only_differences_compare_equal(tmp_path, capsys):
    old = _write(tmp_path / "old", {})
    new = _write(tmp_path / "new", {"m2.csv": [_row(1, 0.5 * (1 + 3e-14)), _row(2, 0.625)]})
    assert fixed_sweeps.compare(new, old)
    out = capsys.readouterr().out
    assert "m2.csv: 2 rows, non-numeric fields equal; largest relative difference mean_sum_mse 3.0e-14" in out


def test_a_changed_m_hat_compares_unequal(tmp_path, capsys):
    old = _write(tmp_path / "old", {})
    new = _write(tmp_path / "new", {"auto.csv": [_row(1, 0.5), _row(2, 0.625, m_hat="4")]})
    assert not fixed_sweeps.compare(new, old)
    assert "auto.csv: row 3 field m_hat: '4' against '3'" in capsys.readouterr().out


def test_a_different_row_count_compares_unequal(tmp_path, capsys):
    old = _write(tmp_path / "old", {})
    new = _write(tmp_path / "new", {"deep.csv": [_row(1, 0.5)]})
    assert not fixed_sweeps.compare(new, old)
    assert "deep.csv: 1 rows against 2" in capsys.readouterr().out
