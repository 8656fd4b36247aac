"""Run the five fixed sweeps, print each output's sha256, and compare them with another run.

    python tools/fixed_sweeps.py --out DIR [--src SRC] [--against DIR]

The fixed sweeps are small `fdrelay sweep` runs whose CSV bytes pin the
simulator's numbers (seed 7, every scheme, design memory inf, 2 and auto):

    inf.csv, m2.csv   --snr-db 0,10 --inr-db=-5,10
                      --scheme proposed,conventional,relay_only,half_duplex
                      --slots 3 --realizations 4 --seed 7 --memory inf|2
    auto.csv          --snr-db=-10,0 --inr-db=-5,0
                      --scheme proposed,relay_only,conventional
                      --slots 10 --realizations 20 --seed 7 --memory auto
    deep.csv          --snr-db 0,20 --inr-db=-inf,10
                      --scheme proposed,conventional,half_duplex
                      --slots 10 --realizations 8 --seed 7 --memory inf
    narrow.csv        --ns 2 --nr 4 --snr-db 0,20 --inr-db=-5,10
                      --scheme proposed,conventional,relay_only,half_duplex
                      --slots 4 --realizations 6 --seed 7 --memory 2

``deep.csv`` pins half duplex beyond slot 3 and runs without loopback
error (INR -inf dB, so sigma_e = 0).  The others run at n_r = 5 > 2 n_s,
where each slot is designed on a reduced problem; ``narrow.csv`` runs at
n_r = 2 n_s, where the reduction is the identity.

Each sweep runs in its own process on the package under SRC (default: this
repository's ``src``) with every BLAS pool pinned to one thread, so the bytes
do not depend on the thread count.  With ``--against DIR`` each file is
compared with the same-named file in DIR: the rows, every non-numeric field
and ``m_hat`` must be equal (exit status 1 otherwise), and the largest
relative difference of each numeric column is printed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

_SMALL = ["--snr-db", "0,10", "--inr-db=-5,10",
          "--scheme", "proposed,conventional,relay_only,half_duplex",
          "--slots", "3", "--realizations", "4", "--seed", "7"]
SWEEPS = {
    "inf.csv": _SMALL + ["--memory", "inf"],
    "m2.csv": _SMALL + ["--memory", "2"],
    "auto.csv": ["--snr-db=-10,0", "--inr-db=-5,0", "--scheme", "proposed,relay_only,conventional",
                 "--slots", "10", "--realizations", "20", "--seed", "7", "--memory", "auto"],
    "deep.csv": ["--snr-db", "0,20", "--inr-db=-inf,10", "--scheme", "proposed,conventional,half_duplex",
                 "--slots", "10", "--realizations", "8", "--seed", "7", "--memory", "inf"],
    "narrow.csv": ["--ns", "2", "--nr", "4", "--snr-db", "0,20", "--inr-db=-5,10",
                   "--scheme", "proposed,conventional,relay_only,half_duplex",
                   "--slots", "4", "--realizations", "6", "--seed", "7", "--memory", "2"],
}
NUMERIC = ("mean_sum_mse", "se_sum_mse", "mean_sum_rate", "se_sum_rate")
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run(out: Path, src: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(src)}
    for name, flags in SWEEPS.items():
        path = out / name
        command = [sys.executable, "-c", "from fdrelay.cli import main; raise SystemExit(main())",
                   "sweep", *flags, "--out", str(path)]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def compare(out: Path, against: Path) -> bool:
    """Print the per-column comparison of every sweep; True when all non-numeric fields agree."""
    same = True
    for name in SWEEPS:
        new, old = _rows(out / name), _rows(against / name)
        if len(new) != len(old) or any(a.keys() != b.keys() for a, b in zip(new, old)):
            print(f"{name}: {len(new)} rows against {len(old)}, or different columns")
            same = False
            continue
        mismatched = [(k, field) for k, (a, b) in enumerate(zip(new, old))
                      for field in a if field not in NUMERIC and a[field] != b[field]]
        for k, field in mismatched[:5]:
            print(f"{name}: row {k + 2} field {field}: {new[k][field]!r} against {old[k][field]!r}")
        same &= not mismatched
        largest = {column: 0.0 for column in NUMERIC}
        for a, b in zip(new, old):
            for column in NUMERIC:
                x, y = float(a[column]), float(b[column])
                if x != y:
                    largest[column] = max(largest[column], abs(x - y) / max(abs(x), abs(y)))
        print(f"{name}: {len(new)} rows, non-numeric fields {'equal' if not mismatched else 'DIFFER'}; "
              "largest relative difference " + ", ".join(f"{c} {v:.1e}" for c, v in largest.items()))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for the five CSV files")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the fdrelay package to run")
    parser.add_argument("--against", type=Path, default=None, help="directory of an earlier run to compare with")
    args = parser.parse_args(argv)
    run(args.out, args.src.resolve())
    return 0 if args.against is None or compare(args.out, args.against) else 1


if __name__ == "__main__":
    raise SystemExit(main())
