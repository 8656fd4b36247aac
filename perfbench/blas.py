"""Measure the thread count of the OpenBLAS copies bundled with numpy and scipy.

numpy's wheel ships a 64-bit-integer OpenBLAS (symbols suffixed ``64_``);
scipy's wheel ships its own 32-bit-integer copy, which ``solve_linear``
reaches through ``scipy.linalg.lapack``.  The environment variables that pin
threads are read when each copy loads, so the setting is checked here by
asking each loaded library, not by reading the environment back.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys

# (package, bundled-library directory, file pattern, threads symbol, config symbol)
_LIBRARIES = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so*",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so*",
     "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)


def openblas_threads() -> dict[str, dict]:
    """``package -> {"library", "threads", "config"}``; threads is None when not found.

    Imports numpy and scipy.linalg first so both copies are the ones in use.
    """
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS

    report = {}
    for package, libs_dir, pattern, threads_symbol, config_symbol in _LIBRARIES:
        site = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
        paths = sorted(glob.glob(os.path.join(site, libs_dir, pattern)))
        entry = {"library": None, "threads": None, "config": None}
        if paths:
            library = ctypes.CDLL(paths[0])
            get_threads = getattr(library, threads_symbol, None)
            get_config = getattr(library, config_symbol, None)
            entry["library"] = os.path.basename(paths[0])
            if get_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                entry["threads"] = int(get_threads())
            if get_config is not None:
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                entry["config"] = get_config().decode().strip()
        report[package] = entry
    return report


def pinned_to_one(report: dict[str, dict]) -> bool:
    return all(entry["threads"] == 1 for entry in report.values())
