"""`import hiem` pins one BLAS thread unless the caller chose a count."""
import os
import subprocess
import sys
from pathlib import Path

import hiem

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(hiem.__file__).resolve().parents[1])


def blas_env_after_import(preset):
    """The three variables as a fresh interpreter sees them after
    `import hiem` and NumPy, starting from `preset` alone."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=SRC)
    code = ("import os, hiem, numpy; "
            f"print(' '.join(os.environ.get(v, '-') for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.split()


def test_unset_variables_are_pinned_to_one_thread():
    assert blas_env_after_import({}) == ["1", "1", "1"]


def test_a_preset_value_wins():
    got = blas_env_after_import({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"})
    assert got == ["2", "1", "3"]
