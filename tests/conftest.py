import os

# one BLAS thread for the test session, as `import hiem` sets it; this must
# run before NumPy is first imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest

from hiem.mapfile import builtin_fixture, load_map


@pytest.fixture(scope="session")
def bench15():
    return load_map(builtin_fixture("bench15"))


@pytest.fixture(scope="session")
def ray7():
    return load_map(builtin_fixture("ray7"))


@pytest.fixture(scope="session")
def open7():
    return load_map(builtin_fixture("open7"))


@pytest.fixture(scope="session")
def tabular5():
    return load_map(builtin_fixture("tabular5"))


def los_oracle(grid, a, b, k=4097):
    """Independent dense-sampling line-of-sight check: walls whose interior
    the segment crosses block; samples on gridlines are skipped."""
    if a == b:
        return True
    ax, ay = a[0] + 0.5, a[1] + 0.5
    bx, by = b[0] + 0.5, b[1] + 0.5
    for i in range(1, k):
        t = i / k
        x = ax + t * (bx - ax)
        y = ay + t * (by - ay)
        if abs(x - round(x)) < 1e-9 or abs(y - round(y)) < 1e-9:
            continue
        c = (int(np.floor(x)), int(np.floor(y)))
        if c == a or c == b:
            continue
        if grid.is_wall(*c):
            return False
    return True
