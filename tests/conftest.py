import numpy as np
import pytest

from nclb import airyfun
from nclb import expr as ex
from nclb.models import load_model


@pytest.fixture(scope="session")
def h3():
    return load_model("heisenberg")


@pytest.fixture(scope="session")
def g47():
    return load_model("g4_7")


@pytest.fixture
def airy_array_sizes():
    """The size of each `airyfun.airy_array` call while the test runs,
    compiled expressions' calls included: their array runtime binds the
    function once, so it and the code made with it are rebuilt around the
    counting one, and again around the real one afterwards."""
    real, sizes = airyfun.airy_array, []

    def counted(kind, x):
        sizes.append(int(np.size(x)))
        return real(kind, x)

    def rebind(fn):
        airyfun.airy_array = fn
        ex._array_runtime.cache_clear()
        ex._closure_maker.cache_clear()

    rebind(counted)
    try:
        yield sizes
    finally:
        rebind(real)
