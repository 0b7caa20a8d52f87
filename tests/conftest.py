import numpy as np
import pytest

from hardy_perturb import (
    BlaschkeProduct,
    OperatorMatrix,
    TridiagonalKernel,
    shift_from_columns,
    shift_from_kernel,
    suite,
)

NW = 96


class DenseRead(AssertionError):
    """An operator's dense matrix, or a window of at least half its order each way, was formed."""


@pytest.fixture
def no_dense(monkeypatch):
    """Make every dense read of an :class:`OperatorMatrix` raise :class:`DenseRead`.

    ``entries`` raises on any read; ``window`` raises when both its sides are
    at least half the working order.  Returns the exception class.
    """
    def entries(op):
        raise DenseRead(f"entries of an operator of order {op.size}")

    real_window = OperatorMatrix.window

    def window(op, rows, cols=None):
        if 2 * min(rows, rows if cols is None else cols) >= op.size:
            raise DenseRead(f"a {rows} x {cols} window of an operator of order {op.size}")
        return real_window(op, rows, cols)

    monkeypatch.setattr(OperatorMatrix, "entries", property(entries))
    monkeypatch.setattr(OperatorMatrix, "window", window)
    return DenseRead


@pytest.fixture
def nw():
    return NW


@pytest.fixture
def theta_half():
    """The Blaschke factor with a single zero at 1/2."""
    return BlaschkeProduct(1.0, (0.5,))


@pytest.fixture
def one_plus_z_kernel():
    """Kernel whose first basis vector is 1 + z (a0 = b0 = 1), rest plain."""
    return TridiagonalKernel(1, (1.0,), (1.0,))


@pytest.fixture
def one_plus_z_shift(one_plus_z_kernel):
    return shift_from_kernel(one_plus_z_kernel, NW)


@pytest.fixture
def two_perturbation_shift():
    return two_perturbation()


@pytest.fixture
def weighted_shift():
    """The 1-shift sending 1 to 2z (weights 2, 1, 1, ...)."""
    return shift_from_columns(1, [[0.0, 1.0]], NW)


def two_perturbation(nw=NW):
    """The rank-one 2-perturbation sending both 1 and z to z^2."""
    return suite._two_perturbation_example(nw)


def rank_one_shift(a0, b0, nw=NW):
    """The 1-shift sending 1 to a0 z + b0 z^2 via explicit columns."""
    return suite._rank_one_shift(a0, b0, nw)


def theta_span(theta, count, nw=NW):
    """Orthonormal basis of span{theta, z theta, ..., z^(count-1) theta}."""
    return suite._theta_span(theta, nw, count, None)


def theta_half_taylor_oracle(nw):
    """Geometric-series expansion of (1/2 - z)/(1 - z/2), fully by hand:
    (1/2 - z) * sum_k (z/2)^k, so c_0 = 1/2 and c_k = 2^-(k+1) - 2^-(k-1).
    """
    c = np.zeros(nw, dtype=np.complex128)
    c[0] = 0.5
    for k in range(1, nw):
        c[k] = 2.0 ** -(k + 1) - 2.0 ** -(k - 1)
    return c
