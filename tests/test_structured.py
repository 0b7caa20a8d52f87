"""Structured operators ("lower Toeplitz + finite block") against dense oracles.

The library builds n-shifts and commutant members on a leading window and
their Toeplitz symbols; ``dense_oracle`` builds the same objects with order-N
solves, products and SVDs.  Inputs are seeded random kernels (n = 1..6,
``b`` in the disc of radius 0.9, some with general ``a``) and symbols of
degree 1..8 at working orders 16, 64 and 128.
"""

import numpy as np
import pytest

import dense_oracle as oracle
from hardy_perturb import (
    DEFAULT_TOL,
    OperatorMatrix,
    Polynomial,
    TridiagonalKernel,
    commutant,
    commutant_element,
    core,
    self_commutator,
    shift_from_columns,
    shift_from_kernel,
    suite,
    validate_n_shift,
    verify_commutation,
    verify_power_identities,
)
from hardy_perturb.core import band_spread
from hardy_perturb.errors import (
    DimensionMismatchError,
    HardyPerturbError,
    PreconditionError,
    TruncationError,
)

ORDERS = (16, 64, 128)
EXACT = 1e-14


def _disc(rng, radius):
    return complex(np.sqrt(rng.uniform()) * radius * np.exp(2j * np.pi * rng.uniform()))


def random_kernel(rng, n, general_a):
    b = tuple(_disc(rng, 0.9) for _ in range(n))
    if general_a:
        a = tuple(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n))
    else:
        a = (1.0,) * n
    return TridiagonalKernel(n, a, b)


def random_symbol(rng, degree):
    return Polynomial(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def close(structured, dense):
    scale = max(1.0, float(np.abs(dense).max()))
    return float(np.abs(structured - dense).max()) <= EXACT * scale


CASES = [(nw, n, general_a) for nw in ORDERS for n in range(1, 7)
         for general_a in (False, True)]


@pytest.mark.parametrize("nw,n,general_a", CASES)
def test_kernel_shift_layers_match_the_dense_oracle(nw, n, general_a):
    rng = np.random.default_rng([nw, n, general_a])
    kernel = random_kernel(rng, n, general_a)
    shift = shift_from_kernel(kernel, nw)
    s, f = oracle.shift_from_kernel(kernel, nw)
    assert close(shift.S.entries, s) and close(shift.F.entries, f)

    m_max = n + 4
    try:
        dense = oracle.verify_power_identities(s, n, m_max)
    except TruncationError:
        with pytest.raises(TruncationError):
            verify_power_identities(shift, m_max)
    else:
        rep = verify_power_identities(shift, m_max)
        for key, value in dense["worst"].items():
            assert abs(rep["worst"][key] - value) <= EXACT
        assert [c["p_degree"] for c in rep["checks"]] == [
            c["p_degree"] for c in dense["checks"]]
        assert rep["passed"] == dense["passed"]

    for degree in range(1, 9):
        if degree >= nw - n - 2:
            break
        symbol = random_symbol(rng, degree)
        element = commutant_element(symbol, kernel, nw, shift=shift)
        x, t, n_mat = oracle.commutant_element(symbol.coeffs, kernel, nw)
        assert close(element.X.entries, x)
        assert close(element.T.entries, t)
        assert close(element.N.entries, n_mat)
        assert abs(verify_commutation(element.X, shift)
                   - oracle.verify_commutation(x, s)) <= EXACT * max(1.0, np.abs(x).max())

    try:
        rep = self_commutator(shift)
    except TruncationError:
        assert nw <= 2 * (shift.perturbation_degree() + 1) + 4
        return
    dense = oracle.self_commutator(s)
    assert rep.block_size == dense["block_size"]
    assert np.abs(rep.block - dense["block"]).max() <= EXACT
    assert rep.rank == dense["rank"]
    assert rep.hyponormal == dense["hyponormal"]
    assert rep.essentially_normal == dense["essentially_normal"]


def explicit_columns(rng):
    """Random valid perturbation columns for n = 1..3, then clause violators."""
    sets = []
    for n in range(1, 4):
        cols = []
        for m in range(n):
            c = np.zeros(m + 3, dtype=complex)
            c[m + 1:] = rng.standard_normal(2) * 0.4
            cols.append(c)
        sets.append((n, cols))
    # A diagonal entry, and an entry above the diagonal (clause (ii)).
    sets.append((1, [[1.0]]))
    sets.append((2, [[0.0, 0.5], [0.3, 0.2, 0.1]]))
    return sets


@pytest.mark.parametrize("nw", ORDERS)
def test_explicit_column_shifts_match_the_dense_oracle(nw):
    rng = np.random.default_rng(nw)
    for n, cols in explicit_columns(rng):
        shift = shift_from_columns(n, cols, nw, strict=False)
        s = oracle.shift_matrix(nw)
        for m, c in enumerate(cols):
            s[: len(c), m] += c
        assert np.array_equal(shift.S.entries, s)
        assert verify_commutation(shift.S @ shift.S, shift) == pytest.approx(
            oracle.verify_commutation(s @ s, s), abs=EXACT)
        try:
            dense = oracle.verify_power_identities(s, n, n + 4)
        except TruncationError:
            dense = None
        if dense is not None:
            rep = verify_power_identities(shift, n + 4)
            for key, value in dense["worst"].items():
                assert rep["worst"][key] == pytest.approx(value, abs=EXACT)
            assert rep["passed"] == dense["passed"]
        if nw > 2 * (shift.perturbation_degree() + 1) + 4:
            rep, dense = self_commutator(shift), oracle.self_commutator(s)
            assert rep.block_size == dense["block_size"]
            assert np.abs(rep.block - dense["block"]).max() <= EXACT
            assert rep.rank == dense["rank"]
            assert rep.essentially_normal == dense["essentially_normal"]


def test_operator_algebra_matches_dense_products():
    # Blocks with entries above the diagonal, symbols of several degrees and
    # one plain array (the degenerate case): every operation against numpy.
    rng = np.random.default_rng(5)
    nw = 24

    def operator(k, length):
        block = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return OperatorMatrix(block, rng.standard_normal(length), nw)

    pairs = [(3, 2, 5, 4), (0, 3, 4, 0), (6, 0, 0, 3), (nw, 0, 3, 2), (0, 2, 0, 3)]
    for k1, l1, k2, l2 in pairs:
        a, b = operator(k1, l1), operator(k2, l2)
        assert np.abs((a @ b).entries - a.entries @ b.entries).max() < 1e-12
        assert np.array_equal((a - b).entries, a.entries - b.entries)
        v = rng.standard_normal(nw) + 1j * rng.standard_normal(nw)
        assert np.abs(a @ v - a.entries @ v).max() < 1e-12
        prod = a @ b
        for rows in (slice(None), slice(None, 7), slice(3, None), slice(2, 9)):
            for cols in (slice(None), slice(None, 5), slice(4, None)):
                want = np.abs(prod.entries[rows, cols]).max(initial=0.0)
                assert prod.max_abs(rows, cols) == pytest.approx(want, abs=1e-12)
        assert band_spread(prod) == oracle.band_spread(prod.entries)


def test_column_stack_images_match_dense_products():
    # Block on the leading rows plus one sliced add per symbol diagonal,
    # against the dense matrix: random blocks and symbols, a whole-matrix
    # block, no symbol, a symbol longer than the working order, a symbol with
    # zero diagonals, single vectors and stacks of width 0 to 7.
    rng = np.random.default_rng(11)
    nw = 24
    shapes = [(3, 2), (0, 5), (6, 0), (nw, 3), (0, 0), (4, nw + 9), (nw, nw + 9), (12, 1)]
    operators = [OperatorMatrix(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
                                rng.standard_normal(length) + 1j * rng.standard_normal(length), nw)
                 for k, length in shapes]
    operators.append(OperatorMatrix.toeplitz((0.0, 1.0), nw))
    operators.append(OperatorMatrix(np.eye(2), (0.0, 0.0, 2.0, 0.0, -1.0j), nw))
    for op in operators:
        for width in (0, 1, 3, 7):
            x = rng.standard_normal((nw, width)) + 1j * rng.standard_normal((nw, width))
            image = op @ x
            assert image.shape == (nw, width)
            assert np.abs(image - op.entries @ x).max(initial=0.0) <= 1e-12
        v = rng.standard_normal(nw) + 1j * rng.standard_normal(nw)
        assert np.abs(op @ v - op.entries @ v).max() <= 1e-12
        with pytest.raises(DimensionMismatchError):
            op @ np.zeros((nw - 1, 2))
        with pytest.raises(DimensionMismatchError):
            op @ np.zeros(nw + 1)


def test_window_matches_the_per_diagonal_oracle():
    # Square and rectangular windows, shorter and longer than the symbol, of
    # symbols with zero diagonals or none nonzero, under blocks smaller and
    # larger than the window, down to zero rows or columns.
    rng = np.random.default_rng(17)
    nw = 20

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    symbols = [cplx(4), np.array([0.0, 1.0]), np.array([0.0, 0.0, 2.0, 0.0, -1.0j, 0.0]),
               np.zeros(5), cplx(nw), (0.0,) * 10 + (1.0,), ()]
    blocks = [np.zeros((0, 0)), cplx(3, 3), cplx(9, 9), cplx(nw, nw)]
    shapes = [(7, 7), (3, 11), (11, 3), (1, 6), (16, 2), (nw, nw), (nw, 5), (0, 4), (4, 0),
              (0, 0)]
    for symbol in symbols:
        for block in blocks:
            op = OperatorMatrix(block, symbol, nw)
            for rows, cols in shapes:
                got = op.window(rows, cols)
                assert got.flags.writeable and not np.shares_memory(got, op.block)
                assert np.array_equal(got, oracle.window(op.block, op.symbol, rows, cols))
            assert np.array_equal(op.window(6), oracle.window(op.block, op.symbol, 6, 6))


def test_plain_array_is_its_own_dense_view():
    a = np.arange(16.0).reshape(4, 4)
    op = OperatorMatrix(a)
    assert op.block_size == op.size == 4 and op.symbol.size == 0
    assert op.entries is op.block and np.array_equal(op.entries, a)


def test_dense_view_is_built_on_each_read_and_kept_nowhere():
    op = OperatorMatrix(np.ones((2, 2)), (0.0, 1.0), 6)
    first = op.entries
    assert np.array_equal(first, oracle.window(op.block, op.symbol, 6, 6))
    assert not first.flags.writeable
    assert op.entries is not first and np.array_equal(op.entries, first)
    assert "entries" not in vars(op)


def test_operator_algebra_path_builds_no_dense_view():
    kernel = TridiagonalKernel(3, (1.0, 0.7j, 1.0), (0.5j, 0.4, -0.2))
    nw = 512
    shift = shift_from_kernel(kernel, nw)
    validate_n_shift(shift)
    verify_power_identities(shift, 7)
    element = commutant_element(random_symbol(np.random.default_rng(1), 8),
                                kernel, nw, shift=shift)
    verify_commutation(element.X, shift)
    self_commutator(shift)
    touched = [op for op in (shift.S, shift.F, element.X, element.T, element.N)
               if "entries" in vars(op)]
    assert touched == []
    assert max(op.block_size for op in (shift.S, element.X, element.N)) <= 3 + 8 + 2


def test_power_identities_spread_the_shift_once_and_copy_no_intermediate(monkeypatch):
    # Record what each spread is computed for, whether each copy happens
    # inside a product or difference, and how many of those run.
    spreads, copies, inside, operations = [], [], [], []
    real_spread, real_copy = core._band_spread, core._frozen_array
    monkeypatch.setattr(core, "_band_spread",
                        lambda a, rel_tol: spreads.append(a) or real_spread(a, rel_tol))
    monkeypatch.setattr(core, "_frozen_array",
                        lambda a: copies.append(bool(inside)) or real_copy(a))
    for name in ("__matmul__", "__sub__"):
        def traced(self, other, real=getattr(OperatorMatrix, name), name=name):
            operations.append(name)
            inside.append(name)
            try:
                return real(self, other)
            finally:
                inside.pop()
        monkeypatch.setattr(OperatorMatrix, name, traced)
    kernel = TridiagonalKernel(6, (1.0,) * 6, (0.5j, 0.4, -0.2, 0.3, -0.6j, 0.1 + 0.2j))
    shift = shift_from_kernel(kernel, 512)
    assert verify_power_identities(shift, 10)["passed"]
    # Spread once across construction, validation and the powers.
    assert sum(a is shift.S for a in spreads) == 1
    assert len(operations) > 30 and copies
    assert not any(copies), "a product or difference copied what it had just formed"


def test_commutant_members_copy_only_their_symbol(monkeypatch):
    # The symbol is copied once, into the stack's coefficient rows, which X
    # and T share; the window solve, X, T and N are formed, not copied.
    kernel = TridiagonalKernel(3, (1.0, 0.7j, 1.0), (0.5j, 0.4, -0.2))
    shift = shift_from_kernel(kernel, 128)
    rng = np.random.default_rng(2)
    copies = []
    real_copy = core._frozen_array
    monkeypatch.setattr(core, "_frozen_array", lambda a: copies.append(a) or real_copy(a))
    for degree in range(1, 9):
        copies.clear()
        element = commutant_element(random_symbol(rng, degree), kernel, 128, shift=shift)
        assert len(copies) == 0
        assert np.shares_memory(element.T.symbol, element.X.symbol)
        for op in (element.X, element.T, element.N):
            assert not op.block.flags.writeable and not op.symbol.flags.writeable
            assert op.block.flags.c_contiguous


# ------------------------------------------------------ negative controls --

def test_perturbed_correction_is_caught(monkeypatch):
    kernel = TridiagonalKernel(2, (1.0, 1.0), (0.6, -0.3 + 0.4j))
    nw = 64
    shift = shift_from_kernel(kernel, nw)
    symbol = Polynomial([0.3, -0.2 + 0.1j, 0.7, 0.05j])
    element = commutant_element(symbol, kernel, nw, shift=shift)
    bumped = element.N.block.copy()
    bumped[3, 0] += 1e-6
    width = bumped.shape[0]
    x = OperatorMatrix(element.T.window(width) + bumped, symbol.coeffs, nw)
    resid = verify_commutation(x, shift)
    assert resid > 1e-8
    assert resid == pytest.approx(oracle.verify_commutation(x.entries, shift.S.entries),
                                  abs=EXACT)
    # Handed that N by its stacked window solve, the builder refuses to return it.
    monkeypatch.setattr(commutant, "_relabeled", _bumped_solve(3, 0, 1e-6))
    with pytest.raises(HardyPerturbError, match="commutation residual"):
        commutant_element(symbol, kernel, nw, shift=shift)


def _bumped_solve(row, col, defect, members=None):
    """The stacked window solve, with ``defect`` added at ``(row, col)`` of the given members."""
    real = commutant._relabeled

    def bumped(kernel, coeffs, width, size):
        x, t = real(kernel, coeffs, width, size)
        x = x.copy()
        x[slice(None) if members is None else members, row, col] += defect
        return x, t

    return bumped


def test_one_defective_member_of_a_stack_is_caught(monkeypatch):
    kernel = TridiagonalKernel(2, (1.0, 1.0), (0.6, -0.3 + 0.4j))
    nw = 64
    shift = shift_from_kernel(kernel, nw)
    rng = np.random.default_rng(4)
    symbols = np.array([rng.standard_normal(4) + 1j * rng.standard_normal(4)
                        for _ in range(50)])
    # All 50 share a width, so they share one solve; only member 17 is hit.
    monkeypatch.setattr(commutant, "_relabeled", _bumped_solve(3, 0, 1e-6, [17]))
    with pytest.raises(HardyPerturbError, match="commutation residual"):
        commutant._members(symbols, kernel, nw, DEFAULT_TOL, shift)
    # An entry past column n is a spill, whatever the commutator says.
    monkeypatch.setattr(commutant, "_relabeled", _bumped_solve(4, kernel.n, 1e-6, [17]))
    with pytest.raises(HardyPerturbError, match="column support beyond n"):
        commutant._members(symbols, kernel, nw, DEFAULT_TOL, shift)


def test_overflowing_product_is_rejected_and_intermediates_are_read_only():
    nw = 8
    big = OperatorMatrix(np.full((3, 3), 1e200), (0.0, 1.0), nw)
    huge = OperatorMatrix.toeplitz((1e200,), nw)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="entries must be finite"):
            big @ big
        with pytest.raises(ValueError, match="entries must be finite"):
            huge @ OperatorMatrix.toeplitz((0.0, 1e200), nw)
        with pytest.raises(ValueError, match="entries must be finite"):
            OperatorMatrix.toeplitz((-1.7e308,), nw) - OperatorMatrix.toeplitz((1.7e308,), nw)
    a = OperatorMatrix(np.eye(3), (0.5, 1.0), nw)
    b = OperatorMatrix.toeplitz((0.0, 1.0, 2.0), nw)
    for result in (a @ b, a - b, b @ b, b - b):
        for arr in (result.block, result.symbol):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


def test_commutation_row_fails_between_its_tolerance_and_the_builder_limit(monkeypatch):
    # A 1e-9 defect passes the builder's tau_res limit but not the row's 1e-10.
    monkeypatch.setattr(commutant, "_relabeled", _bumped_solve(3, 0, 1e-9))
    rows = suite.check_commutant_suite(64, DEFAULT_TOL, 0)
    row = next(r for r in rows if r["claim"].startswith("commutant members commute"))
    assert 1e-10 < row["computed"] < DEFAULT_TOL.tau_res
    assert not row["passed"]


def test_support_violation_is_reported_and_fails_the_powers():
    nw = 64
    shift = shift_from_columns(1, [[1.0]], nw, strict=False)
    assert validate_n_shift(shift).failures == ["(ii)"]
    rep = verify_power_identities(shift, 5)
    dense = oracle.verify_power_identities(shift.S.entries, 1, 5)
    assert not rep["passed"] and not dense["passed"]
    for key, value in dense["worst"].items():
        assert rep["worst"][key] == pytest.approx(value, abs=EXACT)


def test_dense_inputs_to_verify_commutation_agree_with_the_oracle():
    kernel = TridiagonalKernel(1, (1.0,), (1.0,))
    nw = 64
    shift = shift_from_kernel(kernel, nw)
    s = shift.S.entries
    square = s @ s
    mz = oracle.shift_matrix(nw)
    assert verify_commutation(square, shift) == pytest.approx(
        oracle.verify_commutation(square, s), abs=EXACT)
    assert verify_commutation(mz, shift) == pytest.approx(
        oracle.verify_commutation(mz, s), abs=EXACT)
    assert verify_commutation(mz, shift) > 0.5


def test_m_max_below_one_is_a_precondition_error():
    shift = shift_from_kernel(TridiagonalKernel(1, (1.0,), (1.0,)), 32)
    for m_max in (0, -1):
        with pytest.raises(PreconditionError):
            verify_power_identities(shift, m_max)
