"""Commutant members built in stacks against the member-by-member oracle.

The library builds the members of one kernel together: the window solves of
one width share a LAPACK call, and the commutators, lifts and escapes run on
stacked windows.  ``dense_oracle.member_by_member`` and
``dense_oracle.hyperinvariance_member_by_member`` build one member at a time;
the stacked results must be bit-identical to theirs.  Inputs are seeded
random kernels (n = 1..6, ``b`` in the disc of radius 0.9, some with general
``a``), plus the kernel ``a = (1, 0.7i, 1)``, and symbols of degree 1..8.
"""

import json

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

import dense_oracle as oracle
from hardy_perturb import (
    DEFAULT_TOL,
    BlaschkeProduct,
    OperatorMatrix,
    Polynomial,
    TridiagonalKernel,
    commutant,
    commutant_element,
    hyperinvariance_check,
    invariant,
    s1_model,
    shift_from_kernel,
    shifts,
    suite,
    verify_commutation,
)
from hardy_perturb.cli import main

EXACT = 1e-14
NW = 64
GENERAL_A = TridiagonalKernel(3, (1.0, 0.7j, 1.0), (0.5j, 0.4, -0.2))


def _disc(rng, radius):
    return complex(np.sqrt(rng.uniform()) * radius * np.exp(2j * np.pi * rng.uniform()))


def kernels():
    """Seeded kernels for n = 1..6, plain and general ``a``, and GENERAL_A."""
    out = [GENERAL_A]
    for n in range(1, 7):
        for general_a in (False, True):
            rng = np.random.default_rng([31, n, general_a])
            b = tuple(_disc(rng, 0.9) for _ in range(n))
            a = (tuple(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
                       for _ in range(n)) if general_a else (1.0,) * n)
            out.append(TridiagonalKernel(n, a, b))
    return out


KERNELS = kernels()
IDS = [f"n{k.n}-{i}" for i, k in enumerate(KERNELS)]


def symbols(rng, count):
    """``count`` symbols cycling through degrees 1..8."""
    return [Polynomial(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
            for d in (1 + i % 8 for i in range(count))]


def rows(stack):
    """The coefficient rows of a list of symbols, zero padded, as ``_members`` takes them."""
    out = np.zeros((len(stack), max(symbol.coeffs.size for symbol in stack)), np.complex128)
    for row, symbol in zip(out, stack):
        row[: symbol.coeffs.size] = symbol.coeffs
    return out


@pytest.mark.parametrize("count", [1, 3, 50])
@pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
def test_stacked_members_match_the_member_by_member_oracle(kernel, count):
    shift = shift_from_kernel(kernel, NW)
    stack = symbols(np.random.default_rng([32, kernel.n, count]), count)
    coeffs, x, n_blocks, resid = commutant._members(rows(stack), kernel, NW, DEFAULT_TOL, shift)
    for i, symbol in enumerate(stack):
        want_x, want_t, want_n, want_resid = oracle.member_by_member(symbol, kernel, NW, shift)
        w = want_x.block_size
        assert np.array_equal(x[i, :w, :w], want_x.block)
        assert np.array_equal(n_blocks[i, :w, :w], want_n.block)
        assert not x[i, w:].any() and not x[i, :, w:].any()
        assert not n_blocks[i, w:].any() and not n_blocks[i, :, w:].any()
        assert np.array_equal(coeffs[i, : symbol.coeffs.size], want_t.symbol)
        assert not coeffs[i, symbol.coeffs.size:].any()
        assert abs(resid[i] - want_resid) <= EXACT
    # A stack of one is commutant_element.
    element = commutant_element(stack[0], kernel, NW, shift=shift)
    want_x, want_t, want_n, _ = oracle.member_by_member(stack[0], kernel, NW, shift)
    for got, want in ((element.X, want_x), (element.T, want_t), (element.N, want_n)):
        assert np.array_equal(got.block, want.block) and got.block.shape == want.block.shape
        assert np.array_equal(got.symbol, want.symbol)
    assert abs(element.commutation_residual - verify_commutation(element.X, shift)) <= EXACT


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_shift_is_the_member_by_member_relabeling_of_z(n):
    for kernel in KERNELS[1:]:
        if kernel.n != n:
            continue
        shift = shift_from_kernel(kernel, NW)
        want = oracle.relabeled_window(kernel, (0.0, 1.0), n + 2, NW)
        assert np.array_equal(shift.S.block, want.block)
        assert shift.S.block.shape == want.block.shape == (n + 2, n + 2)
        assert np.array_equal(shift.S.symbol, want.symbol)


def _rank_one_model():
    kernel = TridiagonalKernel(1, (1.0,), (1.0,))
    shift = shift_from_kernel(kernel, 128)
    return s1_model(1.0, 1.0, BlaschkeProduct(1.0, (0.5,))), shift, kernel


@pytest.mark.parametrize("trials,seed", [(1, 0), (3, 1), (50, 0), (50, 7)])
def test_hyperinvariance_matches_the_member_by_member_loop(trials, seed):
    model, shift, kernel = _rank_one_model()
    rep = hyperinvariance_check(model, shift, kernel, trials, seed=seed)
    want = oracle.hyperinvariance_member_by_member(model, shift, kernel, trials, seed=seed)
    assert rep["max_residual"] == want


def test_hyperinvariance_on_a_deeper_model_matches_the_loop():
    kernel = TridiagonalKernel(1, (1.0,), (0.5j,))
    shift = shift_from_kernel(kernel, 64)
    model = s1_model(1.0, 0.5j, BlaschkeProduct(1.0, (0.3, -0.6j, 0.2 + 0.1j)))
    rep = hyperinvariance_check(model, shift, kernel, 20, seed=3, max_degree=5)
    assert rep["max_residual"] == oracle.hyperinvariance_member_by_member(
        model, shift, kernel, 20, seed=3, max_degree=5)


def test_many_trials_are_stacked_in_bounded_chunks(monkeypatch):
    model, shift, kernel = _rank_one_model()
    trials = 2 * commutant._STACK + 1
    sizes = []
    real = commutant._members
    monkeypatch.setattr(commutant, "_members",
                        lambda syms, *args: sizes.append(len(syms)) or real(syms, *args))
    rep = hyperinvariance_check(model, shift, kernel, trials, seed=2)
    assert sizes == [commutant._STACK, commutant._STACK, 1]
    assert rep["max_residual"] == oracle.hyperinvariance_member_by_member(
        model, shift, kernel, trials, seed=2)


# ---------------------------------------------------------------- stacking --

def _count_solves(monkeypatch):
    """Record the columns of every ztrtrs call and every stacked relabeling."""
    solves, stacks = [], []
    real_trtrs, real_relabeled = scipy.linalg.lapack.ztrtrs, shifts._relabeled
    monkeypatch.setattr(scipy.linalg.lapack, "ztrtrs",
                        lambda g, b, **kw: solves.append(b.shape) or real_trtrs(g, b, **kw))

    def relabeled(kernel, coeffs, width, size):
        stacks.append((kernel.n, len(coeffs), width))
        return real_relabeled(kernel, coeffs, width, size)

    monkeypatch.setattr(commutant, "_relabeled", relabeled)
    monkeypatch.setattr(shifts, "_relabeled", relabeled)
    return solves, stacks


def _degrees(coeffs):
    return [Polynomial(row).degree for row in coeffs]


def test_commutant_suite_solves_each_width_of_a_kernel_once(monkeypatch):
    solves, stacks = _count_solves(monkeypatch)
    rows = suite.check_commutant_suite(128, DEFAULT_TOL, 0)
    assert all(row["passed"] for row in rows)
    # Exactly one ztrtrs per relabeling.
    assert len(solves) == len(stacks)
    # One shift per kernel, each a stack of one at width n + 2.
    members = [s for s in stacks if s[1:] != (1, s[0] + 2)]
    assert len(stacks) - len(members) == 3
    # The 150 suite members in one solve per width and kernel, the rank-one
    # member, then the 50 hyperinvariance members, again one solve per width.
    want, rng = [], np.random.default_rng(0)
    for n in (1, 2, 3):
        degrees = _degrees(commutant._random_symbols(rng, 50, 8))
        want += [(n, degrees.count(d), n + d + 2) for d in sorted(set(degrees))]
    want.append((1, 1, 1 + 4 + 2))
    rng = np.random.default_rng(0)
    degrees = _degrees(commutant._random_symbols(rng, 50, 8))
    want += [(1, degrees.count(d), 1 + d + 2) for d in sorted(set(degrees))]
    assert members == want
    assert len(members) <= 3 * 8 + 1 + 8


def test_hyperinvariance_lifts_no_member_on_its_own(monkeypatch):
    model, shift, kernel = _rank_one_model()
    solves, stacks = _count_solves(monkeypatch)
    lifts = []
    real_lift = invariant._lift
    monkeypatch.setattr(invariant, "_lift", lambda op, a: lifts.append(op) or real_lift(op, a))
    hyperinvariance_check(model, shift, kernel, 50, seed=0)
    # verify_model lifts the shift; the 50 members are lifted together.
    assert lifts == [shift.S]
    assert len(solves) == len(stacks) <= 8
    assert sum(count for _, count, _ in stacks) == 50
    assert len({width for _, _, width in stacks}) == len(stacks)


# -------------------------------------------------------------- dense reads --

def _no_dense_reads(monkeypatch):
    def refuse(self):
        raise AssertionError("dense N x N view of an operator")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))


def test_commutant_suite_reads_no_dense_matrix(monkeypatch):
    want = suite.check_commutant_suite(128, DEFAULT_TOL, 0)
    _no_dense_reads(monkeypatch)
    assert suite.check_commutant_suite(128, DEFAULT_TOL, 0) == want


def test_commutant_element_command_reads_no_dense_matrix(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation": 96, "seed": 3,
                               "input": {"n": 1, "a": [[1, 0]], "b": [[1, 0]]}}))
    args = ["commutant", "element", "--config", str(cfg), "--phi", "0.3,-0.2j,0.7,0.05j"]
    want = CliRunner().invoke(main, args, catch_exceptions=False)
    _no_dense_reads(monkeypatch)
    got = CliRunner().invoke(main, args, catch_exceptions=False)
    assert got.exit_code == want.exit_code == 0 and got.output == want.output
