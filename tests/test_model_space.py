"""Model-side verdicts on the finite model space ``K = H^2 (-) z^n theta H^2``.

``verify_model``, ``finite_codimension``, ``hyperinvariance_check`` and
``check_cyclic`` work on ``K`` in exact Takenaka-Malmquist coordinates of
``H^2 (-) z^m theta H^2``, whose size does not depend on how close the zeros
are to the circle.  ``dense_oracle`` checks the same models on depth-truncated
generator stacks and Krylov closures of N rows (exact 1-shift models and
models extracted from conditioned Krylov closures, n = 1..3, zeros in the disc
of radius 0.8, where the stacks resolve at N = 128), and on ``K`` expanded in
Taylor coefficients (zeros up to 0.98, where that expansion stays short).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle as oracle
from hardy_perturb import (
    BlaschkeProduct,
    Polynomial,
    SubspaceModel,
    TridiagonalKernel,
    build_subspace,
    check_cyclic,
    extract_model,
    finite_codimension,
    hyperinvariance_check,
    krylov_closure,
    orthonormalize,
    s1_model,
    shift_from_columns,
    shift_from_kernel,
    verify_model,
)
from hardy_perturb.inner import is_outer_polynomial
from hardy_perturb.errors import ModelInconsistencyError
from hardy_perturb.invariant import _TAIL_MARGIN, default_tail_depth, model_generators
from hardy_perturb.suite import sample_conditioned_trial

from conftest import two_perturbation

CONDITIONS = ("phi_orthogonality", "phi_vs_tail", "chain", "last_chain")
LIMIT = 1e-6
DIFF_NW = 128


def kernel_1(b0):
    return TridiagonalKernel(1, (1.0,), (b0,))


def bumped_q0(model, index, delta):
    """The model with ``delta`` added to coefficient ``index`` of ``q_0``."""
    q = np.zeros(max(index + 1, model.q[0].coeffs.size), dtype=np.complex128)
    q[: model.q[0].coeffs.size] = model.q[0].coeffs
    q[index] += delta
    return SubspaceModel(model.n, model.theta, model.p, (Polynomial(q),) + model.q[1:])


@pytest.mark.parametrize("nw", [96, 512])
@pytest.mark.parametrize("zeros", [(0.97,), (0.5, -0.3 + 0.4j, 0.97)])
def test_verdicts_do_not_depend_on_the_working_order(zeros, nw):
    theta = BlaschkeProduct(1.0, zeros)
    model = s1_model(1.0, 1.0, theta)
    shift = shift_from_kernel(kernel_1(1.0), nw)
    space, report = build_subspace(model, shift, nw)
    assert report["max_residual"] < 1e-10
    assert report["invariance_residual"] < 1e-10
    assert verify_model(model, shift, nw) == {
        k: v for k, v in report.items()
        if k not in ("depth", "dimension", "frontier", "orthonormality_limit")
    }
    assert finite_codimension(space, model) == theta.degree


def test_zeros_near_the_circle_verify_exactly():
    # A Taylor expansion of K would need about 1e4, 4e7 and 4e10 coefficients.
    shift = shift_from_kernel(kernel_1(0.6), 96)
    for modulus in (0.9995, 1 - 1e-6, 1 - 1e-9):
        theta = BlaschkeProduct(1.0, (modulus * np.exp(0.7j), 0.3j))
        model = s1_model(1.0, 0.6, theta)
        report = verify_model(model, shift, 96)
        assert report["max_residual"] < 1e-12 and report["invariance_residual"] < 1e-12
        assert finite_codimension(None, model) == theta.degree
        assert verify_model(bumped_q0(model, 0, 1e-6), shift, 96)["max_residual"] > 1e-8


@pytest.mark.parametrize("zeros", [(0.97, 0.97, 0.97), (0.0,), (0.0, 0.0, 0.5j),
                                   (0.97j, 0.0, 0.97j)])
def test_repeated_zeros_and_zeros_at_the_origin(zeros):
    kernel = kernel_1(0.6)
    shift = shift_from_kernel(kernel, 96)
    model = s1_model(1.0, 0.6, BlaschkeProduct(1.0, zeros))
    report = verify_model(model, shift, 96)
    assert report["max_residual"] < 1e-12 and report["invariance_residual"] < 1e-12
    assert finite_codimension(None, model) == len(zeros)
    assert hyperinvariance_check(model, shift, kernel, 3, seed=4)["passed"]
    assert verify_model(bumped_q0(model, 1, 1e-6), shift, 96)["max_residual"] > 1e-8


def test_build_subspace_returns_the_default_depth_generator_stack():
    model = s1_model(1.0, 0.7j, BlaschkeProduct(1.0, (0.5, -0.4j)))
    for nw in (64, 128, 1024):
        space, report = build_subspace(model, shift_from_kernel(kernel_1(0.7j), nw), nw)
        gens, frontier = model_generators(model, nw, default_tail_depth(model, nw))
        stack = orthonormalize(gens, frontier=frontier, invariant_certified=True)
        assert np.array_equal(space.basis, stack.basis)
        assert report["frontier"] == space.frontier == frontier
        # The depth follows the structure, not N: n + deg theta + 9 columns.
        assert report["depth"] == 2 + _TAIL_MARGIN
        assert report["dimension"] == space.dim == 1 + 2 + _TAIL_MARGIN + 1


# ------------------------------------------------------ negative controls --

@pytest.mark.parametrize("index,condition", [(0, "last_chain"), (1, "phi_vs_tail")])
def test_perturbed_q_names_the_condition(one_plus_z_shift, theta_half, nw, index,
                                         condition):
    bad = bumped_q0(s1_model(1.0, 1.0, theta_half), index, 1e-3)
    with pytest.raises(ModelInconsistencyError) as err:
        build_subspace(bad, one_plus_z_shift, nw)
    assert err.value.condition == condition


def test_model_of_another_shift_fails_last_chain_and_the_certificate(
        one_plus_z_shift, theta_half, nw):
    report = verify_model(s1_model(1.0, 0.5, theta_half), one_plus_z_shift, nw)
    assert report["last_chain"] > 1e-3
    assert report["invariance_residual"] > 1e-3


def test_swapped_n2_data_fails_the_chain(nw):
    # For the 2-shift sending 1 and z to z^2 (S1 = z + z^2, Sz = 2 z^2),
    # z H^2 is the model phi_0 = z, phi_1 = z^2 with theta = z.
    shift = two_perturbation(nw)
    theta = BlaschkeProduct(-1.0, (0.0,))
    p = (Polynomial([2.0]), Polynomial([1.0]))
    q = (Polynomial([0.0, 1.0]), Polynomial([]))
    good = verify_model(SubspaceModel(2, theta, p, q), shift, nw)
    swapped = verify_model(SubspaceModel(2, theta, p[::-1], q[::-1]), shift, nw)
    assert good["max_residual"] < 1e-14
    assert swapped["chain"] > 1e-3


def test_model_side_builds_no_square_array():
    # Nothing of the working order's size, and nothing that grows as the zero
    # approaches the circle.
    nw = 256
    kernel = kernel_1(0.6)
    shift = shift_from_kernel(kernel, nw)
    model = s1_model(1.0, 0.6, BlaschkeProduct(1.0, (1 - 1e-9, 0.3j)))
    tracemalloc.start()
    try:
        report = verify_model(model, shift, nw)
        codim = finite_codimension(None, model)
        hyper = hyperinvariance_check(model, shift, kernel, 5, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["max_residual"] < 1e-10 and codim == 2 and hyper["passed"]
    assert peak < 4 * 2**20
    assert "entries" not in vars(shift.S)


# ---------------------------------------------------- differential oracle --

def _disc(rng, radius):
    return complex(np.sqrt(rng.uniform()) * radius * np.exp(2j * np.pi * rng.uniform()))


def differential_cases():
    """``(model, kernel, exact)``: exact 1-shift models, then extracted ones."""
    rng = np.random.default_rng(2024)
    cases = []
    for degree in (1, 2, 3, 1, 2, 3):
        b0 = _disc(rng, 1.0)
        theta = BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()),
                                tuple(_disc(rng, 0.8) for _ in range(degree)))
        cases.append((s1_model(1.0, b0, theta), kernel_1(b0), True))
    wanted = {1: 2, 2: 2, 3: 2}
    while any(wanted.values()):
        kernel, shift, seed_vec = sample_conditioned_trial(rng, DIFF_NW, 40)
        model = extract_model(krylov_closure(shift, seed_vec, 40), shift)
        if wanted[model.n] and max(map(abs, model.theta.zeros), default=0.0) <= 0.8:
            wanted[model.n] -= 1
            cases.append((model, kernel, False))
    return cases


DIFFERENTIAL = differential_cases()


@pytest.mark.parametrize("case", DIFFERENTIAL,
                         ids=lambda c: f"n{c[0].n}-deg{c[0].theta.degree}-"
                                       f"{'exact' if c[2] else 'extracted'}")
def test_model_verdicts_match_the_dense_oracle(case):
    model, kernel, exact = case
    shift = shift_from_kernel(kernel, DIFF_NW)
    reports = []
    for candidate in (model, bumped_q0(model, 0, 1e-3)):
        new = verify_model(candidate, shift, DIFF_NW)
        old = oracle.verify_model(candidate, shift, DIFF_NW)
        assert [new[c] > LIMIT for c in CONDITIONS] == [old[c] > LIMIT for c in CONDITIONS]
        reports.append((new, old))
    (new, old), (bumped, _) = reports
    if exact:
        assert max(new["max_residual"], old["max_residual"]) < 1e-10
        assert bumped["max_residual"] > LIMIT
    space, report = build_subspace(model, shift, DIFF_NW)
    assert report["invariance_residual"] < 1e-10
    assert finite_codimension(space, model) == oracle.finite_codimension(model, DIFF_NW)
    hyper = hyperinvariance_check(model, shift, kernel, 4, seed=1)
    dense = oracle.hyperinvariance_check(space, shift, kernel, 4, seed=1)
    assert hyper["passed"] == dense["passed"]
    assert hyper["max_residual"] < 1e-10


def z_p_case(roots, nw=64):
    """``(model, shift)`` for ``S 1 = z p``, ``p(0) = 1``: ``M = H^2`` with ``phi_0 = 1``."""
    p = Polynomial.from_roots(roots)
    p = Polynomial(p.coeffs / p.coeffs[0])
    q = Polynomial(p.coeffs - np.eye(1, p.coeffs.size)[0])
    shift = shift_from_columns(1, [np.concatenate([[0.0], q.coeffs])], nw)
    return SubspaceModel(1, BlaschkeProduct(1.0, ()), (p,), (q,)), shift


def taylor_cases():
    """``(label, model, shift, kernel)``: s1 models with a zero of modulus 0.98 and
    1e-4 edits of their ``q_0`` (up to ``z^4``, longer than ``p_0``), ``S 1 = z p``
    models, and the extracted differential models."""
    rng = np.random.default_rng(98)
    cases = []
    for k, degree in enumerate((1, 2, 3, 1, 2, 3)):
        b0 = _disc(rng, 1.0)
        zeros = (0.98 * np.exp(2j * np.pi * rng.uniform()),)
        zeros += tuple(_disc(rng, 0.8) for _ in range(degree - 1))
        model = s1_model(1.0, b0, BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), zeros))
        shift = shift_from_kernel(kernel_1(b0), DIFF_NW)
        cases += [(f"s1-{k}", model, shift, kernel_1(b0)),
                  (f"edit-{k}", bumped_q0(model, (0, 1, 4)[k % 3], 1e-4), shift, kernel_1(b0))]
    for k, roots in enumerate(([0.98j], [0.5, 2.0], [-0.9, 0.3 + 0.4j, 1.5j], [1.2, -3.0])):
        cases.append((f"zp-{k}", *z_p_case(roots), None))
    for k, (model, kernel, exact) in enumerate(DIFFERENTIAL):
        if not exact:
            cases.append((f"extracted-{k}", model, shift_from_kernel(kernel, DIFF_NW), kernel))
    return cases


@pytest.mark.parametrize("case", taylor_cases(), ids=lambda c: c[0])
def test_model_verdicts_match_the_taylor_expansion(case):
    _, model, shift, kernel = case
    new = verify_model(model, shift, shift.working_order)
    old = oracle.taylor_verify_model(model, shift)
    assert [new[c] > LIMIT for c in CONDITIONS] == [old[c] > LIMIT for c in CONDITIONS]
    assert (new["invariance_residual"] < 1e-8) == (old["invariance_residual"] < 1e-8)
    for name in CONDITIONS + ("invariance_residual",):
        assert new[name] == pytest.approx(old[name], rel=1e-6, abs=1e-12), name
    assert finite_codimension(None, model) == oracle.taylor_codimension(model)
    if model.n == 1:
        verdict, witness = check_cyclic(None, model, shift)
        old_verdict, old_witness = oracle.taylor_check_cyclic(model)
        assert verdict == old_verdict
        for key in ("numeric_cyclic", "closure_codimension", "consistent"):
            assert witness[key] == old_witness[key]
    if kernel is not None and new["max_residual"] < LIMIT:
        hyper = hyperinvariance_check(model, shift, kernel, 3, seed=5)
        dense = oracle.taylor_hyperinvariance_check(model, shift, kernel, 3, seed=5)
        assert hyper["passed"] == dense["passed"]


# ------------------------------------------------------------- properties --

def _point(max_modulus):
    return st.builds(lambda r, t: complex(r * np.exp(1j * t)),
                     st.floats(0.0, max_modulus), st.floats(0.0, 2 * np.pi))


@settings(max_examples=40, deadline=None)
@given(b0=st.builds(lambda r, t: complex(r * np.exp(1j * t)),
                    st.floats(1e-6, 1.0), st.floats(0.0, 2 * np.pi)),
       zeros=st.lists(_point(1 - 1e-9), min_size=1, max_size=3),
       edit=st.sampled_from([("p", 1), ("q", 0), ("q", 1)]),
       phase=st.floats(0.0, 2 * np.pi))
def test_s1_models_pass_and_a_small_edit_fails(b0, zeros, edit, phase):
    # Changing p_0(0) is left out: it adds a multiple of theta, which lies in
    # K, and moves S phi_0 only by theta(0) b0 z^2, which can be arbitrarily
    # small.  Every other coefficient edit moves phi_0 off K or breaks the
    # closing identity by at least a fixed fraction of its size.
    nw = 96
    theta = BlaschkeProduct(1.0, tuple(zeros))
    model = s1_model(1.0, b0, theta)
    shift = shift_from_kernel(kernel_1(b0), nw)
    report = verify_model(model, shift, nw)
    assert report["max_residual"] < 1e-10
    assert finite_codimension(None, model) == theta.degree
    which, index = edit
    delta = 1e-6 * np.exp(1j * phase)
    if which == "q":
        edited = bumped_q0(model, index, delta)
    else:
        p = np.zeros(2, dtype=np.complex128)
        p[: model.p[0].coeffs.size] = model.p[0].coeffs
        p[index] += delta
        edited = SubspaceModel(1, theta, (Polynomial(p),), model.q)
    assert verify_model(edited, shift, nw)["max_residual"] > 1e-8


# -------------------------------------------------------------- cyclicity --

def non_cyclic_case(nw):
    """The 1-shift sending 1 to z + 4 z^3 and its model C 1 (+) z H^2 (p_0 = 1 + 4 z^2)."""
    shift = shift_from_columns(1, [[0.0, 0.0, 0.0, 4.0]], nw)
    model = SubspaceModel(1, BlaschkeProduct(1.0, ()), (Polynomial([1.0, 0.0, 4.0]),),
                          (Polynomial([0.0, 0.0, 4.0]),))
    return model, shift


def cyclic_cases():
    """``(model, shift)``: s1 models with |b0| <= 0.5, then the non-cyclic one."""
    rng = np.random.default_rng(77)
    cases = []
    for degree in (1, 2, 3, 1, 2, 3):
        b0 = _disc(rng, 0.5)
        theta = BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()),
                                tuple(_disc(rng, 0.8) for _ in range(degree)))
        cases.append((s1_model(1.0, b0, theta), shift_from_kernel(kernel_1(b0), DIFF_NW)))
    return cases + [non_cyclic_case(DIFF_NW)]


@pytest.mark.parametrize("case", cyclic_cases(),
                         ids=lambda c: f"deg{c[0].theta.degree}-p{c[0].p[0].degree}")
def test_cyclic_witness_matches_the_dense_oracle(case):
    model, shift = case
    verdict, witness = check_cyclic(None, model, shift)
    old_verdict, old = oracle.check_cyclic(model, shift)
    assert verdict == old_verdict
    assert witness["numeric_cyclic"] == old["numeric_cyclic"]
    assert witness["consistent"] and old["consistent"]
    for key in ("forward_max_angle", "reverse_max_angle"):
        if old[key] < 1e-6:
            assert witness[key] < 1e-12
    assert witness["closure_codimension"] == (0 if verdict else 2)


def _root_off_the_circle():
    return st.builds(lambda r, t: complex(r * np.exp(1j * t)),
                     st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 4.0)),
                     st.floats(0.0, 2 * np.pi))


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(_root_off_the_circle(), min_size=1, max_size=3))
@example(roots=[0.9999 * np.exp(0.3j)])
def test_closure_of_one_under_s1_equal_z_p(roots):
    # For S 1 = z p with p(0) = 1, the model (1, theta = 1, p, p - 1) has
    # phi_0 = 1 and M = H^2, and the closure of 1 is C (+) z B_p H^2
    # (Beurling): its codimension is the number of roots of p in the disc.
    model, shift = z_p_case(roots)
    verdict, witness = check_cyclic(None, model, shift)
    p = model.p[0]
    inside = sum(abs(r) < 1.0 for r in roots)
    assert verdict == witness["numeric_cyclic"] == is_outer_polynomial(p)
    assert witness["closure_codimension"] == inside
    if inside:
        assert witness["forward_max_angle"] > 0.5
    else:
        assert max(witness["forward_max_angle"], witness["reverse_max_angle"]) < 1e-12
