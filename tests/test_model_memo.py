"""One model-space computation per round trip, and the paths it replaced.

``invariant._model_space`` keeps its result on the model instance, keyed on the
order ``m`` and the tolerances, so ``build_subspace``, ``check_cyclic``,
``finite_codimension`` and ``hyperinvariance_check`` read one
Takenaka-Malmquist frame of a model.  A model read by ``_frame_model`` carries
the read's frame and lifted ``S``, which its certificate at the read's order
takes.  The guards count ``_tm_frame``, ``_lift``, ``_long_division`` and
``_den_frame`` calls.
The differential tests compare the generator stack and the lifted operators
with the per-column and Toeplitz-window constructions of ``dense_oracle``, bit
for bit.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

import dense_oracle as oracle
import hardy_perturb
from hardy_perturb import (
    DEFAULT_TOL,
    BlaschkeProduct,
    Polynomial,
    SubspaceModel,
    ToleranceConfig,
    TridiagonalKernel,
    build_subspace,
    check_cyclic,
    commutant_element,
    extract_model,
    finite_codimension,
    hyperinvariance_check,
    invariant,
    s1_model,
    shift_from_kernel,
    verify_model,
    wandering_dimension,
)
from hardy_perturb.invariant import (
    _certificate, _closure_model, _lift, _model_space, _tm_frame, model_generators,
)
from hardy_perturb.suite import _sample_trial, check_random_trials

NW = 256
THETA = BlaschkeProduct(np.exp(0.7j), (0.5, -0.3 + 0.6j))
B0 = 0.6 - 0.2j


@pytest.fixture
def frames(monkeypatch):
    """The orders of every ``_tm_frame`` built while the test runs."""
    calls = []
    real = invariant._tm_frame

    def counted(theta, m):
        calls.append(m)
        return real(theta, m)

    monkeypatch.setattr(invariant, "_tm_frame", counted)
    return calls


def round_trip(theta):
    """Model -> subspace -> model with every verdict, on fresh model and shift objects."""
    kernel = TridiagonalKernel(1, (1.0,), (B0,))
    model = s1_model(1.0, B0, theta)
    shift = shift_from_kernel(kernel, NW)
    space, report = build_subspace(model, shift, NW)
    wandering = wandering_dimension(space, shift)
    recovered = extract_model(space, shift)
    cyclic, witness = check_cyclic(space, model, shift)
    codim = finite_codimension(space, model)
    return report, wandering, recovered.to_json(), cyclic, witness, codim


def test_a_round_trip_builds_two_frames_and_no_cache_outlives_it(frames):
    first = round_trip(THETA)
    count = len(frames)
    # The model's frame (shared by the build, the cyclic witness and the
    # codimension) and the exact read's frame, which its certificate shares.
    assert count == 2
    frames.clear()
    # The same theta object, fresh model and shift: the work is done again.
    assert round_trip(THETA) == first
    assert len(frames) == count


def test_hyperinvariance_shares_the_certificate_frame(frames):
    kernel = TridiagonalKernel(1, (1.0,), (B0,))
    model = s1_model(1.0, B0, THETA)
    shift = shift_from_kernel(kernel, 64)
    build_subspace(model, shift, 64)
    assert len(frames) == 1
    assert hyperinvariance_check(model, shift, kernel, 3)["passed"]
    # verify_model hits; only the frame at the commutant members' reach is new.
    assert len(frames) == 2
    hyperinvariance_check(model, shift, kernel, 3)
    assert len(frames) == 2


def test_a_random_trial_builds_one_frame_and_one_lift(frames, monkeypatch):
    lifts = []
    real = invariant._lift
    monkeypatch.setattr(invariant, "_lift", lambda op, a: lifts.append(op) or real(op, a))
    for seed in range(4):
        frames.clear()
        lifts.clear()
        # The closure read and the certificate at its order.
        assert check_random_trials(128, DEFAULT_TOL, seed, trials=1)[0]["passed"]
        assert len(frames) == 1 and len(lifts) == 1


def test_a_random_trial_divides_nothing(monkeypatch):
    # p_i and q_i are coordinates in the read's frame (one frame and one lift, as
    # above), so the closure read and its certificate need no division and no
    # den-multiplied frame.
    calls = []
    for name in ("_long_division", "_den_frame"):
        real = getattr(invariant, name)
        monkeypatch.setattr(invariant, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for seed in range(4):
        assert check_random_trials(128, DEFAULT_TOL, seed, trials=1)[0]["passed"]
    assert calls == []


def test_verify_model_on_a_read_model_equals_a_fresh_copy_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(12):
        shift, coeffs = _sample_trial(rng, 128)
        other = shift_from_kernel(random_kernel(rng, shift.n), 128)
        model, report = _closure_model(shift, coeffs)
        assert "_read_frame" in vars(model)
        # The read's own order, where its frame is taken, the public order rule,
        # and another shift of the same n, whose lift the read does not hold.
        for check in (lambda m: _certificate(m, shift, DEFAULT_TOL, report["order"]),
                      lambda m: verify_model(m, shift, 128),
                      lambda m: _certificate(m, other, DEFAULT_TOL, report["order"])):
            fresh = check(dataclasses.replace(model))
            first = check(model)
            assert first == fresh and check(model) == first


def test_memo_arrays_are_read_only():
    model = s1_model(1.0, B0, THETA)
    for arr in _model_space(model, DEFAULT_TOL, 0):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # Every memo array is on the model space, of dimension m + deg theta.
    assert max(max(arr.shape) for arr in _model_space(model, DEFAULT_TOL, 0)) <= 3 + 2


def test_a_memo_hit_reports_what_a_fresh_model_does(frames):
    shift = shift_from_kernel(TridiagonalKernel(1, (1.0,), (B0,)), 64)
    model = s1_model(1.0, B0, THETA)
    first = verify_model(model, shift, 64)
    hit = verify_model(model, shift, 64)
    assert len(frames) == 1
    assert hit == first == verify_model(dataclasses.replace(model), shift, 64)
    assert finite_codimension(None, model) == finite_codimension(None, dataclasses.replace(model))
    assert check_cyclic(None, model, shift) == check_cyclic(None, dataclasses.replace(model), shift)


def test_other_tolerances_recompute(frames):
    model = s1_model(1.0, B0, THETA)
    loose = ToleranceConfig(tau_rank=1e-6)
    default = _model_space(model, DEFAULT_TOL, 0)
    assert _model_space(model, ToleranceConfig(), 0) is default
    assert len(frames) == 1
    assert _model_space(model, loose, 0) is not default
    assert len(frames) == 2
    # A larger reach is a larger order, so another frame.
    assert _model_space(model, DEFAULT_TOL, 7)[0].shape == (7 + THETA.degree,) * 2
    assert len(frames) == 3
    assert _model_space(model, DEFAULT_TOL, 0) is default


def test_the_memo_is_no_part_of_the_model_value():
    model = s1_model(1.0, B0, THETA)
    fresh = dataclasses.replace(model)
    _model_space(model, DEFAULT_TOL, 0)
    assert "_space_memo" in vars(model) and "_space_memo" not in vars(fresh)
    assert [f.name for f in dataclasses.fields(SubspaceModel)] == ["n", "theta", "p", "q"]
    assert model == fresh
    assert model.to_json() == fresh.to_json()


def test_no_function_cache_in_the_package():
    # Inputs such as theta objects outlive a benchmark pass; a function-level
    # cache would time its hits instead of the work.
    package = pathlib.Path(hardy_perturb.__file__).parent
    pattern = re.compile(r"functools\.cache\b|\blru_cache\b|import cache\b|@cache\b")
    for path in package.glob("*.py"):
        assert not pattern.search(path.read_text(encoding="utf-8")), path.name


# ------------------------------------------------------------- differential --

def random_kernel(rng, n):
    b = rng.uniform(0.0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return TridiagonalKernel(n, (1.0,) * n, tuple(b))


@pytest.mark.parametrize("n", range(1, 7))
def test_lifted_shift_matches_the_toeplitz_window_oracle(n):
    rng = np.random.default_rng([21, n])
    shift = shift_from_kernel(random_kernel(rng, n), 64)
    a, _ = _tm_frame(THETA, shift.S.block_size + 2)
    assert np.array_equal(_lift(shift.S, a), oracle.lift(shift.S, a))


@pytest.mark.parametrize("degree", range(1, 9))
def test_lifted_commutant_members_match_the_toeplitz_window_oracle(degree):
    rng = np.random.default_rng([22, degree])
    n = 1 + degree % 3
    kernel = random_kernel(rng, n)
    shift = shift_from_kernel(kernel, 64)
    symbol = Polynomial(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    x = commutant_element(symbol, kernel, 64, shift=shift).X
    a, _ = _tm_frame(THETA, x.block_size + 1)
    assert np.array_equal(_lift(x, a), oracle.lift(x, a))


EDGE_THETAS = {
    "origin": (0.0,),
    "double-origin-and-half": (0.0, 0.0, 0.5j),
    "repeated": (0.6, 0.6, 0.6),
    "near-circle": (1.0 - 1e-9,),
    "near-circle-repeated": (-(1.0 - 1e-9) * 1j, -(1.0 - 1e-9) * 1j, 0.3),
}


@pytest.mark.parametrize("zeros", EDGE_THETAS.values(), ids=EDGE_THETAS.keys())
@pytest.mark.parametrize("nw,depth", [(64, 11), (64, 70)])
def test_generator_stack_matches_the_per_column_oracle(zeros, nw, depth):
    theta = BlaschkeProduct(np.exp(0.3j), zeros)
    two = SubspaceModel(2, theta, (Polynomial([1.0, 0.2j]), Polynomial([0.5])),
                        (Polynomial([0.1, -0.4]), Polynomial([])))
    for model in (s1_model(1.0, B0, theta), two):
        gens, frontier = model_generators(model, nw, depth)
        want, want_frontier = oracle.model_generators(model, nw, depth)
        assert np.array_equal(gens, want) and frontier == want_frontier
        assert gens.flags.c_contiguous
