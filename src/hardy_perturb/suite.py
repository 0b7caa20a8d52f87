"""Reference verification suite: every pinned numeric claim in one table.

Each check returns rows ``{claim, expected, computed, tolerance, passed,
truncation}``.  Claims about asymptotic subspace structure need a minimum
working order to meet their stated tolerances; those rows are computed at
``max(requested, minimum)`` and record the truncation actually used.
"""

from __future__ import annotations

import numpy as np

from .analysis import self_commutator
from .commutant import _members, _random_symbols, commutant_element, hyperinvariance_check
from .core import (
    DEFAULT_TOL,
    OperatorMatrix,
    Subspace,
    ToleranceConfig,
    TruncatedVector,
    numerical_rank,
    orthonormalize,
    principal_angles,
    subspace_difference,
)
from .inner import BlaschkeProduct, Polynomial, blaschke_taylor
from .invariant import (
    SubspaceModel,
    _certificate,
    _closure_model,
    build_subspace,
    check_cyclic,
    extract_model,
    s1_model,
    wandering_dimension,
)
from .shifts import (
    Z_SYMBOL,
    NShift,
    TridiagonalKernel,
    gram_columns,
    shift_from_columns,
    shift_from_kernel,
    verify_power_identities,
)

__all__ = ["reference_suite", "sample_conditioned_trial"]

THETA_HALF = BlaschkeProduct(1.0, (0.5,))


def _row(claim, expected, computed, tolerance, passed, truncation):
    return {
        "claim": claim,
        "expected": expected,
        "computed": computed,
        "tolerance": tolerance,
        "passed": bool(passed),
        "truncation": truncation,
    }


def _approx_row(claim, expected, computed, tolerance, truncation):
    err = abs(computed - expected)
    return _row(claim, _render(expected), _render(computed), tolerance,
                err <= tolerance, truncation)


def _render(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


def _two_perturbation_example(nw: int) -> NShift:
    """The rank-one 2-perturbation sending both 1 and z to z^2."""
    return shift_from_columns(2, [[0, 0, 1.0], [0, 0, 1.0]], nw)


def _rank_one_shift(a0: complex, b0: complex, nw: int) -> NShift:
    """The 1-shift sending 1 to a0 z + b0 z^2."""
    return shift_from_columns(1, [[0, a0 - 1.0, b0]], nw)


def check_two_perturbation_block(nw: int, tol: ToleranceConfig) -> list:
    rows = []
    shift = _two_perturbation_example(nw)
    block = gram_columns(shift, 2)
    expected = np.array([[2.0, 2.0], [2.0, 4.0]])
    err = float(np.abs(block - expected).max())
    rows.append(_row("2-perturbation: S*S top block [[2,2],[2,4]]",
                     expected.tolist(), err, 1e-12, err < 1e-12, nw))
    rk = numerical_rank(shift.F, tol)
    rows.append(_row("2-perturbation: rank F", 1, rk, 0, rk == 1, nw))
    return rows


def _self_commutator_block(a0: complex, b0: complex) -> np.ndarray:
    return np.array([
        [abs(a0) ** 2 + abs(b0) ** 2, np.conj(b0), 0.0],
        [b0, 1.0 - abs(a0) ** 2, -a0 * np.conj(b0)],
        [0.0, -np.conj(a0) * b0, -abs(b0) ** 2],
    ], dtype=np.complex128)


def check_self_commutator(nw: int, tol: ToleranceConfig) -> list:
    rows = []
    for a0, b0 in ((1.0, 1.0), (1.0, 0.5)):
        shift = _rank_one_shift(a0, b0, nw)
        rep = self_commutator(shift, tol)
        expected = _self_commutator_block(a0, b0)
        err = float(np.abs(rep.block[:3, :3] - expected).max())
        tag = f"(a0={a0}, b0={b0})"
        rows.append(_row(f"self-commutator block formula {tag}",
                         "3x3 displayed block", err, 1e-12, err < 1e-12, nw))
        det_expected = -abs(a0) ** 2 * abs(b0) ** 2
        rows.append(_approx_row(f"self-commutator determinant {tag}",
                                det_expected, rep.det_principal.real, 1e-10, nw))
        if (a0, b0) == (1.0, 1.0):
            rows.append(_row("self-commutator rank (a0=b0=1)", 3, rep.rank,
                             0, rep.rank == 3, nw))
            rows.append(_row("self-commutator min eigenvalue < -0.05",
                             "< -0.05", rep.min_eigenvalue, 0.0,
                             rep.min_eigenvalue < -0.05, nw))
            rows.append(_row("not hyponormal", False, rep.hyponormal, 0,
                             rep.hyponormal is False, nw))
            ess, k = rep.essentially_normal, rep.block_size
            rows.append(_row("essentially normal with 3x3 block",
                             (True, 3), (ess, k), 0, ess and k == 3, nw))
    return rows


def check_model_instance_values(nw: int, tol: ToleranceConfig) -> list:
    # Boundary evaluation sums the Taylor tail, which decays like 2^-k;
    # 48 coefficients leave the 1e-10 tolerance a comfortable margin.
    nw = max(nw, 48)
    rows = []
    model = s1_model(1.0, 1.0, THETA_HALF)
    phi = model.phi(0, nw)
    at_one = complex(np.polyval(phi.coeffs[::-1], 1.0))
    at_minus = complex(np.polyval(phi.coeffs[::-1], -1.0))
    rows.append(_approx_row("model vector value phi(1)", -1.75, at_one.real, 1e-10, nw))
    rows.append(_approx_row("model vector value phi(-1)", 1.25, at_minus.real, 1e-10, nw))
    return rows


def _theta_span(theta: BlaschkeProduct, nw: int, count: int, tol) -> Subspace:
    taylor = blaschke_taylor(theta, nw).coeffs
    cols = []
    for k in range(count):
        col = np.zeros(nw, dtype=np.complex128)
        col[k:] = taylor[: nw - k]
        cols.append(col)
    return orthonormalize(np.column_stack(cols), tol)


def check_invariant_subspace_pipeline(nw: int, tol: ToleranceConfig) -> list:
    nw = max(nw, 64)
    rows = []
    kernel = TridiagonalKernel(1, (1.0,), (1.0,))
    shift = shift_from_kernel(kernel, nw, tol)
    model = s1_model(1.0, 1.0, THETA_HALF)
    space, report = build_subspace(model, shift, nw, tol)
    rows.append(_row("Cphi + z theta H2 invariance residual", "< 1e-8",
                     report["invariance_residual"], 1e-8,
                     report["invariance_residual"] < 1e-8, nw))
    wd = wandering_dimension(space, shift, tol)
    rows.append(_row("wandering dimension", 1, wd, 0, wd == 1, nw))
    recovered = extract_model(space, shift, tol)
    count = min(60, nw // 2)
    angle = principal_angles(
        _theta_span(model.theta, nw, count, tol),
        _theta_span(recovered.theta, nw, count, tol),
    ).max()
    rows.append(_row("extracted inner function spans true theta H2",
                     "< 1e-6", float(angle), tol.tau_angle,
                     angle < tol.tau_angle, nw))
    cyc, witness = check_cyclic(space, model, shift, tol)
    rows.append(_row("invariant subspace is cyclic", True, cyc, 0,
                     cyc and witness["consistent"], nw))
    worst = max(witness["forward_max_angle"], witness["reverse_max_angle"])
    rows.append(_row("cyclic closure of phi matches the subspace",
                     "< 1e-6", worst, tol.tau_angle, worst < tol.tau_angle, nw))
    return rows


def check_power_identities(nw: int, tol: ToleranceConfig) -> list:
    rows = []
    cases = [
        ("2-perturbation", _two_perturbation_example(nw)),
        ("rank-one 1-shift", _rank_one_shift(1.0, 1.0, nw)),
    ]
    for name, shift in cases:
        rep = verify_power_identities(shift, shift.n + 4, tol)
        worst = max(rep["worst"]["factor"], rep["worst"]["commute"],
                    rep["worst"]["low_rows"])
        rows.append(_row(f"power identities ({name})", "< 1e-14", worst,
                         1e-14, worst < 1e-14, nw))
    return rows


def sample_conditioned_trial(rng: np.random.Generator, nw: int, depth: int):
    """One random kernel shift plus a seed polynomial with conditioned data.

    Kernel ``b`` entries are uniform in the disc of radius 0.9.  Seeds are
    polynomials built from random roots, resampled until the induced data
    ``h`` (with ``S^n f = z^n (f + p)``, ``h = f + p``) keeps its roots off
    an annulus around the unit circle, so the truncation leakage of the
    cyclic closure stays below the assertion tolerances at this depth.
    """
    n = int(rng.integers(1, 4))
    for _ in range(300):
        b = tuple(
            np.sqrt(rng.uniform(0.0, 1.0)) * 0.9 * np.exp(2j * np.pi * rng.uniform())
            for _ in range(n)
        )
        kernel = TridiagonalKernel(n, (1.0,) * n, b)
        shift = shift_from_kernel(kernel, nw)
        deg = int(rng.integers(0, 6))
        roots = []
        for _ in range(deg):
            radius = rng.uniform(0.0, 0.6) if rng.uniform() < 0.5 else rng.uniform(1.7, 3.0)
            roots.append(radius * np.exp(2j * np.pi * rng.uniform()))
        coeffs = Polynomial.from_roots(roots).coeffs
        seed_vec = TruncatedVector.from_coefficients(coeffs, nw)
        image = seed_vec.coeffs.copy()
        for _ in range(n):
            image = shift.S @ image
        head = image[n : n + 24]
        data = Polynomial(head * (np.abs(head) > 1e-13 * np.abs(head).max()))
        moduli = np.abs(data.roots())
        if moduli.size == 0 or ((moduli <= 0.6) | (moduli >= 1.7)).all():
            return kernel, shift, seed_vec
    raise RuntimeError("could not sample a conditioned trial")


def _sample_trial(rng: np.random.Generator, nw: int) -> tuple:
    """One random kernel shift and a polynomial seed, unconditioned.

    Kernel ``b`` entries are uniform in the disc of radius 0.9; the seed has
    0-5 roots of radius uniform in [0, 3].  Every draw is used.
    """
    n = int(rng.integers(1, 4))
    b = tuple(
        np.sqrt(rng.uniform(0.0, 1.0)) * 0.9 * np.exp(2j * np.pi * rng.uniform())
        for _ in range(n)
    )
    shift = shift_from_kernel(TridiagonalKernel(n, (1.0,) * n, b), nw)
    roots = [rng.uniform(0.0, 3.0) * np.exp(2j * np.pi * rng.uniform())
             for _ in range(int(rng.integers(0, 6)))]
    return shift, Polynomial.from_roots(roots).coeffs


# The annulus of roots of h that sample_conditioned_trial refuses.
H_ROOT_BAND = (0.6, 1.7)


def check_random_trials(nw: int, tol: ToleranceConfig, seed: int, trials: int = 100) -> list:
    """Exact models of random cyclic closures, each verified against its shift.

    A trial's residual is the larger of the model's ``verify_model`` residual,
    taken at the read's order on the read's frame, and the read remainder of
    the projection that produced its ``p_i, q_i``.
    """
    nw = max(nw, 128)
    rng = np.random.default_rng(seed)
    failures = []
    worst_resid = 0.0
    in_band = 0
    for trial in range(trials):
        shift, coeffs = _sample_trial(rng, nw)
        try:
            model, report = _closure_model(shift, coeffs, tol)
            moduli = np.abs(report["h_roots"])
            in_band += bool(((moduli > H_ROOT_BAND[0]) & (moduli < H_ROOT_BAND[1])).any())
            resid = max(_certificate(model, shift, tol, report["order"])["max_residual"],
                        report["read_remainder"])
            worst_resid = max(worst_resid, resid)
            if resid > 1e-6:
                failures.append((trial, f"residual {resid:.2e}"))
        except Exception as exc:  # deliberate: a trial failure is a suite failure
            failures.append((trial, f"{type(exc).__name__}: {exc}"))
    return [
        _row(f"{trials} random cyclic closures: wandering dimension 1 and "
             "exact closure-model residuals", "< 1e-6 (all trials)",
             {"failures": failures[:5], "count": len(failures),
              "worst_residual": worst_resid, "h_root_band": list(H_ROOT_BAND),
              "h_root_band_draws": in_band},
             1e-6, not failures, nw),
    ]


def check_commutant_suite(nw: int, tol: ToleranceConfig, seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    kernels = [
        TridiagonalKernel(1, (1.0,), (1.0,)),
        TridiagonalKernel(2, (1.0, 1.0), (0.6, -0.3 + 0.4j)),
        TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.5j, 0.4, -0.2)),
    ]
    worst_comm = 0.0
    worst_support = 0.0
    shifts = [shift_from_kernel(kernel, nw, tol) for kernel in kernels]
    for kernel, shift in zip(kernels, shifts):
        _, _, n_blocks, resid = _members(_random_symbols(rng, 50, 8), kernel, nw, tol, shift)
        worst_comm = max(worst_comm, float(resid.max()))
        worst_support = max(worst_support, float(np.abs(n_blocks[:, :, kernel.n:]).max()))
    rows.append(_row("commutant members commute (150 random symbols)",
                     "< 1e-10", worst_comm, 1e-10, worst_comm < 1e-10, nw))
    rows.append(_row("N supported in first n columns", "< 1e-12",
                     worst_support, 1e-12, worst_support < 1e-12, nw))

    kernel, shift = kernels[0], shifts[0]
    symbol = Polynomial(np.array([0.4, -0.7 + 0.2j, 0.3, 0.1j, -0.25]))
    element = commutant_element(symbol, kernel, nw, tol, shift)
    col = element.N.window(element.N.block_size, 1)[:, 0]  # N is zero past its block
    expected = np.zeros_like(col)
    tail = symbol.coeffs[1:]
    expected[2 : 2 + tail.size] = tail
    err_col = float(np.abs(col - expected).max())
    err_rest = element.N.max_abs(cols=slice(1, None))
    rows.append(_row("rank-one space: N maps 1 to z(phi - phi(0)), kills z^m",
                     "< 1e-12", max(err_col, err_rest), 1e-12,
                     max(err_col, err_rest) < 1e-12, nw))

    model = s1_model(1.0, 1.0, THETA_HALF)
    hyper = hyperinvariance_check(model, shift, kernel, 50, tol, seed=seed)
    rows.append(_row("hyperinvariance of the model subspace (50 symbols)",
                     "< 1e-8", hyper["max_residual"], 1e-8,
                     hyper["max_residual"] < 1e-8, nw))
    return rows


def check_baselines(nw: int, tol: ToleranceConfig) -> list:
    rows = []
    # Unperturbed shift: the wandering vector of theta H2 is theta itself.
    mz = OperatorMatrix.toeplitz(Z_SYMBOL, nw)
    taylor = blaschke_taylor(THETA_HALF, nw)
    count = min(60, nw - 8)
    span = _theta_span(THETA_HALF, nw, count, tol)
    wander = subspace_difference(span, mz, tol)
    theta_dir = orthonormalize(taylor.coeffs[:, None], tol)
    angle = principal_angles(wander, theta_dir).max()
    rows.append(_row("unperturbed baseline: wandering vector of theta H2 is theta",
                     "< 1e-6", float(angle), tol.tau_angle, angle < tol.tau_angle, nw))

    # Weighted shift sending 1 to 2z: model vector theta - theta(0)/2.
    weighted = shift_from_columns(1, [[0.0, 1.0]], nw, tol)
    t0 = THETA_HALF(0.0)
    model = SubspaceModel(
        1, THETA_HALF, (Polynomial([1.0]),), (Polynomial([t0 / 2.0]),)
    )
    space, report = build_subspace(model, weighted, nw, tol)
    rows.append(_row("weighted shift model residual", "< 1e-10",
                     report["invariance_residual"], 1e-10,
                     report["invariance_residual"] < 1e-10, nw))
    cyc, _ = check_cyclic(space, model, weighted, tol)
    rows.append(_row("weighted shift subspaces are cyclic", True, cyc, 0, cyc, nw))
    return rows


def check_restriction_isometry(nw: int, tol: ToleranceConfig) -> list:
    rows = []
    shift = _rank_one_shift(1.0, 1.0, nw)
    model = s1_model(1.0, 1.0, THETA_HALF)
    phi = model.phi(0, nw)
    ratio = np.linalg.norm(shift.S @ phi.coeffs) / phi.norm()
    dev = abs(ratio - 1.0)
    rows.append(_row("restriction is not isometric when theta(0) = 1/2",
                     "> 1e-3", dev, 1e-3, dev > 1e-3, nw))
    theta_zero = BlaschkeProduct(-1.0, (0.0,))
    model0 = s1_model(1.0, 1.0, theta_zero)
    phi0 = model0.phi(0, nw)
    ratio0 = np.linalg.norm(shift.S @ phi0.coeffs) / phi0.norm()
    dev0 = abs(ratio0 - 1.0)
    rows.append(_row("restriction is isometric when theta(0) = 0",
                     "< 1e-10", dev0, 1e-10, dev0 < 1e-10, nw))
    return rows


def reference_suite(
    truncation: int = 128,
    seed: int = 0,
    tol: ToleranceConfig | None = None,
) -> list:
    """Run every pinned claim at the requested truncation; returns the rows."""
    tol = tol or DEFAULT_TOL
    rows = []
    rows += check_two_perturbation_block(truncation, tol)
    rows += check_self_commutator(truncation, tol)
    rows += check_model_instance_values(truncation, tol)
    rows += check_invariant_subspace_pipeline(truncation, tol)
    rows += check_power_identities(truncation, tol)
    rows += check_random_trials(truncation, tol, seed)
    rows += check_commutant_suite(truncation, tol, seed)
    rows += check_baselines(truncation, tol)
    rows += check_restriction_isometry(truncation, tol)
    return rows
