"""Seeded inputs of the three benchmark workloads and their ground-truth checks.

Every case is drawn from the run's seed before any timing starts; the
library only ever sees the generated inputs.  A case is split into the
library calls (``run_*``) and the comparison of their verdicts against the
data the case was generated from (``check_*``), so the cost of checking can
be reported next to the cost of the calls it checks.

A check returns the upper-bound residuals it compared, as
``(name, residual, tolerance)``.  A miss raises one of two exceptions.
:class:`CheckFailed` means the library itself reported a failed check (a
``passed`` or ``consistent`` flag, the demo's exit code), as the CLI would
with exit code 1.  :class:`WrongVerdict` means the library returned a result
that contradicts the data the case was generated from; only this kind makes
a run incorrect.  Both, like any exception the library raises, fail the case.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

import hardy_perturb as hp
from hardy_perturb import cli

DEMO_N = 128
MODEL_N = 256
OPERATOR_N = 512

# The band where the seed code is known to fail at MODEL_N (ROADMAP item 4):
# these cases stay in the workload and count as failures when they fail.
NEAR_CIRCLE = (0.93, 0.98)
NEAR_CIRCLE_EVERY = 10
REGULAR_RADIUS = 0.9

INVARIANCE_TOL = 1e-8
ZERO_TOL = 1e-6
POWERS_TOL = 1e-12  # what verify_power_identities compares its worst residuals with
COMMUTATION_TOL = 1e-10
SUPPORT_TOL = 1e-12
RESIDUAL_FLOOR = 1e-16


class CheckFailed(Exception):
    """The library reported one of its own checks as failed."""


class WrongVerdict(Exception):
    """A returned result disagrees with the ground truth of its case."""


def _disc(rng: np.random.Generator, radius: float) -> complex:
    """A point uniform in area in the disc of the given radius."""
    return complex(np.sqrt(rng.uniform()) * radius * np.exp(2j * np.pi * rng.uniform()))


def _annulus(rng: np.random.Generator, lo: float, hi: float) -> complex:
    r = np.sqrt(rng.uniform(lo * lo, hi * hi))
    return complex(r * np.exp(2j * np.pi * rng.uniform()))


def _symbol(rng: np.random.Generator, max_degree: int) -> hp.Polynomial:
    deg = int(rng.integers(1, max_degree + 1))
    radii = np.sqrt(rng.uniform(0.0, 1.0, deg + 1))
    phases = rng.uniform(0.0, 2 * np.pi, deg + 1)
    return hp.Polynomial(radii * np.exp(1j * phases))


def _strata(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws that take every value equally often, in seeded order.

    Stratifying the discrete parameters that set a case's cost keeps the
    work of one pass nearly the same from seed to seed.
    """
    out = []
    while len(out) < count:
        out.extend(rng.permutation(values).tolist())
    return out[:count]


def margin_decades(residuals) -> float:
    """The case's tightest ``log10(tolerance / residual)``, residuals floored."""
    return min(
        float(np.log10(tol / max(float(res), RESIDUAL_FLOOR)))
        for _, res, tol in residuals
    )


def _require(ok: bool, what: str, kind=WrongVerdict) -> None:
    if not ok:
        raise kind(what)


def _bounded(name: str, residual: float, tol: float) -> tuple:
    _require(residual < tol, f"{name}: residual {residual:.3e} >= {tol:.0e}")
    return name, residual, tol


# --------------------------------------------------------------- roundtrip --

@dataclass(frozen=True)
class RoundtripCase:
    """A 1-shift kernel ``f_0 = 1 + b0 z`` and the inner function of a model."""

    index: int
    b0: complex
    theta: hp.BlaschkeProduct
    near_circle: bool


def roundtrip_cases(seed: int, count: int) -> list:
    """Kernels and inner functions of degree 1-3 for the model round trip.

    Zeros are uniform in area in the disc of radius 0.9, except that one
    case in ten puts one zero in the near-circle band.
    """
    rng = np.random.default_rng([seed, 1])
    degrees = _strata(rng, [1, 2, 3], count)
    near = set()
    for start in range(0, count, NEAR_CIRCLE_EVERY):
        near.add(start + int(rng.integers(0, min(NEAR_CIRCLE_EVERY, count - start))))
    cases = []
    for i in range(count):
        b0 = _disc(rng, REGULAR_RADIUS)
        zeros = [_disc(rng, REGULAR_RADIUS) for _ in range(degrees[i])]
        if i in near:
            zeros[0] = _annulus(rng, *NEAR_CIRCLE)
        theta = hp.BlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())), tuple(zeros))
        cases.append(RoundtripCase(i, b0, theta, i in near))
    return cases


def run_roundtrip(case: RoundtripCase) -> dict:
    """Model -> subspace -> model, with every verdict the pipeline offers."""
    kernel = hp.TridiagonalKernel(1, (1.0,), (case.b0,))
    model = hp.s1_model(1.0, case.b0, case.theta)
    shift = hp.shift_from_kernel(kernel, MODEL_N)
    space, report = hp.build_subspace(model, shift, MODEL_N)
    wandering = hp.wandering_dimension(space, shift)
    recovered = hp.extract_model(space, shift)
    cyclic, witness = hp.check_cyclic(space, model, shift)
    codim = hp.finite_codimension(space, model)
    return {"report": report, "wandering": wandering, "recovered": recovered,
            "cyclic": cyclic, "witness": witness, "codim": codim}


def _zero_error(expected, found) -> float:
    """Largest distance between matched zeros, over the best matching."""
    return min(
        max((abs(a - b) for a, b in zip(expected, perm)), default=0.0)
        for perm in itertools.permutations(found)
    )


def check_roundtrip(case: RoundtripCase, out: dict) -> list:
    theta = case.theta
    residuals = [_bounded("invariance_residual",
                          out["report"]["invariance_residual"], INVARIANCE_TOL)]
    _require(out["wandering"] == 1, f"wandering dimension {out['wandering']} != 1")
    found = out["recovered"].theta.zeros
    _require(len(found) == theta.degree,
             f"recovered {len(found)} zeros, expected {theta.degree}")
    residuals.append(_bounded("zero_error", _zero_error(theta.zeros, found), ZERO_TOL))
    # p_0 = 1 + b0 |theta(0)|^2 z has its root at modulus 1/(|b0| |theta(0)|^2) > 1,
    # so every subspace of this family is cyclic.
    theta0 = abs(np.prod(theta.zeros))
    outer = abs(case.b0) * theta0 ** 2 <= 1.0
    _require(out["cyclic"] == outer, f"cyclic verdict {out['cyclic']}, outer test {outer}")
    _require(bool(out["witness"]["consistent"]), "cyclic witness inconsistent",
             CheckFailed)
    _require(out["codim"] == theta.degree,
             f"codimension {out['codim']} != deg theta {theta.degree}")
    return residuals


# ----------------------------------------------------------------- operator --

@dataclass(frozen=True)
class OperatorCase:
    """A kernel n-shift with three commutant symbols and its expected block."""

    index: int
    n: int
    b: tuple
    symbols: tuple
    expected_block: int


def operator_cases(seed: int, count: int) -> list:
    """Kernels with n in 1..6 and b uniform in the disc of radius 0.9."""
    rng = np.random.default_rng([seed, 2])
    orders = _strata(rng, [1, 2, 3, 4, 5, 6], count)
    cases = []
    for i, n in enumerate(orders):
        b = tuple(_disc(rng, REGULAR_RADIUS) for _ in range(n))
        symbols = tuple(_symbol(rng, 8) for _ in range(3))
        cases.append(OperatorCase(i, n, b, symbols, n + 2))
    return cases


def run_operator(case: OperatorCase) -> dict:
    kernel = hp.TridiagonalKernel(case.n, (1.0,) * case.n, case.b)
    shift = hp.shift_from_kernel(kernel, OPERATOR_N)
    validation = hp.validate_n_shift(shift)
    powers = hp.verify_power_identities(shift, case.n + 4)
    elements = []
    for symbol in case.symbols:
        element = hp.commutant_element(symbol, kernel, OPERATOR_N, shift=shift)
        elements.append((element, hp.verify_commutation(element.X, shift)))
    commutator = hp.self_commutator(shift)
    return {"validation": validation, "powers": powers, "elements": elements,
            "commutator": commutator}


def check_operator(case: OperatorCase, out: dict) -> list:
    _require(out["validation"].passed,
             f"validation failed {out['validation'].failures}", CheckFailed)
    powers = out["powers"]
    _require(powers["passed"], "power identities failed", CheckFailed)
    residuals = [(f"powers.{k}", v, POWERS_TOL) for k, v in powers["worst"].items()]
    for element, resid in out["elements"]:
        residuals.append(_bounded("commutation", resid, COMMUTATION_TOL))
        spill = float(np.abs(element.N.entries[:, case.n:]).max())
        residuals.append(_bounded("n_support", spill, SUPPORT_TOL))
    rep = out["commutator"]
    _require(rep.block_size == case.expected_block,
             f"block size {rep.block_size} != {case.expected_block}")
    _require(rep.essentially_normal, "self-commutator not essentially normal",
             CheckFailed)
    return residuals


# --------------------------------------------------------------- paper demo --

def run_demo(seed: int) -> dict:
    """``hardy-perturb demo paper`` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    args = ["demo", "paper", "--truncation", str(DEMO_N), "--seed", str(seed)]
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return {"exit_code": code, "stdout": out.getvalue()}


def _row_residual(row):
    """The residual an upper-bound row compares with its tolerance, else None."""
    expected, computed, tol = row["expected"], row["computed"], row["tolerance"]
    if not tol or (isinstance(expected, str) and expected.startswith(">")):
        return None
    if isinstance(computed, dict):
        return computed.get("worst_residual")
    if isinstance(computed, bool) or not isinstance(computed, (int, float)):
        return None
    if isinstance(expected, (int, float)):
        return abs(computed - expected)
    return computed


def check_demo(out: dict) -> list:
    _require(out["exit_code"] == 0, f"demo paper exit code {out['exit_code']}",
             CheckFailed)
    doc = json.loads(out["stdout"])["report"]
    _require(doc["all_passed"] is True, f"demo paper failed rows {doc['failed']}",
             CheckFailed)
    residuals = []
    for row in doc["checks"]:
        res = _row_residual(row)
        if res is not None:
            residuals.append((row["claim"], res, row["tolerance"]))
    return residuals
