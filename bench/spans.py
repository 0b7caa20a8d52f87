"""Spans around the library's public functions and counters on dense kernels.

Installed only for the traced passes of a run, by rebinding names in the
``hardy_perturb`` modules; the library source is not touched.  A span
records name, start, end and parent id.  Spans stay in memory until the
run writes them out.

Dense-kernel counters see calls made through ``numpy.linalg`` and
``scipy.linalg`` (including the SVD inside a matrix 2-norm).  Products
written with ``@`` go straight to BLAS and are invisible here.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy.linalg
import scipy.linalg

TRACED = {
    "shifts": ("shift_from_kernel", "validate_n_shift", "verify_power_identities"),
    "commutant": ("commutant_element", "verify_commutation", "hyperinvariance_check"),
    "analysis": ("self_commutator", "essential_normality_witness"),
    "invariant": ("build_subspace", "verify_model", "wandering_dimension",
                  "extract_model", "check_cyclic", "finite_codimension"),
    "core": ("orthonormalize", "subspace_difference", "krylov_closure",
             "principal_angles", "invariance_residual", "numerical_rank"),
    "inner": ("blaschke_taylor", "rational_inner_from_taylor", "is_inner_numeric"),
    "suite": ("check_two_perturbation_block", "check_self_commutator",
              "check_model_instance_values", "check_invariant_subspace_pipeline",
              "check_power_identities", "check_random_trials",
              "check_commutant_suite", "check_baselines",
              "check_restriction_isometry", "sample_conditioned_trial"),
}


def _dims(a):
    m, n = a.shape[-2:]
    batch = math.prod(a.shape[:-2])
    return m, n, batch, 4.0 if a.dtype.kind == "c" else 1.0


def _svd_flop(a, full_matrices=True, compute_uv=True, *_, **__):
    m, n, batch, cx = _dims(a)
    big, k = max(m, n), min(m, n)
    if not compute_uv:
        flop = 4 * big * k * k - 4 * k ** 3 / 3
    elif full_matrices:
        flop = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    else:
        flop = 14 * big * k * k + 8 * k ** 3
    return cx * batch * flop


def _eigvalsh_flop(a, *_, **__):
    _, n, batch, cx = _dims(a)
    return cx * batch * 4 * n ** 3 / 3


def _lstsq_flop(a, b, *_, **__):
    m, n, _, cx = _dims(a)
    rhs = 1 if b.ndim == 1 else b.shape[1]
    big, k = max(m, n), min(m, n)
    return cx * (4 * big * k * k - 4 * k ** 3 / 3 + 2 * big * k * rhs)


def _solve_triangular_flop(a, b, *_, **__):
    n = a.shape[0]
    rhs = 1 if b.ndim == 1 else b.shape[1]
    cx = 4.0 if "c" in (a.dtype.kind, b.dtype.kind) else 1.0
    return cx * n * n * rhs


def _inv_flop(a, *_, **__):
    _, n, batch, cx = _dims(a)
    return cx * batch * 2 * n ** 3


# kernel -> (namespace the library calls it through, leading-order flop count).
LINALG = {
    "svd": (numpy.linalg, _svd_flop),
    "eigvalsh": (numpy.linalg, _eigvalsh_flop),
    "lstsq": (numpy.linalg, _lstsq_flop),
    "inv": (numpy.linalg, _inv_flop),
    "solve_triangular": (scipy.linalg, _solve_triangular_flop),
}
# numpy.linalg.norm(x, 2) calls svd through this module's globals.
_NUMPY_IMPL = getattr(numpy.linalg, "_linalg", None)


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Records spans and kernel counts while installed."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, self_seconds)
        self.kernel_calls = dict.fromkeys(LINALG, 0)
        self.kernel_flop = dict.fromkeys(LINALG, 0.0)
        self._stack = []  # [span id, seconds covered by children]
        self._names = {}
        self._accepted = 0
        self._patched = []

    # ---------------------------------------------------------- install --

    def install(self) -> None:
        lib = [m for name, m in list(sys.modules.items())
               if name == "hardy_perturb" or name.startswith("hardy_perturb.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"hardy_perturb.{mod_name}"]
            for fn in fns:
                orig = getattr(home, fn)
                self._rebind(lib, orig, self._span(f"{mod_name}.{fn}", orig))
        for kernel, (space, flop) in LINALG.items():
            holders = [space] + lib
            if _NUMPY_IMPL is not None and space is numpy.linalg:
                holders.append(_NUMPY_IMPL)
            orig = getattr(space, kernel)
            self._rebind(holders, orig, self._counter(kernel, orig, flop))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _rebind(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patched.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self._names)
            self._names[span_id] = name
            parent = self._stack[-1][0] if self._stack else None
            entry = [span_id, 0.0]
            self._stack.append(entry)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((span_id, parent, name, start, end,
                                   end - start - entry[1]))
            if name == "suite.sample_conditioned_trial":
                self._accepted += 1
            return result
        return traced

    def _counter(self, kernel, fn, flop):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.kernel_calls[kernel] += 1
            self.kernel_flop[kernel] += flop(*args, **kwargs)
            return fn(*args, **kwargs)
        return counted

    # ---------------------------------------------------------- results --

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass means of every span and counter, keyed by metric name."""
        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        for _, _, name, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.self_ms"] = (1e3 * self_s[name] / passes, "ms")
        for mod, fns in TRACED.items():
            total = sum(self_s[f"{mod}.{fn}"] for fn in fns)
            out[f"{mod}.self_ms"] = (1e3 * total / passes, "ms")
        for kernel in LINALG:
            out[f"linalg.{kernel}.calls"] = (self.kernel_calls[kernel] / passes, "count")
            out[f"linalg.{kernel}.gflop_computed"] = (
                self.kernel_flop[kernel] / 1e9 / passes, "GFLOP")
        sampler_shifts = sum(
            1 for _, parent, name, *_ in self.spans
            if name == "shifts.shift_from_kernel" and parent is not None
            and self._names[parent] == "suite.sample_conditioned_trial")
        ratio = self._accepted / sampler_shifts if sampler_shifts else 0.0
        out["suite.trial_accept_ratio"] = (ratio, "ratio")
        return out

    def top_level_shares(self, traced_seconds: float) -> dict:
        """Share of traced time spent under each outermost span name, in %."""
        totals = {}
        for _, parent, name, start, end, _ in self.spans:
            if parent is None:
                totals[name] = totals.get(name, 0.0) + end - start
        return {name: 100.0 * t / traced_seconds
                for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}

    def span_records(self) -> list:
        return [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e, _ in self.spans]
