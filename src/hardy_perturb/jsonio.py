"""JSON config parsing and payload (de)serialization for the CLI.

Complex scalars travel as ``[re, im]`` pairs.  A config file is a single
JSON object with optional ``truncation``, ``seed`` and ``tolerances`` keys,
an ``input`` payload (kernel, explicit perturbation columns, or a subspace
model; the payload kind is detected from its keys), and per-command option
blocks.
"""

from __future__ import annotations

import cmath
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import ToleranceConfig
from .errors import HardyPerturbError
from .inner import BlaschkeProduct, Polynomial
from .invariant import SubspaceModel
from .shifts import NShift, TridiagonalKernel, shift_from_columns, shift_from_kernel

__all__ = [
    "ConfigError",
    "RunConfig",
    "cpair",
    "load_config",
    "parse_complex_list",
    "resolve_shift",
]

SEED_ENV_VAR = "HARDY_PERTURB_SEED"


class ConfigError(HardyPerturbError):
    """Raised for malformed configuration or input payloads (CLI exit 2)."""


def cpair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _uncpair(x) -> complex:
    pair = (x, 0.0) if isinstance(x, (int, float)) else x
    try:
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            z = complex(float(pair[0]), float(pair[1]))
            if cmath.isfinite(z):
                return z
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"expected a finite number or [re, im] pair, got {x!r}")


def parse_complex_list(xs) -> np.ndarray:
    if not isinstance(xs, (list, tuple)):
        raise ConfigError(f"expected a list of numbers or [re, im] pairs, got {xs!r}")
    return np.array([_uncpair(x) for x in xs], dtype=np.complex128)


@dataclass
class RunConfig:
    """Resolved run configuration: truncation, seed, tolerances, payloads."""

    truncation: int = 128
    seed: int = 0
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    input: dict | None = None
    options: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.truncation < 32:
            raise ConfigError("truncation must be at least 32")


def load_config(
    path: str | None,
    truncation: int | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Load a config file and apply CLI overrides.

    The default seed comes from the ``HARDY_PERTURB_SEED`` environment
    variable when neither the file nor the flag provides one.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    picked = {
        "truncation": truncation if truncation is not None else raw.get("truncation", 128),
        "seed": seed if seed is not None else raw.get("seed", os.environ.get(SEED_ENV_VAR, "0")),
    }
    for name, value in picked.items():
        # int() would cut 64.9 to 64 and read true as 1.
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        eff_trunc, eff_seed = int(picked["truncation"]), int(picked["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"truncation and seed must be integers: {exc}") from exc
    if not isinstance(raw.get("tolerances", {}), dict):
        raise ConfigError(f"tolerances must be an object, got {raw['tolerances']!r}")
    try:
        tols = ToleranceConfig.from_dict(raw.get("tolerances", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tolerances: {exc}") from exc
    options = {
        k: v
        for k, v in raw.items()
        if k not in ("truncation", "seed", "tolerances", "input")
    }
    return RunConfig(
        truncation=eff_trunc,
        seed=eff_seed,
        tolerances=tols,
        input=raw.get("input"),
        options=options,
        echo=raw,
    )


def kernel_from_payload(d: dict) -> TridiagonalKernel:
    try:
        return TridiagonalKernel(
            int(d["n"]),
            tuple(parse_complex_list(d["a"])),
            tuple(parse_complex_list(d["b"])),
        )
    except KeyError as exc:
        raise ConfigError(f"kernel payload missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel payload: {exc}") from exc


def model_from_payload(d: dict) -> SubspaceModel:
    try:
        theta = d["theta"]
        return SubspaceModel(
            int(d["n"]),
            BlaschkeProduct(
                _uncpair(theta.get("constant", 1.0)),
                tuple(parse_complex_list(theta.get("zeros", []))),
            ),
            tuple(Polynomial(parse_complex_list(p)) for p in d["p"]),
            tuple(Polynomial(parse_complex_list(q)) for q in d["q"]),
        )
    except KeyError as exc:
        raise ConfigError(f"model payload missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model payload: {exc}") from exc


def resolve_shift(
    cfg: RunConfig, strict: bool = True
) -> tuple[NShift, TridiagonalKernel | None]:
    """Build the shift described by the config's input payload.

    Kernel payloads carry ``a``/``b`` arrays; explicit payloads carry
    perturbation ``columns``.  Returns the shift and, when available, the
    kernel (several operations are defined only for kernel-built shifts).
    """
    payload = cfg.input
    if payload is None:
        raise ConfigError("config has no 'input' payload")
    if "a" in payload and "b" in payload:
        kernel = kernel_from_payload(payload)
        return shift_from_kernel(kernel, cfg.truncation, cfg.tolerances), kernel
    if "columns" in payload:
        try:
            n, cols = int(payload["n"]), [parse_complex_list(c) for c in payload["columns"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad columns payload: {exc!r}") from exc
        return shift_from_columns(n, cols, cfg.truncation, cfg.tolerances, strict=strict), None
    if "theta" in payload:
        raise ConfigError(
            "input payload is a subspace model; this command needs a kernel "
            "or explicit perturbation columns"
        )
    raise ConfigError("unrecognized input payload (expected kernel or columns)")
