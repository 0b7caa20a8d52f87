"""Command-line front end: JSON-config-driven construction and verification.

Subcommands mirror the library surface: ``shift {build|verify|powers}``,
``subspace {build|check|extract|cyclic|codim}``, ``commutant
{element|hyper|irreducible}``, ``analyze normality`` and ``demo paper``.
Reports are JSON on stdout (optionally to ``--out``); the commands that
build a matrix dump it to CSV in the current directory with
``--dump-matrices``.  Exit codes: 0 all checks passed, 1 a check
failed, 2 configuration error.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .analysis import self_commutator
from .commutant import (
    commutant_element,
    hyperinvariance_check,
    irreducibility_probe,
)
from .core import (
    TruncatedVector,
    krylov_closure,
    numerical_rank,
    orthonormalize,
    rank_report,
)
from .errors import HardyPerturbError
from .inner import Polynomial
from .invariant import (
    _require_consistent,
    build_subspace,
    check_cyclic,
    extract_model,
    finite_codimension,
    verify_model,
    wandering_dimension,
)
from .jsonio import (
    ConfigError,
    RunConfig,
    cpair,
    load_config,
    model_from_payload,
    parse_complex_list,
    resolve_shift,
)
from .shifts import validate_n_shift, verify_power_identities
from .suite import reference_suite


def _report(cfg: RunConfig, command: str, body: dict, out_path: str | None) -> dict:
    doc = {
        "tool": "hardy-perturb",
        "version": __version__,
        "command": command,
        "truncation": cfg.truncation,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances.to_dict(),
        "config": cfg.echo,
        "report": body,
    }
    text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonify)
    # Every echo names its stream: click caches the stream it resolves itself
    # in a WeakKeyDictionary whose value is the stream, so an in-process caller
    # that redirects sys.stdout to a fresh StringIO per run keeps each alive.
    click.echo(text, file=sys.stdout)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return doc


def _jsonify(x):
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (tuple, set)):
        return list(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _dump_complex(path_stem: str, matrix: np.ndarray) -> None:
    for part, values in (("re", matrix.real), ("im", matrix.imag)):
        np.savetxt(f"{path_stem}_{part}.csv", values, fmt="%.17g", delimiter=",")


def common_options(fn):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="JSON config file.")
    @click.option("--truncation", type=int, default=None, help="Working order.")
    @click.option("--seed", type=int, default=None,
                  help="Random seed (default: HARDY_PERTURB_SEED or 0).")
    @click.option("--out", "out_path", type=click.Path(), default=None,
                  help="Also write the JSON report to this path.")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
            sys.exit(2)
        except HardyPerturbError as exc:
            click.echo(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                file=sys.stderr,
            )
            sys.exit(1)

    return wrapper


dump_option = click.option(
    "--dump-matrices", is_flag=True, default=False,
    help="Dump operator matrices as CSV files in the current directory.",
)


def _finish(passed: bool) -> None:
    sys.exit(0 if passed else 1)


@click.group()
@click.version_option(__version__)
def main():
    """Finite-rank analytic perturbations of the shift: build and verify."""


# ----------------------------------------------------------------- shift --

@main.group()
def shift():
    """Construct and validate n-shifts."""


@shift.command("build")
@common_options
@dump_option
def shift_build(config_path, truncation, seed, out_path, dump_matrices):
    """Build a shift from a kernel or explicit columns and report on it."""
    cfg = load_config(config_path, truncation, seed)
    s, kernel = resolve_shift(cfg, strict=False)
    report = validate_n_shift(s, cfg.tolerances)
    body = {
        "n": s.n,
        "provenance": s.provenance,
        "validation": report.to_json(),
        "perturbation_rank": numerical_rank(s.F, cfg.tolerances),
        "kernel": kernel.to_json() if kernel else None,
    }
    if dump_matrices:
        _dump_complex("shift_S", s.S.entries)
        _dump_complex("shift_F", s.F.entries)
        body["matrix_dumps"] = ["shift_S_re.csv", "shift_S_im.csv",
                                "shift_F_re.csv", "shift_F_im.csv"]
    _report(cfg, "shift build", body, out_path)
    _finish(report.passed)


@shift.command("verify")
@common_options
def shift_verify(config_path, truncation, seed, out_path):
    """Check the defining clauses of the configured perturbation."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = resolve_shift(cfg, strict=False)
    report = validate_n_shift(s, cfg.tolerances)
    _report(cfg, "shift verify", report.to_json(), out_path)
    _finish(report.passed)


@shift.command("powers")
@click.option("--m-max", type=int, default=None, help="Largest power to check.")
@common_options
def shift_powers(m_max, config_path, truncation, seed, out_path):
    """Verify the power identities of the configured shift."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = resolve_shift(cfg)
    m_top = m_max if m_max is not None else int(cfg.options.get("m_max", s.n + 4))
    if m_top < 1:
        raise ConfigError(f"m_max must be at least 1, got {m_top}")
    rep = verify_power_identities(s, m_top, cfg.tolerances, seed=cfg.seed)
    _report(cfg, "shift powers", rep, out_path)
    _finish(rep["passed"])


# -------------------------------------------------------------- subspace --

def _require_model(cfg: RunConfig):
    payload = cfg.options.get("model")
    if payload is None and cfg.input and "theta" in cfg.input:
        payload = cfg.input
    if payload is None:
        raise ConfigError("this command needs a 'model' payload in the config")
    return model_from_payload(payload)


def _shift_for_subspace(cfg: RunConfig):
    if cfg.options.get("shift") is not None:
        sub = RunConfig(cfg.truncation, cfg.seed, cfg.tolerances,
                        cfg.options["shift"], {}, cfg.echo)
        return resolve_shift(sub)
    return resolve_shift(cfg)


@main.group()
def subspace():
    """Build, verify and classify invariant subspaces."""


@subspace.command("build")
@common_options
@dump_option
def subspace_build(config_path, truncation, seed, out_path, dump_matrices):
    """Build the subspace a model describes; report residuals."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = _shift_for_subspace(cfg)
    model = _require_model(cfg)
    space, report = build_subspace(model, s, cfg.truncation, cfg.tolerances)
    body = dict(report)
    body["model"] = model.to_json()
    if dump_matrices:
        _dump_complex("subspace_basis", space.basis)
        body["matrix_dumps"] = ["subspace_basis_re.csv", "subspace_basis_im.csv"]
    _report(cfg, "subspace build", body, out_path)
    _finish(report["invariance_residual"] < cfg.tolerances.tau_res
            and report["max_residual"] < report["condition_limit"])


@subspace.command("check")
@common_options
def subspace_check(config_path, truncation, seed, out_path):
    """Model structure residuals plus the wandering dimension."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = _shift_for_subspace(cfg)
    model = _require_model(cfg)
    space, report = build_subspace(model, s, cfg.truncation, cfg.tolerances)
    body = dict(report)
    body["wandering_dimension"] = wandering_dimension(space, s, cfg.tolerances)
    _report(cfg, "subspace check", body, out_path)
    _finish(body["wandering_dimension"] == 1
            and report["max_residual"] < report["condition_limit"])


@subspace.command("extract")
@common_options
def subspace_extract(config_path, truncation, seed, out_path):
    """Recover the classification data of an invariant subspace.

    The subspace comes from (in order of precedence) an explicit 'basis'
    payload, a cyclic 'seed_vector' (with optional 'depth'), or a 'model'
    that is first built and then re-extracted.
    """
    cfg = load_config(config_path, truncation, seed)
    s, _ = _shift_for_subspace(cfg)
    nw = cfg.truncation
    if cfg.options.get("basis") is not None:
        cols = np.column_stack([parse_complex_list(v) for v in cfg.options["basis"]])
        if cols.shape[0] != nw:
            raise ConfigError("basis vectors must have length equal to truncation")
        frontier = cfg.options.get("frontier")
        if frontier is not None and not (isinstance(frontier, int) and 0 <= frontier <= nw):
            raise ConfigError(f"frontier must be an integer in [0, {nw}], got {frontier!r}")
        space = orthonormalize(cols, cfg.tolerances, frontier=frontier)
    elif cfg.options.get("seed_vector") is not None:
        vec = TruncatedVector.from_coefficients(
            parse_complex_list(cfg.options["seed_vector"]), nw
        )
        try:
            depth = int(cfg.options.get("depth", 40))
        except (TypeError, ValueError):
            depth = -1
        if depth < 0:
            raise ConfigError("depth must be a nonnegative integer")
        space = krylov_closure(s, vec, depth, cfg.tolerances)
    else:
        model_in = _require_model(cfg)
        space, _ = build_subspace(model_in, s, nw, cfg.tolerances)
    model = extract_model(space, s, cfg.tolerances)
    residuals = verify_model(model, s, nw, cfg.tolerances)
    body = {
        "model": model.to_json(),
        "residuals": {k: v for k, v in residuals.items() if k != "phi_norms"},
    }
    _report(cfg, "subspace extract", body, out_path)
    _finish(residuals["max_residual"] < residuals["condition_limit"])


@subspace.command("cyclic")
@common_options
def subspace_cyclic(config_path, truncation, seed, out_path):
    """Decide cyclicity of the modeled subspace (1-shifts)."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = _shift_for_subspace(cfg)
    model = _require_model(cfg)
    _require_consistent(model, s, cfg.truncation, cfg.tolerances)
    verdict, witness = check_cyclic(None, model, s, cfg.tolerances)
    body = {"cyclic": verdict, "witness": witness}
    _report(cfg, "subspace cyclic", body, out_path)
    _finish(witness.get("consistent", True))


@subspace.command("codim")
@common_options
def subspace_codim(config_path, truncation, seed, out_path):
    """Codimension of the modeled subspace."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = _shift_for_subspace(cfg)
    model = _require_model(cfg)
    _require_consistent(model, s, cfg.truncation, cfg.tolerances)
    codim = finite_codimension(None, model, cfg.tolerances)
    _report(cfg, "subspace codim", {"codimension": codim}, out_path)
    _finish(True)


# ------------------------------------------------------------- commutant --

@main.group()
def commutant():
    """Commutant members of kernel-built shifts."""


def _require_kernel(cfg: RunConfig):
    s, kernel = resolve_shift(cfg)
    if kernel is None:
        raise ConfigError("this command needs a kernel input payload")
    return s, kernel


def _parse_phi(text: str) -> np.ndarray:
    """``--phi`` tokens, checked like the config-file ``phi`` list."""
    try:
        values = [complex(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--phi: {exc}: {text!r}") from exc
    return parse_complex_list([[z.real, z.imag] for z in values])


@commutant.command("element")
@click.option("--phi", "phi_text", type=str, default=None,
              help="Symbol coefficients, comma separated (e.g. '1,0,1').")
@common_options
@dump_option
def commutant_element_cmd(phi_text, config_path, truncation, seed, out_path,
                          dump_matrices):
    """Build the commutant member for a polynomial symbol."""
    cfg = load_config(config_path, truncation, seed)
    s, kernel = _require_kernel(cfg)
    if phi_text is not None:
        coeffs = _parse_phi(phi_text)
    elif cfg.options.get("phi") is not None:
        coeffs = parse_complex_list(cfg.options["phi"])
    else:
        raise ConfigError("need --phi or an options 'phi' list")
    symbol = Polynomial(coeffs)
    element = commutant_element(symbol, kernel, cfg.truncation, cfg.tolerances, s)
    resid = element.commutation_residual
    n_cols = element.N.window(min(cfg.truncation, 16), kernel.n)
    spill = element.N.max_abs(cols=slice(kernel.n, None))
    body = {
        "symbol": [cpair(c) for c in symbol.coeffs],
        "commutation_residual": resid,
        "N_support_ok": spill < 1e-12,
        "N_outside_support_max": spill,
        "N_columns_head": [[cpair(v) for v in row] for row in n_cols],
        "N_minus_F_max": (element.N - s.F).max_abs(),
    }
    if dump_matrices:
        _dump_complex("commutant_X", element.X.entries)
        _dump_complex("commutant_N", element.N.entries)
        body["matrix_dumps"] = ["commutant_X_re.csv", "commutant_X_im.csv",
                                "commutant_N_re.csv", "commutant_N_im.csv"]
    _report(cfg, "commutant element", body, out_path)
    _finish(body["N_support_ok"] and resid < cfg.tolerances.tau_res)


@commutant.command("hyper")
@click.option("--trials", type=int, default=50, help="Random symbols to test.")
@common_options
def commutant_hyper(trials, config_path, truncation, seed, out_path):
    """Hyperinvariance residuals of a modeled subspace."""
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    cfg = load_config(config_path, truncation, seed)
    s, kernel = _require_kernel(cfg)
    model = _require_model(cfg)
    rep = hyperinvariance_check(model, s, kernel, trials, cfg.tolerances,
                                seed=cfg.seed)
    body = dict(rep)
    body["hyperinvariance_max_residual"] = rep["max_residual"]
    _report(cfg, "commutant hyper", body, out_path)
    _finish(rep["passed"])


@commutant.command("irreducible")
@common_options
def commutant_irreducible(config_path, truncation, seed, out_path):
    """Probe that no sampled invariant subspace reduces the shift."""
    cfg = load_config(config_path, truncation, seed)
    s, kernel = _require_kernel(cfg)
    rep = irreducibility_probe(s, kernel, cfg.tolerances, seed=cfg.seed)
    _report(cfg, "commutant irreducible", rep, out_path)
    _finish(rep["passed"])


# --------------------------------------------------------------- analyze --

@main.group()
def analyze():
    """Spectral-style analyses of a shift."""


@analyze.command("normality")
@common_options
@dump_option
def analyze_normality(config_path, truncation, seed, out_path, dump_matrices):
    """Self-commutator block, rank, determinant, hyponormality."""
    cfg = load_config(config_path, truncation, seed)
    s, _ = resolve_shift(cfg)
    rep = self_commutator(s, cfg.tolerances)
    body = rep.to_json()
    body["witness_block_size"] = rep.block_size
    # Rank ties near the cutoff are never rounded silently; the gap around
    # the cutoff travels with the verdict.
    body["rank_diagnostics"] = rank_report(rep.block, cfg.tolerances)
    if dump_matrices:
        _dump_complex("commutator_block", rep.block)
        body["matrix_dumps"] = ["commutator_block_re.csv", "commutator_block_im.csv"]
    _report(cfg, "analyze normality", body, out_path)
    _finish(rep.essentially_normal)


# ------------------------------------------------------------------ demo --

@main.group()
def demo():
    """Curated verification suites."""


@demo.command("paper")
@common_options
def demo_paper(config_path, truncation, seed, out_path):
    """Run the full table of pinned reference claims."""
    cfg = load_config(config_path, truncation, seed)
    rows = reference_suite(cfg.truncation, cfg.seed, cfg.tolerances)
    width = max(len(r["claim"]) for r in rows)
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        click.echo(f"{status}  {r['claim']:<{width}}  tol={r['tolerance']}",
                   file=sys.stderr)
    all_pass = all(r["passed"] for r in rows)
    body = {"checks": rows, "all_passed": all_pass,
            "failed": [r["claim"] for r in rows if not r["passed"]]}
    _report(cfg, "demo paper", body, out_path)
    _finish(all_pass)


if __name__ == "__main__":
    main()
