"""One workload in a fresh process: set up, run timed passes, report as JSON.

Started by ``run.py``; not meant to be run by hand.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before the spawn (a system-wide clock on
Linux), so set-up time counts interpreter start-up as well.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import hardy_perturb as hp
import workloads as wl
from spans import Tracer

# Cases per pass: the discrete parameters (theta degree, near-circle slot,
# n) are stratified over a pass, so one pass weighs them the same on every
# seed.
ROUNDTRIP_PASS = 30
OPERATOR_PASS = 6
MIN_PASSES = 3


def _percentile_tail(samples: list) -> tuple:
    """Highest integer percentile with at least ten samples beyond it.

    With fewer than twenty samples that percentile would sit below the
    median; the maximum is reported instead, as percentile 100.
    """
    n = len(samples)
    if n < 20:
        return 100, max(samples)
    pct = int(100 * (1 - 10 / n))
    return pct, float(np.percentile(samples, pct))


def _blas_threads() -> list:
    """Name, configuration and thread count of every loaded OpenBLAS."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
                    break
            if "threads" in info:
                break
        found.append(info)
    return found


def environment(unset: list) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars_unset": unset,
        "openblas": _blas_threads(),
    }


class Workload:
    """A pass runner: ``run_pass()`` returns per-case records."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        if name == "paper-demo":
            self.cases = [None]
        elif name == "model-roundtrip":
            self.cases = wl.roundtrip_cases(seed, ROUNDTRIP_PASS)
        else:
            self.cases = wl.operator_cases(seed, OPERATOR_PASS)

    def _run(self, case):
        """Make the library calls of one case; return the check of their result."""
        if self.name == "paper-demo":
            out = wl.run_demo(self.seed)
            return lambda: wl.check_demo(out)
        if self.name == "model-roundtrip":
            out = wl.run_roundtrip(case)
            return lambda: wl.check_roundtrip(case, out)
        out = wl.run_operator(case)
        return lambda: wl.check_operator(case, out)

    def run_pass(self) -> list:
        records = []
        for i, case in enumerate(self.cases):
            start = time.perf_counter()
            rec = {"index": i}
            try:
                check = self._run(case)
                checked = time.perf_counter()
                residuals = check()
                end = time.perf_counter()
                rec.update(ok=True, seconds=end - start, check_seconds=end - checked,
                           margin=wl.margin_decades(residuals) if residuals else None)
            except Exception as exc:  # deliberate: any exception fails the case
                rec.update(ok=False, seconds=time.perf_counter() - start,
                           error=type(exc).__name__, message=str(exc)[:200])
            records.append(rec)
        return records


def measure(workload: Workload, seconds: float, traced: bool):
    """Run passes until the next one would end past ``seconds``.

    At least ``MIN_PASSES`` run, so that every median has three samples.
    With tracing, passes alternate untraced and traced; end-to-end figures
    come from the untraced ones only.
    """
    tracer = Tracer() if traced else None
    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        tracing = traced and len(plain) > len(with_trace)
        if tracing:
            tracer.install()
        t0 = time.perf_counter()
        try:
            records = workload.run_pass()
        finally:
            if tracing:
                tracer.uninstall()
        entry = (time.perf_counter() - t0, records)
        (with_trace if tracing else plain).append(entry)
        done = plain + with_trace
        typical = statistics.median(t for t, _ in done)
        if len(done) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return plain, with_trace, tracer


def _case_medians(passes: list, passing_only: bool) -> list:
    """Per case index, the median of its times over the passes, in ms."""
    times = {}
    for _, records in passes:
        for r in records:
            if r["ok"] or not passing_only:
                times.setdefault(r["index"], []).append(r["seconds"])
    return [1e3 * statistics.median(t) for t in times.values()]


def _distinct_failures(failures: list) -> list:
    """One entry per failing case index, with how many passes it failed in."""
    seen = {}
    for r in failures:
        entry = seen.setdefault(r["index"], {k: r[k] for k in ("index", "error", "message")})
        entry["count"] = entry.get("count", 0) + 1
    return list(seen.values())


def summarize(name, seed, seconds, traced, unset) -> dict:
    workload = Workload(name, seed)
    plain, with_trace, tracer = measure(workload, seconds, traced)
    records = [r for _, recs in plain + with_trace for r in recs]
    failures = [r for r in records if not r["ok"]]
    passing = [r for _, recs in plain for r in recs if r["ok"]]
    # Each case's time is its median over the untraced passes, so a transient
    # stall in one pass moves a figure only by that case's share, and the
    # sample count of the percentiles is the same on every run of a seed.
    # When no case passed, the failing cases' times stand in.
    case_ms = _case_medians(plain, passing_only=bool(passing))
    tail_pct, tail = _percentile_tail(case_ms)
    margins = [r["margin"] for r in plain[0][1] if r["ok"] and r["margin"] is not None]
    wall = sum(_case_medians(plain, passing_only=False)) / 1e3
    check_share = (100.0 * sum(r["check_seconds"] for r in passing)
                   / sum(r["seconds"] for r in passing)) if passing else 0.0
    metrics = {
        "wall_s": (wall, "s"),
        "case_ms_p50": (statistics.median(case_ms), "ms"),
        "case_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy_margin_dec": (statistics.median(margins) if margins else 0.0, "dec"),
    }
    doc = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(unset),
        "cases_per_pass": len(workload.cases),
        "passes": {"untraced": [t for t, _ in plain],
                   "traced": [t for t, _ in with_trace]},
        "case_ms_tail_percentile": tail_pct,
        "case_samples": len(case_ms),
        "check_share_pct": check_share,
        "attempted": len(records),
        "failed": len(failures),
        "failures": _distinct_failures(failures),
        "wrong_verdicts": sum(r["error"] == "WrongVerdict" for r in failures),
        "metrics": metrics,
    }
    if traced:
        traced_wall = sum(_case_medians(with_trace, passing_only=False)) / 1e3
        layer = tracer.layer_metrics(len(with_trace))
        layer["trace.overhead_pct"] = (100.0 * (traced_wall / wall - 1.0), "%")
        layer["bench.check_pct"] = (check_share, "%")
        doc["layer_metrics"] = layer
        doc["top_level_share_pct"] = tracer.top_level_shares(sum(t for t, _ in with_trace))
        doc["spans"] = tracer.span_records()
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--unset", default="")
    parser.add_argument("--report", help="write the full report (with spans) here")
    parser.add_argument("--probe", action="store_true",
                        help="only report set-up time and exit")
    args = parser.parse_args(argv)
    # Set-up ends once the package is imported and its first dense kernel ran.
    hp.shift_from_kernel(hp.TridiagonalKernel(1, (1.0,), (0.5,)), 8)
    setup = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup}))
        return 0
    unset = [v for v in args.unset.split(",") if v]
    doc = summarize(args.workload, args.seed, args.seconds, bool(args.trace), unset)
    doc["setup_s"] = setup
    if args.report:
        Path(args.report).write_text(json.dumps(doc, default=float) + "\n", encoding="utf-8")
    doc.pop("spans", None)
    print(json.dumps(doc, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
