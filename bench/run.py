"""Benchmark of hardy-perturb: seeded workloads, verdicts checked, metrics printed.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and imports the package from ``src``.
Each workload runs in a fresh process whose BLAS/OpenMP thread variables are
unset, so OpenBLAS uses its default of one thread per core.  Set-up time is
the median over several fresh processes.  With ``--trace 0`` the last line
of output is the end-to-end result; with ``--trace 1`` it carries the
per-layer metrics of the traced passes.  Without ``--workload`` every
workload runs in turn.  Full reports, with the spans of traced runs, go to
``.bench_out/``.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("paper-demo", "model-roundtrip", "operator-algebra")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# A pass that starts just before the deadline may run past it; this bounds
# how long a workload process may take in all.
TIMEOUT_SLACK_S = 90


def _env() -> tuple:
    env = dict(os.environ)
    unset = [v for v in THREAD_VARS if env.pop(v, None) is not None]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env, unset


def _spawn(args: list, env: dict, timeout: float) -> dict:
    """Run ``worker.py`` and return the JSON object on its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at",
           repr(time.monotonic())] + args
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    env, unset = _env()
    setups = [_spawn(["--probe"], env, 60)["setup_s"] for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{name}-seed{seed}-trace{trace}.json"
    doc = _spawn(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace), "--unset", ",".join(unset),
                  "--report", str(report)], env, seconds + TIMEOUT_SLACK_S)
    setups.append(doc["setup_s"])
    doc["metrics"]["setup_s"] = (statistics.median(setups), "s")
    doc["setup_samples_s"] = setups
    doc["report_path"] = str(report.relative_to(ROOT))
    return doc


def _describe(doc: dict, trace: int) -> None:
    env = doc["environment"]
    print(f"== {doc['workload']}  seed={doc['seed']}  trace={trace}")
    print(f"   nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']}")
    unset = ",".join(env["thread_vars_unset"]) or "none were set"
    libs = "; ".join(f"{b['library']}: {b.get('threads', '?')} threads"
                     for b in env["openblas"])
    print(f"   thread variables unset: {unset}; {libs}")
    print(f"   passes untraced={len(doc['passes']['untraced'])} "
          f"traced={len(doc['passes']['traced'])}, "
          f"{doc['cases_per_pass']} cases per pass, "
          f"case_ms_tail is p{doc['case_ms_tail_percentile']} "
          f"of {doc['case_samples']} case medians, "
          f"ground-truth checks take {doc['check_share_pct']:.2f}% of case time")
    for f in doc["failures"]:
        print(f"   failed case {f['index']} x{f['count']}: {f['error']}: {f['message']}")
    if trace:
        shares = ", ".join(f"{k} {v:.1f}%" for k, v in doc["top_level_share_pct"].items())
        print(f"   traced time by outermost call: {shares}")
    for name, (value, unit) in doc["metrics" if not trace else "layer_metrics"].items():
        print(f"   {name:<58} {value:>14.6g} {unit}")
    print(f"   full report: {doc['report_path']}")


def result_line(doc: dict, trace: int) -> str:
    metrics = doc["layer_metrics"] if trace else doc["metrics"]
    return json.dumps({
        "correct": doc["wrong_verdicts"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hardy_perturb" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else WORKLOADS:
        doc = run_workload(name, args.seed, args.seconds, args.trace)
        _describe(doc, args.trace)
        print(result_line(doc, args.trace), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
