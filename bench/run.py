"""Benchmark entry point: run one workload, check every output, print metrics.

Usage (from the repository root):

    python3 bench/run.py --workload census-e6 --seed 1 --seconds 30 --trace 0

Each pass is a fresh child interpreter (bench/child.py) running the
workload's CLI calls in-process through ``clusterforge.cli.main``, so every
pass pays import and the ``coxeter.cartan_data`` cache as a CLI user does.
The child environment is pinned: ``CF_THREADS`` is unset (one thread) and
``PYTHONHASHSEED=0``.  One discarded set-up-only pass compiles the ``.pyc``
files first.  Passes repeat until the pass boundary nearest to ``--seconds``
and metrics are medians over passes; ``setup_s`` also counts a batch of
set-up-only passes.  With ``--trace 1`` traced and untraced passes
alternate and the per-layer metrics come from the traced ones.

Every time metric is rescaled to a fixed host speed by the reference loop
the child times next to each call (reference.py): the host's speed drifts
by a factor of two over minutes, and the rescaled times do not.  The raw
times are printed in the table above the result line.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
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

import reference
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_BUDGET_S = 170.0  # the whole run, set-up pass included, ends within this
MIN_PASSES = 3
SETUP_PASSES = 10  # extra set-up-only passes (about 0.3 s each), so setup_s is a median of more samples

END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput": "units/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Printed for information next to the metrics: the times before rescaling.
RAW = ("raw_wall_s", "raw_throughput", "raw_cpu_s", "raw_setup_s", "ref_s")
# Counts that must repeat exactly across traced passes of one seed.
_COUNT_SUFFIXES = (".calls", ".terms_out", ".tries")


class PassFailed(RuntimeError):
    """A child pass exited abnormally or printed no report."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CF_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(workload: str, seed: int, trace: bool, setup_only: bool = False,
             timeout: float = RUN_BUDGET_S) -> dict:
    """Run one pass in a fresh child process and return its report."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
           "1" if trace else "0", "1" if setup_only else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise PassFailed("pass printed no report") from None


def load_digests() -> dict:
    path = BENCH / "digests.json"
    return json.loads(path.read_text())["digests"] if path.exists() else {}


def check_pass(workload: str, report: dict, digests: dict) -> tuple[int, list[str]]:
    """Check every call of a pass; return (work units of correct calls, errors)."""
    units = 0
    errors = []
    names = [name for name, _, _ in report["calls"]]
    if names != list(workloads.CALLS[workload]):
        errors.append(f"pass ran calls {names}")
    for name, rc, stdout in report["calls"]:
        why = workloads.check_call(name, rc, stdout, digests.get(workload, {}).get(name))
        if why is None:
            units += workloads.work_units(name, stdout)
        else:
            errors.append(f"{name}: {why}")
    return units, errors


def layer_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced pass, with the ratios that need outputs.

    Times are rescaled by the pass's median reference loop time.
    """
    out = spans.layer_metrics(report["spans"])
    for key in out:
        if unit_of(key) == "s":
            out[key] = reference.rescale(out[key], report["ref_s"])
    out["host.ref_s"] = report["ref_s"]
    calls = report["calls"]
    out["seeds.new_cluster_ratio"] = spans.ratio(
        sum(workloads.new_clusters(n, s) for n, _, s in calls),
        out["seeds.seed_mutate.calls"],
    )
    out["graphs.new_node_ratio"] = spans.ratio(
        sum(workloads.class_nodes(n, s) for n, _, s in calls),
        out["graphs.canonical_key.calls"],
    )
    return out


def unit_of(metric: str) -> str:
    metric = metric.removeprefix("raw_")
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(_COUNT_SUFFIXES):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_loc": loc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CALLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    if not (SRC / "clusterforge" / "cli.py").is_file():
        print(f"error: no clusterforge sources under {SRC}", file=sys.stderr)
        return 2
    digests = load_digests()
    n_calls = len(workloads.CALLS[args.workload])
    attempted = failed = 0
    plain: list[dict] = []
    traced: list[dict] = []

    def attempt(trace: bool, setup_only: bool = False) -> dict | None:
        nonlocal attempted, failed
        try:
            report = run_pass(args.workload, args.seed, trace, setup_only,
                              timeout=deadline - time.perf_counter())
        except PassFailed as exc:
            print(f"FAIL {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            if not setup_only:
                attempted += n_calls
                failed += n_calls
            return None
        if setup_only:
            return report
        units, errors = check_pass(args.workload, report, digests)
        attempted += n_calls
        failed += min(len(errors), n_calls)
        for why in errors:
            print(f"FAIL {args.workload} seed {args.seed}: {why}", file=sys.stderr)
        report["throughput"] = units / report["wall_s"]
        report["raw_throughput"] = units / report["raw_wall_s"]
        return report

    if attempt(False, setup_only=True) is None:
        return 2
    extra_setups = 0 if args.trace else SETUP_PASSES
    setups = [r["setup_s"] for r in (attempt(False, setup_only=True)
                                     for _ in range(extra_setups)) if r is not None]
    measure_start = time.perf_counter()
    durations: list[float] = []
    while True:
        if args.trace:
            enough = min(len(plain), len(traced)) >= 2
            trace_next = len(traced) <= len(plain)
        else:
            enough = len(plain) >= MIN_PASSES
            trace_next = False
        now = time.perf_counter()
        # Stop at the pass boundary nearest to --seconds, so a run lasts
        # about --seconds whatever the pass length.
        typical = statistics.median(durations) if durations else 0.0
        if enough and now - measure_start + typical / 2 >= args.seconds:
            break
        if durations and now + 1.5 * max(durations) > deadline:
            break
        report = attempt(trace_next)
        durations.append(time.perf_counter() - now)
        if report is not None:
            (traced if trace_next else plain).append(report)
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 2

    counts_repeat = True
    if args.trace:
        per_pass = [layer_metrics(r) for r in traced]
        for key in per_pass[0]:
            if key.endswith(_COUNT_SUFFIXES) and len({m[key] for m in per_pass}) > 1:
                print(f"FAIL {args.workload} seed {args.seed}: {key} differs between "
                      f"traced passes: {[m[key] for m in per_pass]}", file=sys.stderr)
                counts_repeat = False
        values = spans.median_metrics(per_pass, _COUNT_SUFFIXES)
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
        )
        counts = f"{len(traced)} traced and {len(plain)} untraced passes"
    else:
        values = {k: statistics.median(r[k] for r in plain) for k in END_TO_END_UNITS}
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])
        raw = {k: statistics.median(r[k] for r in plain) for k in RAW}
        counts = f"{len(plain)} passes"

    print(f"workload {args.workload}, seed {args.seed}, {counts} "
          f"(medians), after {1 + len(setups)} set-up-only passes (the first discarded)")
    print("meta " + json.dumps(metadata(), sort_keys=True))
    for key, value in values.items():
        line = f"  {key:<44} {value:>14.6g} {unit_of(key)}"
        if not args.trace:
            line += "  (passes: " + " ".join(f"{r[key]:.4g}" for r in plain) + ")"
        print(line)
    if not args.trace:
        for key, value in raw.items():
            print(f"  {key:<44} {value:>14.6g} {unit_of(key)}  (not rescaled; passes: "
                  + " ".join(f"{r[key]:.4g}" for r in plain) + ")")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} calls failed)")
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
