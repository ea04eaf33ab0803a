"""One benchmark pass in a fresh interpreter.

Usage: child.py WORKLOAD SEED TRACE SETUP_ONLY

Times ``import clusterforge`` plus input generation (set-up), then runs the
workload's CLI calls one after another through ``clusterforge.cli.main``
with stdout captured, and writes one JSON object to stdout: the timings,
the peak RSS, each call's exit code and stdout and, when TRACE is 1, the
spans.  The reference loop (reference.py) runs once after set-up and once
after each call, and a slice of it every half second during a call; each
time is reported raw and rescaled by the mean of the loop times around and
during it (set-up by the loop after it).  The calls run from
this single thread as a closed loop with one client; nothing else runs in
the process.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import spans
import workloads

t_start = time.perf_counter()
from clusterforge import cli  # noqa: E402  (the import is part of set-up time)


def main() -> int:
    workload, seed, trace, setup_only = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    expected_src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(cli.__file__).startswith(expected_src + os.sep):
        print(f"clusterforge was imported from {cli.__file__}, not {expected_src}",
              file=sys.stderr)
        return 2
    recorded = spans.install() if trace == "1" else None
    calls = workloads.make_calls(workload, seed)
    setup_s = time.perf_counter() - t_start
    import reference  # after set-up, which times the program alone

    reference.timed()  # warm-up: the first loop in a process runs slower
    refs = [reference.timed()]
    results = []
    wall_s = cpu_s = rescaled_wall_s = rescaled_cpu_s = 0.0
    if setup_only == "0":
        for name, argv in calls:
            buf = io.StringIO()
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), reference.Sampler() as sampler:
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
            call_wall = time.perf_counter() - t0 - sampler.paused_wall_s
            call_cpu = time.process_time() - cpu0 - sampler.paused_cpu_s
            before = refs[-1]
            refs.append(reference.timed())
            ref_s = statistics.mean([before, refs[-1]] + sampler.samples)
            wall_s += call_wall
            cpu_s += call_cpu
            rescaled_wall_s += reference.rescale(call_wall, ref_s)
            rescaled_cpu_s += reference.rescale(call_cpu, ref_s)
            results.append([name, rc, buf.getvalue()])
    report = {
        "setup_s": reference.rescale(setup_s, refs[0]),
        "wall_s": rescaled_wall_s,
        "cpu_s": rescaled_cpu_s,
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "raw_cpu_s": cpu_s,
        "ref_s": statistics.median(refs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": results,
        "spans": recorded,
    }
    sys.stdout.write(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
