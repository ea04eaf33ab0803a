"""Record the stdout digest of every call into bench/digests.json.

Usage: python3 bench/record_digests.py [SEED ...]   (default seeds: 0 1)

Runs one untraced pass per workload and seed, requires every invariant
check to pass and each call's stdout to be identical across the seeds,
then writes one digest per call.  Re-record only when a change is meant
to alter CLI stdout.
"""

import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0, 1]
    digests: dict = {}
    for workload in workloads.CALLS:
        for seed in seeds:
            report = run.run_pass(workload, seed, trace=False)
            _, errors = run.check_pass(workload, report, {})
            if errors:
                print(f"{workload} seed {seed}: {errors}", file=sys.stderr)
                return 1
            for name, _, stdout in report["calls"]:
                d = workloads.digest(stdout)
                if digests.setdefault(workload, {}).setdefault(name, d) != d:
                    print(f"{workload} {name}: stdout differs between seeds", file=sys.stderr)
                    return 1
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps({"seeds": seeds, "digests": digests}, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
