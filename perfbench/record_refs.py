"""Record reference output digests for the benchmark's workloads.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_refs.py --size full --seeds 0 1 2 42

Each workload runs once per seed; its digest is stored in
references.json only when the run passed every invariant check.  A
change that alters simulation results on purpose re-records with this
script and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    run.use_checkout_src(os.getcwd())
    import workloads

    with open(run.DEFAULT_REFS) as fh:
        refs = json.load(fh)
    work_dir = os.path.join(os.getcwd(), run.OUT_DIR, f"work-{os.getpid()}")
    status = 0
    try:
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                rep = run.one_rep(workloads, name, seed, args.size, work_dir, None)
                if rep.failed or not rep.digest:
                    print(f"{name} seed {seed}: NOT recorded: {rep.problems}", file=sys.stderr)
                    status = 1
                    continue
                refs.setdefault(args.size, {}).setdefault(name, {})[str(seed)] = rep.digest
                print(f"{name} seed {seed}: {rep.digest}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(run.DEFAULT_REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
