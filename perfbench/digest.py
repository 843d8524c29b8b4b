"""Write anew the sha256 of every operation's stdout, for the digest report of each run.

    python3 perfbench/digest.py

Runs one round of every workload for each seed of SEEDS, untimed, and replaces
digests.json in this directory.  Digests are keyed by the operation and its
input, so a benchmark run checks each operation whose input was digested
and counts the others as unknown.  A run reports how many outputs differ
from the stored digests; it does not count them as failures.  After a
change that truly corrects an output, regenerate the file with this command.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

HELD_OUT_SEED = 7919
SEEDS = (0, 1, 2, HELD_OUT_SEED)


def main():
    if run.load_program() is None:
        return 2
    from workloads import SETUPS

    digests = {}
    workdir = run.ROOT / ".bench_work" / f"digest-{os.getpid()}"
    try:
        for seed in SEEDS:
            for workload in run.WORKLOADS:
                shutil.rmtree(workdir, ignore_errors=True)
                ops = SETUPS[workload](seed, str(workdir))
                for o in run.run_round(ops):
                    digests[run.digest_key(workload, o.op)] = run.digest_value(o)
            print(f"seed {seed}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
