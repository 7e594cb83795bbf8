"""Record the sha256 of every output file and of the stdout summary of each
workload at the given seeds into perfbench/golden.json. run.py compares
every repeat at one of these seeds against them, so record them only from
a commit whose outputs are known good.

Usage, from the root of a source checkout:

    python3 perfbench/record_golden.py SEED [SEED ...]
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import GOLDEN, OUT, WORKLOADS, child_env, run_child


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    env = child_env(Path("src").resolve())
    run_dir = OUT / "golden"
    shutil.rmtree(run_dir, ignore_errors=True)
    index = 0
    for seed in seeds:
        for name, wl in WORKLOADS.items():
            child = run_child(wl, seed, run_dir, index, False, False, env, time.monotonic() + 600)
            index += 1
            if not child.ok:
                print(f"{name} seed {seed}: {'; '.join(child.problems)}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = child.hashes
            print(f"{name} seed {seed}: {child.result['run_s']:.1f} s", flush=True)
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
