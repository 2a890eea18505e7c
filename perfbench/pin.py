"""Record the expected output of every job a seed can draw.

    python3 perfbench/pin.py [WORKLOAD...]

Runs each canonical job once and stores its exit status and stdout sha256
in ``pins.json``, keyed by job.  With workload names, only the jobs of
those workloads are pinned again, so a deliberate change of one job's
output re-pins that job alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import jobs as joblists


def pin_job(argv, env):
    _, _, code, out, _, err = run.spawn(
        [sys.executable, "-m", "abelian_codes"] + argv, env)
    if code is None:
        raise RuntimeError("timed out: %s" % " ".join(argv))
    return {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}


def main(workloads):
    unknown = set(workloads) - set(joblists.WORKLOADS)
    if unknown:
        sys.stderr.write("unknown workloads: %s\n" % ", ".join(sorted(unknown)))
        return 2
    path = os.path.join(run.BENCH, "pins.json")
    pins = run.load_pins() if os.path.exists(path) else {}
    os.makedirs(run.OUT, exist_ok=True)
    env = run.child_env()
    for key, (workload, argv) in sorted(joblists.all_pin_keys().items()):
        if workloads and workload not in workloads:
            continue
        pins[key] = pin_job(argv, env)
        print("%-40s exit %d  %s" % (key, pins[key]["exit"], pins[key]["sha256"]))
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
