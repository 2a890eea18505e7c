"""Speed probe: times a fixed piece of interpreter work every few ms.

``run.py`` starts one on every CPU the jobs may run on.  Every
``PERIOD_S`` it times one ``burst`` and keeps (start, duration).  When
its stdin is closed it prints the samples, one "start duration" pair a
line, and exits.  The bursts take about 2.5% of the CPU.
"""

from __future__ import annotations

import select
import sys
import time

PERIOD_S = 0.02
BURST_ITERATIONS = 1500


def burst():
    """Tuple and dict work, the operations the program spends its time in."""
    seen = {}
    t = (1, 2, 3)
    for i in range(BURST_ITERATIONS):
        t = (t[1], t[2], (t[0] + i) % 97)
        seen[t] = seen.get(t, 0) + 1
    return len(seen)


def main():
    samples = []
    clock = time.perf_counter
    while True:
        start = clock()
        burst()
        samples.append((start, clock() - start))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):
            break
    sys.stdout.write("".join("%.9f %.9f\n" % s for s in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
