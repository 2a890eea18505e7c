"""A seeded scan of the domain that ``classify``, ``idempotents`` and
``subgroups`` admit.

It asserts nothing.  It draws argvs, runs each one in this process under a
deadline with its output discarded, and prints one line per argv: the
argv, its exit status (or "deadline", or the name of an exception that
escaped ``cli.run``) and the seconds it ran.  It starts no threads and no
processes; the deadline is a ``signal.setitimer`` alarm.  The process caps
its own address space at ``ADDRESS_SPACE`` bytes (``RLIMIT_AS``), so an
argv whose memory would outgrow the cap ends with ``MemoryError`` instead
of exhausting the machine.

The box, for each argv:
  * the command, ``classify``, ``idempotents`` or ``subgroups``, with
    equal odds;
  * 1 to 3 cyclic factors, each drawn log-uniformly from 2 to 5,000 (the
    CLI normalizes them to invariant factors);
  * the characteristic p, the first prime at or above a number drawn
    log-uniformly from 2 to 2^31 - 1;
  * the degree m, one of 1, 2, 3, 4 and 8, with equal odds;
  * for ``classify``, ``--with-distributions`` or not, with equal odds.

Nothing is redrawn: a group whose order p divides, or one past a bound,
is part of the domain and exits 1.  Run from the repository root:

    PYTHONPATH=src python tests/scan_domain.py --count 40 --seed 0 --deadline 5
"""

import argparse
import math
import os
import random
import resource
import signal
import sys
import time
from contextlib import redirect_stdout

from abelian_codes.cli import run
from abelian_codes.finite_field import is_prime

DEGREES = (1, 2, 3, 4, 8)
LARGEST_FACTOR = 5000
LARGEST_PRIME = 2 ** 31 - 1
# The scan's address space, fixed: one admitted argv, classify 558 over
# GF(8009), once grew to 1.9 GB of RSS in 6 s and 6.3 GB in 20 s on an 8 GB
# machine, while the largest finished run seen, classify 251 over GF(101),
# peaks at 417 MB.  2 GiB stops such a growth well before the machine runs
# out and is still about five times that finished run's peak.
ADDRESS_SPACE = 2 * 2 ** 30


class Deadline(BaseException):
    """Raised by the alarm; a BaseException, so no handler of the program
    catches it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _log_uniform(rng, low, high):
    return min(high, max(low, round(math.exp(rng.uniform(math.log(low), math.log(high))))))


def _prime_at_or_above(n):
    while not is_prime(n):
        n += 1
    return n


def draw(rng):
    """One argv from the box of the module docstring."""
    command = rng.choice(("classify", "idempotents", "subgroups"))
    factors = [_log_uniform(rng, 2, LARGEST_FACTOR) for _ in range(rng.randint(1, 3))]
    p = _prime_at_or_above(_log_uniform(rng, 2, LARGEST_PRIME))
    m = rng.choice(DEGREES)
    argv = [command, "--group", ",".join(map(str, factors)),
            "--field", str(p) if m == 1 else "%d^%d" % (p, m), "--format", "json"]
    if command == "classify" and rng.random() < 0.5:
        argv.append("--with-distributions")
    return argv


def scan_one(argv, deadline, sink):
    """(outcome, seconds) of one in-process run of argv."""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        with redirect_stdout(sink):
            outcome = run(argv)
    except Deadline:
        outcome = "deadline"
    except SystemExit as exc:
        outcome = exc.code
    except Exception as exc:
        outcome = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=40, help="argvs to draw (default 40)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    parser.add_argument("--deadline", type=float, default=5.0,
                        help="seconds each argv may run (default 5)")
    args = parser.parse_args(argv)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    rng = random.Random(args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(os.devnull, "w") as sink:
        for _ in range(args.count):
            job = draw(rng)
            outcome, seconds = scan_one(job, args.deadline, sink)
            print("%s\t%s\t%.3f" % (" ".join(job), outcome, seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
