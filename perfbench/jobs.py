"""Workloads of the benchmark and the job lists a seed draws from them.

A workload is a list of slots.  Each slot is one CLI job at the default
seed (seed 0).  Any other seed draws, for every slot, another spelling of
the same job from the slot's family and shuffles the slot order:

* the group is written as another presentation of the same abstract group
  (its elementary divisors regrouped into coprime factors and reordered,
  e.g. ``15,15`` -> ``5,3,15``), which the CLI normalises;
* a prime field may be written ``p`` or ``p^1``;
* the options after the subcommand come in another order;
* a ``sweep`` slot also draws its field from GF(2), GF(4) and GF(8); the
  sweep depends only on the characteristic, so the work is the same and
  only the echoed field differs.

Every family member therefore does the same arithmetic as its slot's
default job, which keeps pass times comparable across seeds, while the
program still receives inputs that no one tuned a change against.  Each
job carries the key of its expected output in ``pins.json``.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# (command, group, field, with_distributions); group None for sweep.
WORKLOADS = {
    "classify": [
        ("classify", "15,15", "2", False),
        ("classify", "81,3", "2", False),
        ("classify", "5,5,5", "2", False),
        ("classify", "13,13", "3", False),
    ],
    "weights": [
        ("classify", "25,5", "2", True),
        ("classify", "27,3", "2", True),
        ("classify", "23", "3", True),
    ],
    "extension": [
        ("classify", "11,11", "2^2", True),
        ("classify", "9,9", "2^2", True),
        ("classify", "21,3", "2^2", True),
        ("classify", "7,7", "2^3", True),
        ("classify", "13", "3^2", True),
    ],
    "sweep": [
        ("sweep", None, "2", False),
    ],
}

SWEEP_MAX_ORDER = 243
SWEEP_FIELDS = ("2", "2^2", "2^3")

class Job:
    """One CLI invocation and the key of its pinned output."""

    def __init__(self, slot, argv, pin_key, field, group):
        self.slot = slot
        self.argv = argv
        self.pin_key = pin_key
        self.field = field
        self.group = group

    def __eq__(self, other):
        return isinstance(other, Job) and self.argv == other.argv

    def __repr__(self):
        return "Job(%s)" % " ".join(self.argv)


def pin_key(command, group, field, with_distributions):
    """Key of a job's expected output: the canonical job of its slot."""
    parts = [command]
    if group is not None:
        parts.append(group)
    else:
        parts.append("max-order=%d" % SWEEP_MAX_ORDER)
    parts.append("GF(%s)" % field)
    if with_distributions:
        parts.append("dist")
    return " ".join(parts)


# The runner treats the program as a black box and does not import it, so
# it factors divisor lists itself.
def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _elementary_divisors(group):
    """Prime powers of a comma-separated divisor list, grouped by prime."""
    per_prime = {}
    for d in (int(x) for x in group.split(",")):
        for p, e in _factorize(d).items():
            per_prime.setdefault(p, []).append(p ** e)
    return per_prime


def _presentation(group, rng):
    """Another divisor list for the same abstract group.

    Each factor takes at most one prime power per prime, so the factors
    stay cyclic and the group does not change.
    """
    per_prime = _elementary_divisors(group)
    total = sum(len(v) for v in per_prime.values())
    widest = max(len(v) for v in per_prime.values())
    bins = [1] * rng.randint(widest, total)
    for p in sorted(per_prime):
        for b, q in zip(rng.sample(range(len(bins)), len(per_prime[p])),
                        per_prime[p]):
            bins[b] *= q
    factors = [b for b in bins if b > 1]
    rng.shuffle(factors)
    return ",".join(str(f) for f in factors)


def _options(command, group, field, with_distributions):
    pairs = []
    if group is not None:
        pairs.append(["--group", group])
    pairs.append(["--field", field])
    if command == "sweep":
        pairs.append(["--max-order", str(SWEEP_MAX_ORDER)])
    pairs.append(["--format", "json"])
    if with_distributions:
        pairs.append(["--with-distributions"])
    return pairs


def _argv(command, pairs):
    return [command] + [a for pair in pairs for a in pair]


def _default_jobs(workload):
    jobs = []
    for i, (command, group, field, dist) in enumerate(WORKLOADS[workload]):
        argv = _argv(command, _options(command, group, field, dist))
        jobs.append(Job(i, argv, pin_key(command, group, field, dist),
                        field, group))
    return jobs


def _drawn_jobs(workload, rng):
    jobs = []
    for i, (command, group, field, dist) in enumerate(WORKLOADS[workload]):
        if command == "sweep":
            field = rng.choice(SWEEP_FIELDS)
        spelled_field = field
        if "^" not in field and rng.random() < 0.5:
            spelled_field = field + "^1"
        spelled_group = None if group is None else _presentation(group, rng)
        pairs = _options(command, spelled_group, spelled_field, dist)
        rng.shuffle(pairs)
        jobs.append(Job(i, _argv(command, pairs),
                        pin_key(command, group, field, dist),
                        spelled_field, spelled_group))
    rng.shuffle(jobs)
    return jobs


def job_list(workload, seed):
    """The jobs of one pass: the default list for seed 0, else a draw that
    differs from it and has the same slots."""
    default = _default_jobs(workload)
    if seed == DEFAULT_SEED:
        return default
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        jobs = _drawn_jobs(workload, rng)
        if jobs != default:
            return jobs


def all_pin_keys():
    """Every pin key any seed can draw, with the canonical argv of each."""
    out = {}
    for workload, slots in WORKLOADS.items():
        for command, group, field, dist in slots:
            fields = SWEEP_FIELDS if command == "sweep" else (field,)
            for f in fields:
                out[pin_key(command, group, f, dist)] = (
                    workload, _argv(command, _options(command, group, f, dist)))
    return out
