"""The sweep path that ``finite_field.group_types`` and ``sweep_row``
replaced, kept only as a test oracle.

The sweep built one ``AbelianGroup`` per type of each order n coprime to
q (``abelian_groups_of_order``: the Sylow partitions of n, largest part
first, combined into invariant factors and sorted by them, each group
carrying the primes of n), then one ``tau_sweep`` dict per group, whose
class count trial-divides every invariant factor by every prime of n,
then a re-keyed copy of each dict.  It wrote the rows through the CLI's
generic JSON writer or ``cli_extra.table``.
"""

import itertools
from math import gcd, prod

from abelian_codes.abelian_group import AbelianGroup, _check_char
from abelian_codes.cli import _json_pieces
from abelian_codes.cli_extra import table
from abelian_codes.finite_field import factorize

HEADERS = ["group", "class_count", "tau", "homocyclic", "thm56_match"]


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def abelian_groups_of_order(n):
    factors = factorize(n)
    primes = tuple(factors)
    groups = []
    for combo in itertools.product(*map(_partitions, factors.values())):
        powers = [[p ** k for k in part] for p, part in zip(primes, combo)]
        G = AbelianGroup(tuple(map(prod, itertools.zip_longest(*powers, fillvalue=1)))[::-1])
        G._primes = primes
        groups.append(G)
    return sorted(groups, key=lambda G: G.divisors)


def tau_sweep(groups, ctx):
    rows = []
    for group in groups:
        _check_char(group, ctx)
        count = tau = 1
        for p in group.primes:
            low = 0
            for d in group.divisors:
                e = 0
                while d % p == 0:
                    d, e = d // p, e + 1
                count, low = count * (e - low + 1), e
            tau *= low + 1
        rows.append({
            "group": group.spec_string(),
            "class_count": count,
            "tau": tau,
            "homocyclic": len(set(group.divisors)) <= 1,
            "match": count == tau,
        })
    return rows


def sweep_rows(ctx, max_order):
    """(order, row) of every sweep row up to max_order over ctx, each row
    the re-keyed ``tau_sweep`` dict."""
    out = []
    for n in range(1, max_order + 1):
        if gcd(n, ctx.order) == 1:
            for r in tau_sweep(abelian_groups_of_order(n), ctx):
                out.append((n, {"group": r["group"], "class_count": r["class_count"],
                                "tau": r["tau"], "homocyclic": r["homocyclic"],
                                "thm56_match": r["match"]}))
    return out


def render(ctx, max_order, rows, fmt):
    """The sweep's stdout from its rows, as the generic writers printed it."""
    data = {"field": ctx.spec_string(), "max_order": max_order, "rows": rows}
    if fmt == "json":
        return "".join(_json_pieces(data))
    return "".join(table(data, fmt, "rows", HEADERS,
                         "field: GF({field})  max order: {max_order}\n\n"))
