"""The automorphism-orbit class count that ``tau_sweep`` replaced by the
paper's criterion (owners classed by their isomorphism type), kept only as
a test oracle.

``orbit_tau_sweep`` closes the extended co-cyclic family (every co-cyclic
subgroup and G itself) under the Aut(G) generators with
``subgroup_orbits`` and counts the orbits.
"""

from abelian_codes import Subgroup, cocyclic_subgroups, subgroup_orbits
from abelian_codes.finite_field import divisor_count
from abelian_codes.abelian_group import _check_char


def orbit_tau_sweep(groups, ctx):
    """tau_sweep's rows, with the class count taken as the number of
    automorphism orbits on the extended co-cyclic family."""
    rows = []
    for group in groups:
        _check_char(group, ctx)
        members = cocyclic_subgroups(group) + [Subgroup.whole(group)]
        count = len(subgroup_orbits(group, members))
        tau = divisor_count(group.exponent)
        rows.append({
            "group": group.spec_string(),
            "class_count": count,
            "tau": tau,
            "homocyclic": len(set(group.divisors)) <= 1,
            "match": count == tau,
        })
    return rows
