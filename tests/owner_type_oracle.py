"""The owner-type enumeration that ``tau_sweep`` replaced by its Sylow-type
closed form, kept only as a test oracle.

By the paper's criterion the classes are the isomorphism types of the
owners G/<k> (``owner_type``).  Scaling each k_i by a unit is an
automorphism, so the prod tau(d_i) tuples with each k_i a divisor of d_i
reach every type; ``owner_type_class_count`` counts the distinct ones.
"""

import itertools

from abelian_codes import owner_type
from abelian_codes.finite_field import divisors


def owner_type_class_count(group):
    """The number of distinct types of G/<k>, over one k per unit scaling."""
    reps = itertools.product(*[[c % d for c in divisors(d)] for d in group.divisors])
    return len({owner_type(group, k) for k in reps})
