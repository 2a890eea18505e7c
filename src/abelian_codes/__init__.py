"""Semisimple abelian group algebras, their primitive idempotents and the
classification of minimal codes up to group-automorphism equivalence.

Names load on first use (PEP 562): ``import abelian_codes`` compiles no
submodule, and ``abelian_codes.field_make`` imports only the modules that
``finite_field`` needs.  The names of the reference layer have the home
``reference``, which no engine module imports.
"""

from importlib import import_module

_HOMES = {
    "errors": (
        "AlgebraMismatch", "BadDivisor", "CharDividesOrder", "DegreeMismatch",
        "DegreeTooLarge", "DimensionTooLarge", "DomainError", "GroupMismatch",
        "GroupTooLarge", "HypothesisFails", "NoRootsOfUnity", "NoUniqueSubgroup",
        "NonPrimeP", "NotASubgroup", "NotCocyclic", "NotCoprime", "NotIdempotent",
    ),
    "finite_field": (
        "FieldCtx", "divisor_count", "euler_phi", "field_make", "mul_order",
    ),
    "abelian_group": (
        "AbelianGroup", "abelian_groups_of_order", "group_make", "owner_type", "tau_sweep",
    ),
    "group_algebra": (
        "GroupAlgebra", "PrimitiveIdempotent", "Subgroup",
        "element_of_order", "get_algebra", "primitive_idempotents", "splitting_field",
    ),
    "codes": (
        "ClassificationReport", "MinimalCode", "WeightDistribution", "classify",
        "min_weight_or_bound", "minimal_code", "weight_distribution",
    ),
    "reference": (
        "AlgebraElement", "Automorphism", "Character", "GroupElement", "all_subgroups",
        "annihilator", "apply_automorphism", "aut_generators", "automorphisms",
        "characters", "cocyclic_idempotent", "cocyclic_idempotent_family",
        "cocyclic_subgroups", "cyclic_subgroups", "equivalent", "hat",
        "homocyclic_factorization", "idempotent_group", "phi_subgroup", "quotient_type",
        "subgroup_orbits", "sylow_decompose", "verify_tables",
    ),
}

# exported name -> home submodule; a submodule name is its own home
_HOME = {name: home for home, names in _HOMES.items() for name in (home, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = import_module("." + home, __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
