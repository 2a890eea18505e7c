"""The package namespace loads each submodule on first use, and no
submodule keeps an import or a private definition that nothing uses."""

import ast
import glob
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tokenize
from functools import lru_cache
from importlib import import_module
from math import lcm

import pytest

import abelian_codes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

EXPORTS = [
    "AbelianGroup", "AlgebraElement", "AlgebraMismatch", "Automorphism", "BadDivisor",
    "CharDividesOrder", "Character", "ClassificationReport", "DegreeMismatch",
    "DegreeTooLarge", "DimensionTooLarge", "DomainError", "FieldCtx", "GroupAlgebra",
    "GroupElement", "GroupMismatch", "GroupTooLarge", "HypothesisFails",
    "MinimalCode", "NoRootsOfUnity", "NoUniqueSubgroup", "NonPrimeP", "NotASubgroup",
    "NotCocyclic", "NotCoprime", "NotIdempotent", "PrimitiveIdempotent", "Subgroup",
    "WeightDistribution", "abelian_group",
    "abelian_groups_of_order", "all_subgroups", "annihilator", "apply_automorphism",
    "aut_generators", "automorphisms", "characters", "classify", "cocyclic_idempotent",
    "cocyclic_idempotent_family", "cocyclic_subgroups", "codes", "cyclic_subgroups",
    "divisor_count", "element_of_order", "equivalent", "errors", "euler_phi",
    "field_make", "finite_field", "get_algebra", "group_algebra", "group_make", "hat",
    "homocyclic_factorization", "idempotent_group", "min_weight_or_bound",
    "minimal_code", "mul_order", "owner_type", "phi_subgroup", "primitive_idempotents",
    "quotient_type", "reference", "splitting_field", "subgroup_orbits", "sylow_decompose",
    "tau_sweep", "verify_tables", "weight_distribution",
]
SUBMODULES = {"abelian_group", "codes", "errors", "finite_field", "group_algebra",
              "reference"}


def _loaded_after(statement):
    """The abelian_codes submodules a fresh interpreter holds after running
    the statement."""
    code = (statement + "\nimport sys, json\n"
            "print(json.dumps(sorted(n for n in sys.modules"
            " if n.startswith('abelian_codes.'))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {n.split(".", 1)[1] for n in json.loads(out)}


def test_exports_are_pinned():
    assert abelian_codes.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(abelian_codes))


def test_each_name_is_its_home_object():
    for name in EXPORTS:
        home = import_module("abelian_codes." + abelian_codes._HOME[name])
        value = getattr(abelian_codes, name)
        if name in SUBMODULES:
            assert value is home
        else:
            assert value is getattr(home, name) and value.__module__ == home.__name__


def test_import_loads_no_submodule():
    assert _loaded_after("import abelian_codes") == set()


def test_field_make_loads_only_its_home():
    assert _loaded_after("from abelian_codes import field_make") \
        == {"finite_field", "errors"}


def test_a_prime_field_and_a_group_load_only_their_homes():
    # the set-up of a job over a prime field compiles neither GF(p^m)
    # arithmetic nor the subgroup and splitting-field layers
    statement = ("from abelian_codes import field_make, group_make\n"
                 "field_make(3)\ngroup_make([9, 3])")
    assert _loaded_after(statement) == {"finite_field", "abelian_group", "errors"}


def test_the_tracer_imports_load_every_layer():
    # perfbench/tracer.install wraps its targets in the modules that its
    # imports load: the CLI alone loads neither codes nor group_algebra,
    # but the AlgebraElement hook of group_algebra loads reference, and
    # reference loads basis, which loads codes; odd_field, which holds no
    # traced name, loads later with a field of odd characteristic
    install = ast.parse(inspect.getsource(_perfbench("tracer").install)).body[0]
    imports = [ast.unparse(node) for node in install.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(imports) == 3
    loaded = _loaded_after("\n".join(imports))
    assert loaded >= {"finite_field", "abelian_group", "group_algebra", "codes", "basis"}
    assert "odd_field" not in loaded
    assert not _loaded_after(imports[0]) & {"group_algebra", "codes", "basis"}


def test_cli_loads_no_reference_layer():
    assert "reference" not in _loaded_after("import abelian_codes.cli")


@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_a_markdown_or_csv_sweep_loads_no_algebra(fmt):
    # cli_extra renders these formats and imports group_algebra only for the
    # idempotents data, so the sweep loads neither codes nor the homes of
    # the subgroup and splitting-field layers
    argv = ["sweep", "--field", "2", "--max-order", "20", "--format", fmt]
    statement = ("import contextlib, io\nfrom abelian_codes.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    assert run(%r) == 0" % (argv,))
    loaded = _loaded_after(statement)
    assert "cli_extra" in loaded
    homes = {abelian_codes._HOME[name] for name in ("Subgroup", "splitting_field")}
    assert not loaded & ({"codes"} | homes)


@pytest.mark.parametrize("argv,loads", [
    (["classify", "--group", "9,3", "--field", "2", "--with-distributions"], False),
    (["idempotents", "--group", "9,3", "--field", "2"], False),
    (["sweep", "--field", "2", "--max-order", "20"], False),
    (["subgroups", "--group", "9,3", "--field", "2"], True),
    (["verify", "--group", "9,3", "--field", "2"], True),
])
def test_only_subgroups_and_verify_load_the_reference_layer(argv, loads):
    statement = ("import contextlib, io\nfrom abelian_codes.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    assert run(%r) == 0" % (argv,))
    assert ("reference" in _loaded_after(statement)) == loads


_PARSER_MODULES = ("argparse", "gettext", "locale")


def _stdlib_loaded_after(statement, modules=_PARSER_MODULES):
    code = (statement + "\nimport sys\n"
            "print(' '.join(n for n in %r if n in sys.modules))" % (modules,))
    env = dict(os.environ, PYTHONPATH=SRC)
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def test_cli_loads_no_argument_parser_library():
    # the CLI reads its arguments from its own tables: neither argparse nor
    # the gettext and locale modules it pulls in load beyond a bare start
    runs = "".join("    assert run(%r) == 0\n" % (argv,) for argv in [
        ["classify", "--group", "9,3", "--field", "2", "--with-distributions"],
        ["idempotents", "--group", "9,3", "--field", "2"],
        ["sweep", "--field", "2", "--max-order", "20"],
        # as the benchmark spells its jobs
        ["classify", "--with-distributions", "--field", "2^1", "--group", "9,3",
         "--format", "json"],
        ["sweep", "--max-order", "20", "--field", "3^1", "--format", "json"]])
    statement = ("import contextlib, io\nfrom abelian_codes.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n" + runs)
    assert _stdlib_loaded_after(statement) <= _stdlib_loaded_after("pass")


def test_json_output_loads_no_json_module():
    # the CLI writes JSON with its own writer: a canonical --format json run
    # of each engine command loads no json module
    runs = "".join("    assert run(%r) == 0\n" % (argv + ["--format", "json"],) for argv in [
        ["classify", "--group", "9,3", "--field", "2", "--with-distributions"],
        ["idempotents", "--group", "9,3", "--field", "2^2"],
        ["sweep", "--field", "2", "--max-order", "81"]])
    statement = ("import contextlib, io\nfrom abelian_codes.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n" + runs)
    assert _stdlib_loaded_after(statement, ("json",)) == set()


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported(args):
    """The modules a fresh interpreter started with args imports after it
    starts, as ``-X importtime`` lists them."""
    return set(_imported_once(tuple(args)))


@lru_cache(maxsize=None)
def _imported_once(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, check=True,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True).stderr
    rows = [line.split("|") for line in err.splitlines() if line.startswith("import time:")]
    return frozenset(row[2].strip() for row in rows if row[1].strip().isdigit())


def _benchmark_argvs():
    return [argv for _, argv in _perfbench("jobs").all_pin_keys().values()]


_BASIS_ROUTES = {"walk", "step", "bound"}


def _job_kind(argv):
    """A benchmark job's command, marked by the modules its input adds to
    the command's layers: a sweep over GF(p^m), m > 1, loads the GF(p^m)
    arithmetic; a classify job loads the basis routes when ``codes._route``
    takes one for the order o of some character, and the odd-p arithmetic
    when p is odd and its splitting field is not GF(p)."""
    p, _, m = argv[argv.index("--field") + 1].partition("^")
    p, m = int(p), int(m or 1)
    if argv[0] == "sweep":
        return "sweep" + (" over GF(p^m)" if m > 1 else "")
    from abelian_codes.codes import _route
    from abelian_codes.finite_field import divisors, mul_order

    ctx, q = abelian_codes.field_make(p, m), p ** m
    exponent = lcm(*map(int, argv[argv.index("--group") + 1].split(",")))
    routes = {_route(ctx, o, mul_order(q, o))[0] for o in divisors(exponent)}
    odd = p % 2 and m * mul_order(q, exponent) > 1
    return ("classify" + (" on a basis route" if routes & _BASIS_ROUTES else "")
            + (" over odd p" if odd else ""))


# what a benchmark job of each kind may import: runpy, the CLI and the
# layers the command runs
_CLASSIFY = "import runpy, abelian_codes.cli, abelian_codes.codes"
_COMMAND_IMPORTS = {
    "sweep": "import runpy, abelian_codes.cli",
    "sweep over GF(p^m)": "import runpy, abelian_codes.cli, abelian_codes.extension_field",
    "classify": _CLASSIFY,
    "classify over odd p": _CLASSIFY + ", abelian_codes.odd_field",
    "classify on a basis route": _CLASSIFY + ", abelian_codes.basis",
    "classify on a basis route over odd p":
        _CLASSIFY + ", abelian_codes.basis, abelian_codes.odd_field",
}
_ALGEBRA = {"abelian_codes.codes", "abelian_codes.group_algebra"}
_EXTENSION = "abelian_codes.extension_field"
_BASIS = "abelian_codes.basis"
_ODD = "abelian_codes.odd_field"


def test_a_benchmark_job_imports_nothing_beyond_its_command():
    # a job's command and its exit load no module beyond its command's
    # layers: its start-up cost is the interpreter's, runpy's and those
    # imports alone, and sweep's are runpy's and the CLI's, with the GF(p^m)
    # arithmetic over an extension field; codes loads neither the basis
    # routes nor the odd-p arithmetic
    allowed = {kind: _imported(["-c", statement])
               for kind, statement in _COMMAND_IMPORTS.items()}
    assert {"runpy", "abelian_codes.cli"} <= allowed["sweep"]
    assert not allowed["sweep"] & (_ALGEBRA | {_EXTENSION})
    assert _EXTENSION in allowed["sweep over GF(p^m)"]
    assert not allowed["sweep over GF(p^m)"] & (_ALGEBRA | {_ODD})
    assert _ALGEBRA | {_EXTENSION} <= allowed["classify"]
    assert not allowed["classify"] & {_BASIS, _ODD}
    argvs = _benchmark_argvs()
    assert {_job_kind(argv) for argv in argvs} == set(_COMMAND_IMPORTS)
    for argv in argvs:
        assert _imported(["-m", "abelian_codes"] + argv) <= allowed[_job_kind(argv)], argv


_SKIPPED_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                   tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
# the tokens of the modules a benchmark job of each kind compiles.
# One walk over the cyclic subgroups for the codes and their owners, with
# each dimension read off its idempotent and the linear maps moved to
# reference, took the four classify kinds from 11,356, 12,174, 12,669 and
# 13,487 to 11,241, 12,059, 12,554 and 13,372 (pins of 11,397, 12,215,
# 12,710 and 13,528 lowered to these; the sweep pins of 4,952 and 5,700 to
# their counts, 4,928 and 5,674).
# Building each owner once per cyclic subgroup took the four classify kinds
# from 11,295, 12,113, 12,608 and 13,426 to 11,356, 12,174, 12,669 and
# 13,487 (GroupElement left group_algebra for reference in the same change).
# Every classify job compiled 13,439 before the basis routes and the odd-p
# arithmetic left codes and extension_field; 13,314 was every job's before
# sweep stopped loading codes and group_algebra (15,562 before the argparse
# reader, the idempotents, subgroups and verify data, the CSV and Markdown
# renderers and the dense algebra left the job path).  sweep's were 8,515
# before the GF(p^m) arithmetic and the subgroup and splitting-field layers
# left the modules it loads, and over GF(p^m) 6,465 before the odd-p
# arithmetic left extension_field
_JOB_PATH_TOKENS = {
    "classify": 11_241, "classify over odd p": 12_059,
    "classify on a basis route": 12_554, "classify on a basis route over odd p": 13_372,
    "sweep": 4_928, "sweep over GF(p^m)": 5_674,
}


def _tokens(module):
    """The tokens of a module's source, without whitespace and comments."""
    path = os.path.join(SRC, *module.split(".")) + ".py"
    if not os.path.exists(path):
        path = os.path.join(SRC, *module.split("."), "__init__.py")
    with open(path, "rb") as fh:
        return sum(t.type not in _SKIPPED_TOKENS for t in tokenize.tokenize(fh.readline))


def test_a_benchmark_job_compiles_only_the_job_path():
    # the job loads neither the CLI's rarely used part nor the reference
    # layer; a sweep, at each of the benchmark's fields, loads neither codes
    # nor the subgroup and splitting-field layers of group_algebra, and over
    # GF(2) not the GF(p^m) arithmetic either; a classify job whose codes
    # are all enumerated (span or dual) loads no basis routes, and over
    # p = 2 no odd-p arithmetic; what a job compiles stays within 3% of its
    # kind's pinned count
    jobs = {key: argv for key, (_, argv) in _perfbench("jobs").all_pin_keys().items()}
    assert {argv[argv.index("--field") + 1] for argv in jobs.values() if argv[0] == "sweep"} \
        == {"2", "2^2", "2^3"}
    # the bound of the k = 54 code and the coset walk of C_23
    assert _job_kind(jobs["classify 81,3 GF(2)"]) == "classify on a basis route"
    assert _job_kind(jobs["classify 23 GF(3) dist"]) == "classify on a basis route over odd p"
    for argv in jobs.values():
        loaded = {m for m in _imported(["-m", "abelian_codes"] + argv)
                  if m.split(".")[0] == "abelian_codes"}
        assert "abelian_codes.cli" in loaded, argv
        assert not loaded & {"abelian_codes.cli_extra", "abelian_codes.reference"}, argv
        kind = _job_kind(argv)
        if argv[0] == "sweep":
            assert not loaded & (_ALGEBRA | {_BASIS, _ODD}), argv
            assert (_EXTENSION in loaded) == (kind != "sweep"), argv
        else:
            assert _ALGEBRA <= loaded, argv
            assert (_BASIS in loaded) == ("basis route" in kind), argv
            assert (_ODD in loaded) == ("odd p" in kind), argv
        assert sum(map(_tokens, loaded)) <= _JOB_PATH_TOKENS[kind] * 1.03, argv


def test_old_paths_forward_exactly_the_traced_reference_names():
    # the traced names are the tracer's targets and the two classes that
    # tracer.install imports from the engine modules by name
    reference = import_module("abelian_codes.reference")
    defined = {name for name, value in vars(reference).items()
               if getattr(value, "__module__", None) == reference.__name__}
    traced = {"abelian_group": {"Subgroup"}, "group_algebra": {"AlgebraElement"}}
    for module, attr, _ in _perfbench("tracer").TARGETS:
        traced.setdefault(module, set()).add(attr)
    for module in ("finite_field", "abelian_group", "group_algebra", "codes"):
        home = import_module("abelian_codes." + module)
        moved = traced.get(module, set()) & defined
        assert set(getattr(home, "_TRACED_REFERENCE", ())) == moved
        for name in moved:
            assert getattr(home, name) is getattr(reference, name)
        for name in defined - moved:
            assert not hasattr(home, name), (module, name)
    # codes forwards the one traced name that moved to abelian_group
    codes, abelian_group = (import_module("abelian_codes." + m)
                            for m in ("codes", "abelian_group"))
    assert codes.tau_sweep is abelian_group.tau_sweep
    assert abelian_codes.tau_sweep is abelian_group.tau_sweep
    for name in set(vars(abelian_group)) - set(vars(codes)) | {"no_such_name"}:
        with pytest.raises(AttributeError):
            getattr(codes, name)
    # finite_field and abelian_group forward the traced names that moved to
    # group_algebra, and no other name of it
    group_algebra, finite_field = (import_module("abelian_codes." + m)
                                   for m in ("group_algebra", "finite_field"))
    forwards = {finite_field: {"splitting_field", "element_of_order"},
                abelian_group: {"Subgroup"}}
    for module, names in forwards.items():
        for name in names:
            assert getattr(module, name) is getattr(group_algebra, name)
        for name in set(vars(group_algebra)) - set(vars(module)) | {"no_such_name"}:
            with pytest.raises(AttributeError):
                getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        abelian_codes.no_such_name


def test_star_import():
    namespace = {}
    exec("from abelian_codes import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["field_make"] is abelian_codes.field_make


def _names(node):
    """Every name a node reads, imports or reaches as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope):
    """The names a function or comprehension binds itself: its arguments,
    the names it stores and the functions and classes it defines, without
    those of the scopes nested in it.  An import inside a function is read
    as a module import, which that function's reads then use."""
    out = {a.arg for a in ast.walk(getattr(scope, "args", ast.arguments()))
           if isinstance(a, ast.arg)}
    declared = set()
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return out - declared


def _module_reads(node, shadowed=frozenset()):
    """Every name the node reads from module scope: a read inside a function
    or comprehension that binds the same name, or inside a scope nested in
    one, reads that local."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            out |= _module_reads(child, shadowed | _local_names(child))
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.update({child.id} - shadowed)
        else:
            out |= _module_reads(child, shadowed)
    return out


def test_no_unused_import_or_private_definition():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "abelian_codes", "*.py"))):
        if os.path.basename(path) != "__init__.py":
            with open(path) as fh:
                trees[os.path.basename(path)] = ast.parse(fh.read())
    leftovers = []
    for name, tree in trees.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        read = _module_reads(tree)
        leftovers += ["%s imports %s" % (name, n) for n in sorted(imported - read)]
    # a private top-level function or class counts as used only when some
    # other top-level statement of src/ names it
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") and not stmt.name.startswith("__") \
                    and not any(stmt.name in _names(other)
                                for other in statements if other is not stmt):
                leftovers.append("%s defines unused %s" % (name, stmt.name))
    assert leftovers == []
