"""Command-line front end.

Commands: subgroups, idempotents, classify, sweep, verify.  Groups are
given as comma-separated divisor lists (``9,3``), fields as ``p`` or
``p^m`` (``2``, ``2^6``).  Output is deterministic: identical invocations
produce byte-identical output.  Exit status: 0 success, 1 domain error
(with a machine-readable error record), 2 usage error.

Each command loads its layers when it runs.  At start-up this module
loads only ``finite_field``, ``abelian_group`` and ``errors``, which is
all that ``sweep`` needs: number theory, the prime field and group types.
A field GF(p^m) with m > 1 loads ``extension_field`` as it is built, and
``odd_field`` as well when p is odd.  ``classify`` imports ``codes`` (and
with it ``group_algebra``, home of the subgroup and splitting-field
layers) in ``_classify_dict``, and ``codes`` imports ``basis`` only for a
code that takes the coset walk or the two-vector bound.  The
argparse reader, the data of ``idempotents``, ``subgroups`` and
``verify`` and the CSV and Markdown renderers are in ``cli_extra``, which
loads on the first call of one of them; ``idempotents`` imports
``group_algebra`` there, and ``subgroups`` and ``verify`` the reference
layer (``reference``).  So a ``sweep`` in any format compiles neither
``codes`` nor ``group_algebra`` (nor, over a prime field,
``extension_field``), and a canonical ``--format json`` run of
``classify`` compiles neither ``cli_extra`` nor ``reference``.

The arguments are read from two tables, ``_COMMANDS`` and ``_OPTIONS``,
by the rules of argparse.  A canonical argv (the command, then its
options each spelled in full, each valued one followed by a value that
does not start with "-") is read without loading argparse; any other
argv (help, an abbreviated option, ``--opt=value``, a usage error) is
read by argparse itself, from the same tables.
"""

import atexit
import os
import sys
from itertools import chain
from math import gcd
from types import GeneratorType

from .abelian_group import abelian_groups_of_order, group_make, tau_sweep
from .errors import DomainError, GroupTooLarge
from .finite_field import field_make


def _parse_group(spec):
    try:
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        divisors = [int(p) for p in parts]
    except ValueError:
        raise ValueError("group spec must be comma-separated integers")
    divisors = [d for d in divisors if d != 1]
    return group_make(divisors)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise ValueError("expected an integer, got %r" % text)
    if value < 1:
        raise ValueError("must be at least 1, got %d" % value)
    return value


def _parse_field(spec):
    try:
        if "^" in spec:
            p_str, m_str = spec.split("^", 1)
            return field_make(int(p_str), int(m_str))
        return field_make(int(spec))
    except ValueError:
        raise ValueError("field spec must be p or p^m")


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def _json(obj, indent="\n"):
    """json.dumps(obj, indent=2) of a value that starts at the given indent
    (a newline and its spaces), for dict keys that are strings.  A list of
    ints, or of nonempty lists of ints, is cut from its repr.  A float, or a
    string with a character that JSON escapes, is left to ``json.dumps``."""
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str) and obj.isascii() and obj.isprintable() \
            and '"' not in obj and "\\" not in obj:
        return '"' + obj + '"'
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (_json(k) + ": " + _json(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {int}:
            return "[" + inner + repr(list(obj))[1:-1].replace(", ", "," + inner) + indent + "]"
        if types == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            inner2 = inner + "  "
            body = repr(list(obj))[2:-2].replace("], [", "\0").replace(", ", "," + inner2)
            return "[" + inner + "[" + inner2 + body.replace(
                "\0", inner + "]," + inner + "[" + inner2) + inner + "]" + indent + "]"
        return "[" + inner + ("," + inner).join(_json(x, inner) for x in obj) + indent + "]"
    import json

    return json.dumps(obj)


def _json_pieces(data):
    """The text of json.dumps(data, indent=2) plus a newline, for a dict
    data, in pieces: each element of a list or generator at its top level
    is one piece, so a generator is rendered one element at a time."""
    head = "{"
    for key, value in data.items():
        if isinstance(value, (list, GeneratorType)):
            yield head + "\n  " + _json(key) + ": ["
            sep = "\n    "
            for item in value:
                yield sep + _json(item, "\n    ")
                sep = ",\n    "
            yield "]" if sep == "\n    " else "\n  ]"
        else:
            yield head + "\n  " + _json(key) + ": " + _json(value, "\n  ")
        head = ","
    yield "\n}\n" if data else "{}\n"


# sweep --max-order above this is refused before any group is built: on a
# 2-vCPU VM the sweep takes 1.4-2.2 s and 71 MB at 10^5, about 1.2 s of it
# building the groups and 0.3 s counting their classes, and grows linearly
_SWEEP_ORDER_BOUND = 100_000


def _sweep_dict(args):
    ctx, max_order = args["field"], args["max-order"]
    if max_order > _SWEEP_ORDER_BOUND:
        raise GroupTooLarge("sweep bounded", max_order=max_order, bound=_SWEEP_ORDER_BOUND)
    groups = [G for n in range(1, max_order + 1) if gcd(n, ctx.order) == 1
              for G in abelian_groups_of_order(n)]
    rows = [{"group": r["group"], "class_count": r["class_count"], "tau": r["tau"],
             "homocyclic": r["homocyclic"], "thm56_match": r["match"]}
            for r in tau_sweep(groups, ctx)]
    return {"field": ctx.spec_string(), "max_order": max_order, "rows": rows}


def _classify_dict(args):
    from .codes import classify

    return classify(args["group"], args["field"],
                    with_distributions=args["with-distributions"]).to_dict()


def _extra(name):
    """The function name of ``cli_extra``, which loads that module on its
    first call."""
    def call(*args):
        from . import cli_extra

        return getattr(cli_extra, name)(*args)
    return call


def _render(text, *spec):
    """A renderer: the data as JSON, or as CSV or Markdown by the function
    text of ``cli_extra``, called with the data, the format and spec."""
    def render(data, fmt):
        if fmt == "json":
            return _json_pieces(data)
        return _extra(text)(data, fmt, *spec)
    return render


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# option -> the keyword arguments of its argparse add_argument, which the
# fast reader reads too: type, choices, action and required
_OPTIONS = {
    "--group": {"type": _parse_group, "required": True,
                "help": "comma-separated divisor list, e.g. 9,3"},
    "--field": {"type": _parse_field, "required": True,
                "help": "field spec: p or p^m, e.g. 2 or 2^6"},
    "--format": {"choices": ("json", "csv", "md"), "default": "md",
                 "help": "output format (default md)"},
    "--with-distributions": {"action": "store_true",
                             "help": "print each code's weight distribution"},
    "--max-order": {"type": _positive_int, "default": 81,
                    "help": "largest group order swept (default 81)"},
}
_ALGEBRA = ("--group", "--field", "--format")

# command -> (help, its options, the data of its arguments, the renderer of
# that data)
_COMMANDS = {
    "subgroups": ("list the subgroup lattice", _ALGEBRA, _extra("subgroups_dict"), _render(
        "table", "subgroups", ["generators", "order", "quotient", "cocyclic"],
        "group: {group}  ({count} subgroups)\n\n")),
    "idempotents": ("dump the primitive idempotents", _ALGEBRA, _extra("idempotents_dict"),
                    _render("table", "idempotents",
                            ["orbit_rep", "phi_subgroup", "support_size", "coeffs"],
                            "group: {group}  field: GF({field})\n\n")),
    "classify": ("classify the minimal codes", _ALGEBRA + ("--with-distributions",),
                 _classify_dict, _render("classification")),
    "sweep": ("class count vs tau(exponent) over all small groups",
              ("--field", "--format", "--max-order"), _sweep_dict, _render(
                  "table", "rows", ["group", "class_count", "tau", "homocyclic", "thm56_match"],
                  "field: GF({field})  max order: {max_order}\n\n")),
    "verify": ("check the built-in reference tables", _ALGEBRA, _extra("verify_dict"), _render(
        "table", "rows", ["label", "check", "expected", "actual", "pass"],
        "group: {group}  field: GF({field})  table: {table}\nall rows pass: {all_pass}\n\n")),
}

# what argparse reads from an argv that is not canonical: it prints the help
# and exits 0, or exits 2 with the usage on a usage error
_argparse_parse = _extra("argparse_parse")


def _parse(argv):
    """(command, {option without its dashes: value}) from argv.  A canonical
    argv, the command and then its options, each spelled in full and each
    valued one followed by a value that does not start with "-" (one of its
    choices, if it has them), is read here; any other argv, or one with a
    value its converter refuses, is read by argparse.  A domain error raised while a value is converted
    (e.g. a non-prime characteristic) propagates."""
    if not argv or argv[0] not in _COMMANDS:
        return _argparse_parse(argv)
    options, given, tokens = _COMMANDS[argv[0]][1], [], iter(argv[1:])
    for name in tokens:
        if name not in options:
            return _argparse_parse(argv)
        spec = _OPTIONS[name]
        if "action" in spec:
            given.append((name, True))
            continue
        text = next(tokens, "-")
        if text.startswith("-") or text not in spec.get("choices", (text,)):
            return _argparse_parse(argv)
        given.append((name, text))
    if not {name for name in options if _OPTIONS[name].get("required")} <= dict(given).keys():
        return _argparse_parse(argv)
    # each option at its default (a flag's is False), then at its values
    values = {name[2:]: _OPTIONS[name].get("default", False) for name in options}
    try:
        for name, text in given:  # in argv order, every occurrence, as argparse converts
            convert = _OPTIONS[name].get("type")
            values[name[2:]] = convert(text) if convert else text
    except ValueError:
        return _argparse_parse(argv)
    return argv[0], values


def run(argv):
    """Run one command; the exit status is 0, or 1 on a domain error or on
    a verify table with a failing row."""
    try:
        command, args = _parse(argv)
        _, _, build, render = _COMMANDS[command]
        data = build(args)
        # whole pieces in batches: an unbuffered stdout makes each write a system call
        batch, size = [], 0
        for piece in render(data, args["format"]):
            batch.append(piece)
            size += len(piece)
            if size >= 1 << 16:
                sys.stdout.write("".join(batch))
                batch, size = [], 0
        sys.stdout.write("".join(batch))
        return 0 if data.get("all_pass", True) else 1
    except DomainError as exc:
        sys.stdout.write("".join(_json_pieces(exc.record())))
        return 1


def _closed_pipe():
    """Status 1 for a run whose reader closed stdout (``| head``): what is
    left of the output goes to os.devnull, so that no later flush fails
    again (the recipe of Python's note on SIGPIPE)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


def main():
    """Run the command of sys.argv and exit with its status.  A run that
    returns ends as the interpreter would, running the atexit handlers and
    then flushing stdout and stderr, but leaves through os._exit: module
    teardown and the final collection (about 10 ms a process on a 2-vCPU
    VM) are skipped.
    A run that raises, a flush that fails (the interpreter's exit then
    reports it), and a run under a profiler, a tracer or ``-i`` end
    through the interpreter's own exit.  A closed stdout pipe, met by a
    write of the run or by the flush, ends with status 1 and no
    traceback."""
    try:
        status = run(sys.argv[1:])
    except BrokenPipeError:
        status = _closed_pipe()
    else:
        fast = sys.getprofile() is None and sys.gettrace() is None and not sys.flags.inspect
        if fast:
            atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when its descriptor was closed at start
                    stream.flush()
        except BrokenPipeError:
            status = _closed_pipe()
        except (OSError, ValueError):
            pass
        else:
            if fast:
                os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    main()
