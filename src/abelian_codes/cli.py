"""Command-line front end.

Commands: subgroups, idempotents, classify, sweep, verify.  Groups are
given as comma-separated divisor lists (``9,3``), fields as ``p`` or
``p^m`` (``2``, ``2^6``).  Output is deterministic: identical invocations
produce byte-identical output.  Exit status: 0 success, 1 domain error
(with a machine-readable error record), 2 usage error.  ``subgroups`` and
``verify`` import the reference layer (``reference``) when they run; the
other commands compile only the engine.

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
from itertools import chain, groupby
from math import gcd
from types import GeneratorType

from .abelian_group import abelian_groups_of_order, group_make, quotient_type
from .codes import classify, tau_sweep
from .errors import DomainError, GroupTooLarge
from .finite_field import field_make
from .group_algebra import _character_values, primitive_idempotents


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


def _csv_block(headers, rows):
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([headers, *rows])
    return buf.getvalue()


def _md_table(headers, rows):
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in cells]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"


def _fmt_cell(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        import json

        return json.dumps(value)
    return value


def _rows(headers, entries):
    return [[_fmt_cell(entry.get(h, "")) for h in headers] for entry in entries]


def _table(key, headers, head):
    """The renderer of a command whose data holds one table, data[key]: the
    data as JSON, or the rows as CSV, or head plus a Markdown table.  head
    is formatted with the data's other cells and the row count."""
    def render(data, fmt):
        if fmt == "json":
            return _json_pieces(data)
        rows = _rows(headers, data[key])
        if fmt == "csv":
            return [_csv_block(headers, rows)]
        cells = {k: _fmt_cell(v) for k, v in data.items() if k != key}
        return [head.format(count=len(rows), **cells) + _md_table(headers, rows)]
    return render


def _render_classification(report_dict, fmt):
    if fmt == "json":
        return _json_pieces(report_dict)
    code_headers = ["idempotent_ref", "phi_subgroup", "dimension", "min_weight",
                    "min_weight_exact", "distribution"]
    class_headers = ["representative", "members", "size", "dimension", "min_weight"]
    summary_headers = ["group", "field", "class_count", "tau", "homocyclic", "thm56_match"]
    code_rows = _rows(code_headers, report_dict["codes"])
    class_rows = _rows(class_headers, report_dict["classes"])
    summary = [report_dict[h] for h in summary_headers]
    if fmt == "csv":
        return [_csv_block(["section"] + code_headers, [["code"] + r for r in code_rows]),
                _csv_block(["section"] + class_headers, [["class"] + r for r in class_rows]),
                _csv_block(["section"] + summary_headers, [["summary"] + summary])]
    return ["group: %s  field: GF(%s)  class_count: %d  tau: %d  homocyclic: %s  "
            "thm56_match: %s\n\ncodes:\n" % tuple(map(_fmt_cell, summary)),
            _md_table(code_headers, code_rows), "\nclasses:\n",
            _md_table(class_headers, class_rows)]


def _idempotents_dict(args):
    """The idempotents' data, with the entries as a generator: every
    refusal is raised here, and an entry is built only when it is read."""
    group, ctx = args["group"], args["field"]

    def entries(ides):
        for ide in ides:
            ts = _character_values(group, ide.orbit_rep)[1]  # the coefficient at g is row[t(g)]
            runs = [[v, len(list(run))] for v, run in groupby(map(ide.row.__getitem__, ts))]
            yield {"orbit_rep": list(ide.orbit_rep),
                   "phi_subgroup": [list(g) for g in ide.phi_subgroup.generators],
                   "support_size": sum(n for v, n in runs if v != ctx.zero), "coeffs": runs}

    return {"group": group.spec_string(), "field": ctx.spec_string(),
            "idempotents": entries(primitive_idempotents(group, ctx))}


def _subgroups_dict(args):
    from .reference import all_subgroups

    group, entries = args["group"], []
    for H in all_subgroups(group):
        quotient = list(quotient_type(group, H))  # G/H cyclic: H is co-cyclic
        entries.append({"generators": [list(g) for g in H.generators], "order": H.order,
                        "quotient": quotient, "cocyclic": len(quotient) == 1})
    return {"group": group.spec_string(), "field": args["field"].spec_string(),
            "subgroups": entries}


# sweep --max-order above this is refused before any group is built: on a
# 2-vCPU VM the sweep takes 1.8-2.3 s and 59 MB at 10^5, about 0.8 s of it
# building the groups and 0.6 s counting their classes, and grows linearly
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
    return classify(args["group"], args["field"],
                    with_distributions=args["with-distributions"]).to_dict()


def _verify_dict(args):
    from .reference import verify_tables

    return verify_tables(args["group"], args["field"])


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
    "subgroups": ("list the subgroup lattice", _ALGEBRA, _subgroups_dict, _table(
        "subgroups", ["generators", "order", "quotient", "cocyclic"],
        "group: {group}  ({count} subgroups)\n\n")),
    "idempotents": ("dump the primitive idempotents", _ALGEBRA, _idempotents_dict, _table(
        "idempotents", ["orbit_rep", "phi_subgroup", "support_size", "coeffs"],
        "group: {group}  field: GF({field})\n\n")),
    "classify": ("classify the minimal codes", _ALGEBRA + ("--with-distributions",),
                 _classify_dict, _render_classification),
    "sweep": ("class count vs tau(exponent) over all small groups",
              ("--field", "--format", "--max-order"), _sweep_dict, _table(
                  "rows", ["group", "class_count", "tau", "homocyclic", "thm56_match"],
                  "field: GF({field})  max order: {max_order}\n\n")),
    "verify": ("check the built-in reference tables", _ALGEBRA, _verify_dict, _table(
        "rows", ["label", "check", "expected", "actual", "pass"],
        "group: {group}  field: GF({field})  table: {table}\nall rows pass: {all_pass}\n\n")),
}


def _argparse_parse(argv):
    """What argparse reads from argv, with a parser built from the tables:
    it prints the help and exits 0, or exits 2 with the usage on a usage
    error.  A converter's ValueError is a usage error with its text."""
    import argparse

    def checked(convert):
        def check(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc))
        return check

    parser = argparse.ArgumentParser(
        prog="abelian-codes",
        description="Minimal abelian group codes and their equivalence classes.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _, _) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        for name in options:
            spec = dict(_OPTIONS[name])
            if "type" in spec:
                spec["type"] = checked(spec["type"])
            sub.add_argument(name, **spec)
    args = vars(parser.parse_args(argv))
    return args.pop("command"), {name.replace("_", "-"): value for name, value in args.items()}


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


def main():
    """Run the command of sys.argv and exit with its status.  A run that
    returns ends as the interpreter would, running the atexit handlers and
    then flushing stdout and stderr, but leaves through os._exit: module
    teardown and the final collection (about 10 ms a process on a 2-vCPU
    VM) are skipped.
    A run that raises, a flush that fails (the interpreter's exit then
    reports it), and a run under a profiler, a tracer or ``-i`` end
    through the interpreter's own exit."""
    status = run(sys.argv[1:])
    if sys.getprofile() is None and sys.gettrace() is None and not sys.flags.inspect:
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when its descriptor was closed at start
                    stream.flush()
        except (OSError, ValueError):
            pass
        else:
            os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    main()
