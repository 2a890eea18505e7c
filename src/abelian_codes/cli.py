"""Command-line front end.

Commands: subgroups, idempotents, classify, sweep, verify.  Groups are
given as comma-separated divisor lists (``9,3``), fields as ``p`` or
``p^m`` (``2``, ``2^6``).  Output is deterministic: identical invocations
produce byte-identical output.  Exit status: 0 success, 1 domain error
(with a machine-readable error record), 2 usage error.  ``subgroups`` and
``verify`` import the reference layer (``reference``) when they run; the
other commands compile only the engine.

The arguments are read from two tables, ``_COMMANDS`` and ``_OPTIONS``,
by the rules of argparse: a unique prefix of an option selects it,
``--opt=value`` attaches a value, the last of repeated options wins, and
``-h``/``--help`` prints the help and exits 0.
"""

import json
import sys
from itertools import groupby
from math import gcd

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


def _parse_format(text):
    if text not in ("json", "csv", "md"):
        raise ValueError("invalid choice: %r (choose from 'json', 'csv', 'md')" % text)
    return text


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def _to_json(obj):
    return json.dumps(obj, indent=2) + "\n"


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
            return _to_json(data)
        rows = _rows(headers, data[key])
        if fmt == "csv":
            return _csv_block(headers, rows)
        cells = {k: _fmt_cell(v) for k, v in data.items() if k != key}
        return head.format(count=len(rows), **cells) + _md_table(headers, rows)
    return render


def _render_classification(report_dict, fmt):
    if fmt == "json":
        return _to_json(report_dict)
    code_headers = ["idempotent_ref", "phi_subgroup", "dimension", "min_weight",
                    "min_weight_exact", "distribution"]
    class_headers = ["representative", "members", "size", "dimension", "min_weight"]
    summary_headers = ["group", "field", "class_count", "tau", "homocyclic", "thm56_match"]
    code_rows = _rows(code_headers, report_dict["codes"])
    class_rows = _rows(class_headers, report_dict["classes"])
    summary = [report_dict[h] for h in summary_headers]
    if fmt == "csv":
        return (_csv_block(["section"] + code_headers, [["code"] + r for r in code_rows])
                + _csv_block(["section"] + class_headers, [["class"] + r for r in class_rows])
                + _csv_block(["section"] + summary_headers, [["summary"] + summary]))
    return ("group: %s  field: GF(%s)  class_count: %d  tau: %d  homocyclic: %s  "
            "thm56_match: %s\n\ncodes:\n" % tuple(map(_fmt_cell, summary))
            + _md_table(code_headers, code_rows) + "\nclasses:\n"
            + _md_table(class_headers, class_rows))


def _idempotents_dict(args):
    group, ctx = args["group"], args["field"]
    entries = []
    for ide in primitive_idempotents(group, ctx):
        ts = _character_values(group, ide.orbit_rep)[1]  # the coefficient at g is row[t(g)]
        runs = [[v, len(list(run))] for v, run in groupby(ide.row[t] for t in ts)]
        entries.append({"orbit_rep": list(ide.orbit_rep),
                        "phi_subgroup": [list(g) for g in ide.phi_subgroup.generators],
                        "support_size": sum(n for v, n in runs if v != ctx.zero), "coeffs": runs})
    return {"group": group.spec_string(), "field": ctx.spec_string(), "idempotents": entries}


def _subgroups_dict(args):
    from .reference import all_subgroups

    group, entries = args["group"], []
    for H in all_subgroups(group):
        quotient = list(quotient_type(group, H))  # G/H cyclic: H is co-cyclic
        entries.append({"generators": [list(g) for g in H.generators], "order": H.order,
                        "quotient": quotient, "cocyclic": len(quotient) == 1})
    return {"group": group.spec_string(), "field": args["field"].spec_string(),
            "subgroups": entries}


# sweep --max-order above this is refused before any group is built: the
# sweep takes about 9 s and 106 MB at 10^5, and grows linearly
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

# option -> (converter of its value, or None for a flag; default, or None
# for a required option; help)
_OPTIONS = {
    "--group": (_parse_group, None, "comma-separated divisor list, e.g. 9,3"),
    "--field": (_parse_field, None, "field spec: p or p^m, e.g. 2 or 2^6"),
    "--format": (_parse_format, "md", "json, csv or md (default md)"),
    "--with-distributions": (None, False, "print each code's weight distribution"),
    "--max-order": (_positive_int, 81, "largest group order swept (default 81)"),
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

_HELP = ("-h", "--help")


class _UsageError(Exception):
    pass


def _spelled(name):
    """The option with its value's placeholder: --group GROUP."""
    return name if _OPTIONS[name][0] is None else name + " " + name[2:].upper().replace("-", "_")


def _usage(command):
    if command is None:
        return "usage: abelian-codes [-h] {%s} ...\n" % ",".join(_COMMANDS)
    return "usage: abelian-codes %s [-h] %s\n" % (command, " ".join(
        _spelled(n) if _OPTIONS[n][1] is None else "[%s]" % _spelled(n)
        for n in _COMMANDS[command][1]))


def _help(command, name, value):
    """Print the help of the command (or of the program) and exit 0.  An
    attached value is refused, except that -hh is -h twice."""
    if value is not None and (name == "--help" or not value or value.strip("h")):
        raise _UsageError("argument -h/--help: ignored explicit argument %r" % value)
    if command is None:
        head = "Minimal abelian group codes and their equivalence classes.\n\ncommands:\n"
        rows = [(c, entry[0]) for c, entry in _COMMANDS.items()]
    else:
        head = _COMMANDS[command][0] + "\n\noptions:\n"
        rows = [("-h, --help", "show this help and exit")]
        rows += [(_spelled(n), _OPTIONS[n][2]) for n in _COMMANDS[command][1]]
    width = max(len(left) for left, _ in rows) + 2
    sys.stdout.write(_usage(command) + "\n" + head + "".join(
        "  %s%s\n" % (left.ljust(width), right) for left, right in rows))
    raise SystemExit(0)


def _is_negative_number(token):
    """Whether "-" + rest matches argparse's -\\d+ or -\\d*.\\d+ (to the end
    or to one final newline, as its regular expression does)."""
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    if dot:
        return frac.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _read(token, names):
    """How argparse reads a token against the option names: None for a
    value, else (name, the value attached with "=" or after -h, or None),
    with name None for an unknown option.  A prefix of a long name selects
    it when unique and is refused when it is not."""
    if len(token) < 2 or token[0] != "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        hits = [(n, value if eq else None) for n in names if n.startswith(name)]
    else:
        hits = [("-h", token[2:])] if token.startswith("-h") else []
    if len(hits) > 1:
        raise _UsageError("ambiguous option: %s could match %s"
                          % (token, ", ".join(n for n, _ in hits)))
    if hits:
        return hits[0]
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _parse_command(command, tokens, extras):
    """The option values of one command.  Every token is read before any
    value is converted; values are converted in argv order; then a missing
    option, and last an unrecognized token, is refused.  "--" ends the
    options, so it and every token after it are unrecognized."""
    options = _COMMANDS[command][1]
    end = tokens.index("--") if "--" in tokens else len(tokens)
    reads = [_read(token, _HELP + options) for token in tokens[:end]]
    values, i = {}, 0
    while i < end:
        token, read = tokens[i], reads[i]
        i += 1
        if read is None or read[0] is None:
            extras.append(token)
            continue
        name, value = read
        if name in _HELP:
            _help(command, name, value)
        convert = _OPTIONS[name][0]
        if convert is None:
            if value is not None:
                raise _UsageError("argument %s: ignored explicit argument %r" % (name, value))
            values[name] = True
            continue
        if value is None:
            if i == end or reads[i] is not None:
                raise _UsageError("argument %s: expected one argument" % name)
            value = tokens[i]
            i += 1
        try:
            values[name] = convert(value)
        except (TypeError, ValueError) as exc:
            raise _UsageError("argument %s: %s" % (name, exc))
    extras += tokens[end:]
    missing = [name for name in options if _OPTIONS[name][1] is None and name not in values]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return {name[2:]: values.get(name, _OPTIONS[name][1]) for name in options}


def _parse(argv):
    """(command, {option without its dashes: value}) from argv.  A usage
    error exits 2 with the usage on stderr; a domain error raised while a
    value is converted (e.g. a non-prime characteristic) propagates."""
    command, extras = None, []
    try:
        for i, token in enumerate(argv):
            read = _read(token, _HELP) if token != "--" else None
            if read is None:  # the command ("--" too, as argparse reads it); the
                # tokens after it are the command's own
                if token not in _COMMANDS:
                    raise _UsageError("argument command: invalid choice: %r (choose from %s)"
                                      % (token, ", ".join(map(repr, _COMMANDS))))
                command = token
                return command, _parse_command(command, argv[i + 1:], extras)
            if read[0] is None:
                extras.append(token)
            else:
                _help(None, *read)
        raise _UsageError("the following arguments are required: command")
    except _UsageError as exc:
        prog = "abelian-codes" + (" " + command if command else "")
        sys.stderr.write("%s%s: error: %s\n" % (_usage(command), prog, exc))
        raise SystemExit(2)


def run(argv):
    """Run one command; the exit status is 0, or 1 on a domain error or on
    a verify table with a failing row."""
    try:
        command, args = _parse(argv)
        _, _, build, render = _COMMANDS[command]
        data = build(args)
        sys.stdout.write(render(data, args["format"]))
        return 0 if data.get("all_pass", True) else 1
    except DomainError as exc:
        sys.stdout.write(_to_json(exc.record()))
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
