"""The parts of the command-line front end that a canonical ``--format
json`` run of ``classify`` or ``sweep`` never calls: the argparse reader
of every other argv, the data of ``idempotents``, ``subgroups`` and
``verify``, and the CSV and Markdown renderers.  ``cli`` loads this module
on the first call of one of them, so those runs never compile it.  The
algebra is imported only inside ``idempotents_dict``, so a Markdown or CSV
``sweep`` loads this module but neither ``group_algebra`` nor ``codes``.
"""

from itertools import groupby

from .cli import _COMMANDS, _OPTIONS


def argparse_parse(argv):
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


# ---------------------------------------------------------------------------
# the data of idempotents, subgroups and verify
# ---------------------------------------------------------------------------

def idempotents_dict(args):
    """The idempotents' data, with the entries as a generator: every
    refusal is raised here, and an entry is built only when it is read."""
    from .group_algebra import _character_values, primitive_idempotents

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


def subgroups_dict(args):
    from .reference import all_subgroups, quotient_type

    group, entries = args["group"], []
    for H in all_subgroups(group):
        quotient = list(quotient_type(group, H))  # G/H cyclic: H is co-cyclic
        entries.append({"generators": [list(g) for g in H.generators], "order": H.order,
                        "quotient": quotient, "cocyclic": len(quotient) == 1})
    return {"group": group.spec_string(), "field": args["field"].spec_string(),
            "subgroups": entries}


def verify_dict(args):
    from .reference import verify_tables

    return verify_tables(args["group"], args["field"])


# ---------------------------------------------------------------------------
# CSV and Markdown
# ---------------------------------------------------------------------------

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


def table(data, fmt, key, headers, head):
    """A command whose data holds one table, data[key]: the rows as CSV,
    or head plus a Markdown table.  head is formatted with the data's
    other cells and the row count."""
    rows = _rows(headers, data[key])
    if fmt == "csv":
        return [_csv_block(headers, rows)]
    cells = {k: _fmt_cell(v) for k, v in data.items() if k != key}
    return [head.format(count=len(rows), **cells) + _md_table(headers, rows)]


def sweep_table(data, fmt):
    """The sweep as CSV or Markdown: its tuple rows as the dicts that
    ``table`` reads."""
    headers = ["group", "class_count", "tau", "homocyclic", "thm56_match"]
    rows = [dict(zip(headers, row)) for row in data["rows"]]
    return table(dict(data, rows=rows), fmt, "rows", headers,
                 "field: GF({field})  max order: {max_order}\n\n")


def classification(report_dict, fmt):
    """classify's data as CSV, one block per section, or as Markdown."""
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
