"""Command-line front end.

Commands: subgroups, idempotents, classify, sweep, verify.  Groups are
given as comma-separated divisor lists (``9,3``), fields as ``p`` or
``p^m`` (``2``, ``2^6``).  Output is deterministic: identical invocations
produce byte-identical output.  Exit status: 0 success, 1 domain error
(with a machine-readable error record), 2 usage error.  ``subgroups`` and
``verify`` import the reference layer (``reference``) when they run; the
other commands compile only the engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from .abelian_group import abelian_groups_of_order, group_make, quotient_type
from .codes import classify, tau_sweep
from .errors import DomainError, GroupTooLarge
from .finite_field import field_make
from .group_algebra import primitive_idempotents


def _parse_group(spec):
    try:
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        divisors = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("group spec must be comma-separated integers")
    divisors = [d for d in divisors if d != 1]
    return group_make(divisors)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _parse_field(spec):
    try:
        if "^" in spec:
            p_str, m_str = spec.split("^", 1)
            return field_make(int(p_str), int(m_str))
        return field_make(int(spec))
    except DomainError:
        raise
    except ValueError:
        raise argparse.ArgumentTypeError("field spec must be p or p^m")


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


def _render_table(data, fmt, headers, rows, head):
    """data as JSON, or the rows as CSV, or head plus a Markdown table."""
    if fmt == "json":
        return _to_json(data)
    if fmt == "csv":
        return _csv_block(headers, rows)
    return head + _md_table(headers, rows)


def _fmt_cell(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return json.dumps(value)
    return value


def _render_classification(report_dict, fmt):
    if fmt == "json":
        return _to_json(report_dict)
    code_headers = ["idempotent_ref", "phi_subgroup", "dimension", "min_weight",
                    "min_weight_exact", "distribution"]
    class_headers = ["representative", "members", "size", "dimension", "min_weight"]
    summary_headers = ["group", "field", "class_count", "tau", "homocyclic", "thm56_match"]

    def rows(headers, entries):
        return [[_fmt_cell(entry.get(h, "")) for h in headers] for entry in entries]

    code_rows = rows(code_headers, report_dict["codes"])
    class_rows = rows(class_headers, report_dict["classes"])
    summary = [report_dict[h] for h in summary_headers]
    if fmt == "csv":
        return (_csv_block(["section"] + code_headers, [["code"] + r for r in code_rows])
                + _csv_block(["section"] + class_headers, [["class"] + r for r in class_rows])
                + _csv_block(["section"] + summary_headers, [["summary"] + summary]))
    return ("group: %s  field: GF(%s)  class_count: %d  tau: %d  homocyclic: %s  "
            "thm56_match: %s\n\ncodes:\n" % tuple(map(_fmt_cell, summary))
            + _md_table(code_headers, code_rows) + "\nclasses:\n"
            + _md_table(class_headers, class_rows))


def _rle(values):
    runs = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def _idempotents_dict(group, ctx):
    entries = [{
        "orbit_rep": list(ide.orbit_rep),
        "phi_subgroup": [list(g) for g in ide.phi_subgroup.generators],
        "support_size": len(ide.element.support),
        "coeffs": _rle([c if isinstance(c, int) else list(c) for c in ide.element.coeffs]),
    } for ide in primitive_idempotents(group, ctx)]
    return {"group": group.spec_string(), "field": ctx.spec_string(), "idempotents": entries}


def _render_idempotents(data, fmt):
    headers = ["orbit_rep", "phi_subgroup", "support_size", "coeffs"]
    rows = [[_fmt_cell(e[h]) for h in headers] for e in data["idempotents"]]
    head = "group: %s  field: GF(%s)\n\n" % (data["group"], data["field"])
    return _render_table(data, fmt, headers, rows, head)


def _subgroups_dict(group, ctx):
    from .reference import all_subgroups

    entries = []
    for H in all_subgroups(group):
        quotient = list(quotient_type(group, H))  # G/H cyclic: H is co-cyclic
        entries.append({"generators": [list(g) for g in H.generators], "order": H.order,
                        "quotient": quotient, "cocyclic": len(quotient) == 1})
    return {"group": group.spec_string(), "field": ctx.spec_string(), "subgroups": entries}


def _render_subgroups(data, fmt):
    headers = ["generators", "order", "quotient", "cocyclic"]
    rows = [[_fmt_cell(e[h]) for h in headers] for e in data["subgroups"]]
    head = "group: %s  (%d subgroups)\n\n" % (data["group"], len(rows))
    return _render_table(data, fmt, headers, rows, head)


# sweep --max-order above this is refused before any group is built: the
# sweep takes about 9 s and 106 MB at 10^5, and grows linearly
_SWEEP_ORDER_BOUND = 100_000


def _sweep_dict(ctx, max_order):
    if max_order > _SWEEP_ORDER_BOUND:
        raise GroupTooLarge("sweep bounded", max_order=max_order, bound=_SWEEP_ORDER_BOUND)
    groups = [G for n in range(1, max_order + 1) if gcd(n, ctx.order) == 1
              for G in abelian_groups_of_order(n)]
    rows = [{"group": r["group"], "class_count": r["class_count"], "tau": r["tau"],
             "homocyclic": r["homocyclic"], "thm56_match": r["match"]}
            for r in tau_sweep(groups, ctx)]
    return {"field": ctx.spec_string(), "max_order": max_order, "rows": rows}


def _render_sweep(data, fmt):
    headers = ["group", "class_count", "tau", "homocyclic", "thm56_match"]
    rows = [[_fmt_cell(e[h]) for h in headers] for e in data["rows"]]
    head = "field: GF(%s)  max order: %d\n\n" % (data["field"], data["max_order"])
    return _render_table(data, fmt, headers, rows, head)


def _render_verify(data, fmt):
    headers = ["label", "check", "expected", "actual", "pass"]
    rows = [[_fmt_cell(r[h]) for h in headers] for r in data["rows"]]
    head = "group: %s  field: GF(%s)  table: %s\nall rows pass: %s\n\n" % (
        data["group"], data["field"], data["table"],
        "yes" if data["all_pass"] else "no",
    )
    return _render_table(data, fmt, headers, rows, head)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="abelian-codes",
        description="Minimal abelian group codes and their equivalence classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_group=True):
        if need_group:
            p.add_argument("--group", required=True, type=_parse_group,
                           help="comma-separated divisor list, e.g. 9,3")
        p.add_argument("--field", required=True, type=_parse_field,
                       help="field spec: p or p^m, e.g. 2 or 2^6")
        p.add_argument("--format", choices=["json", "csv", "md"], default="md")

    common(sub.add_parser("subgroups", help="list the subgroup lattice"))
    common(sub.add_parser("idempotents", help="dump the primitive idempotents"))
    p_classify = sub.add_parser("classify", help="classify the minimal codes")
    common(p_classify)
    p_classify.add_argument("--with-distributions", action="store_true")
    p_sweep = sub.add_parser(
        "sweep", help="class count vs tau(exponent) over all small groups")
    common(p_sweep, need_group=False)
    p_sweep.add_argument("--max-order", type=_positive_int, default=81)
    common(sub.add_parser("verify", help="check the built-in reference tables"))
    return parser


def run(argv):
    parser = _build_parser()
    try:
        # domain errors raised while converting --group/--field (e.g. a
        # non-prime characteristic) fall through to the handler below;
        # malformed syntax is a usage error handled by argparse itself
        args = parser.parse_args(argv)
        ctx = args.field
        if args.command == "sweep":
            data = _sweep_dict(ctx, args.max_order)
            sys.stdout.write(_render_sweep(data, args.format))
            return 0
        group = args.group
        if args.command == "subgroups":
            sys.stdout.write(_render_subgroups(_subgroups_dict(group, ctx), args.format))
            return 0
        if args.command == "idempotents":
            sys.stdout.write(_render_idempotents(_idempotents_dict(group, ctx), args.format))
            return 0
        if args.command == "classify":
            report = classify(group, ctx, with_distributions=args.with_distributions)
            sys.stdout.write(_render_classification(report.to_dict(), args.format))
            return 0
        if args.command == "verify":
            from .reference import verify_tables

            data = verify_tables(group, ctx)
            sys.stdout.write(_render_verify(data, args.format))
            return 0 if data["all_pass"] else 1
    except DomainError as exc:
        sys.stdout.write(_to_json(exc.record()))
        return 1
    raise AssertionError("unhandled command")  # argparse guards this


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
