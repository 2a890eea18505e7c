"""An argparse parser written independently of ``cli``'s tables, kept as
the oracle of ``cli._parse``.  The tests check against it both the fast
reader of canonical argv and the argparse parser that ``cli`` builds from
its tables for every other argv.

``parse(argv)`` returns what ``cli._parse`` returns, (command, {option
without its dashes: value}), or exits as argparse does.  The converters are
the CLI's own; they raise ValueError where ``cli`` raises ArgumentTypeError,
which argparse refuses the same way (exit 2, nothing on stdout).
"""

import argparse

from abelian_codes.cli import _parse_field, _parse_group, _positive_int

# command -> help, in the order the subparsers were added
_COMMANDS = {
    "subgroups": "list the subgroup lattice",
    "idempotents": "dump the primitive idempotents",
    "classify": "classify the minimal codes",
    "sweep": "class count vs tau(exponent) over all small groups",
    "verify": "check the built-in reference tables",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="abelian-codes",
        description="Minimal abelian group codes and their equivalence classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text)
        if name != "sweep":
            p.add_argument("--group", required=True, type=_parse_group,
                           help="comma-separated divisor list, e.g. 9,3")
        p.add_argument("--field", required=True, type=_parse_field,
                       help="field spec: p or p^m, e.g. 2 or 2^6")
        p.add_argument("--format", choices=["json", "csv", "md"], default="md")
    commands["classify"].add_argument("--with-distributions", action="store_true")
    commands["sweep"].add_argument("--max-order", type=_positive_int, default=81)
    return parser


_PARSER = _build_parser()


def parse(argv):
    args = vars(_PARSER.parse_args(argv))
    command = args.pop("command")
    return command, {name.replace("_", "-"): value for name, value in args.items()}
