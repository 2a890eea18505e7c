"""Process of the benchmark for a set-up sample or a traced job.

    worker.py setup FIELD [GROUP]
        Import abelian_codes and build the field and the group, as a job
        does before its first computation.  The caller times the process.

    worker.py trace OUT -- ARGV...
        Run the CLI on ARGV with the tracer installed.  The CLI's stdout is
        passed through unchanged; the job's spans, counters and per-layer
        metrics go to the file OUT as JSON.  Exits with the CLI's status.
"""

from __future__ import annotations

import json
import sys


def _setup(field, group=None):
    from abelian_codes import field_make, group_make

    if "^" in field:
        p, m = field.split("^", 1)
        field_make(int(p), int(m))
    else:
        field_make(int(field))
    if group is not None:
        group_make([int(d) for d in group.split(",") if int(d) != 1])
    return 0


def _trace(out_path, argv):
    import tracer  # next to this script, so on sys.path

    t = tracer.Tracer()
    tracer.install(t)
    from abelian_codes import cli

    status = t.wrap(tracer.CLI, cli.run)(argv)
    sys.stdout.flush()
    record = {
        "metrics": tracer.layer_metrics(t.spans, t.counts),
        "spans": t.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return status


def main(argv):
    if argv[:1] == ["setup"] and len(argv) in (2, 3):
        return _setup(*argv[1:])
    if argv[:1] == ["trace"] and len(argv) >= 3 and argv[2] == "--":
        return _trace(argv[1], argv[3:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
