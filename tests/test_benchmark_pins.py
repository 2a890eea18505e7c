"""Every job the benchmark can draw prints its pinned bytes with its pinned
exit status.  The jobs run in-process; ``perfbench/jobs.py`` and
``perfbench/pins.json`` are only read."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os

import pytest

from abelian_codes.cli import run

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs",
                                                  os.path.join(BENCH, "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.all_pin_keys()


JOBS = _jobs()
with open(os.path.join(BENCH, "pins.json")) as fh:
    PINS = json.load(fh)


def test_every_drawable_job_has_a_pin():
    assert len(JOBS) == 15
    assert set(JOBS) <= set(PINS)


@pytest.mark.parametrize("key", sorted(JOBS))
def test_a_benchmark_job_prints_its_pinned_bytes(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(JOBS[key][1])
    assert {"exit": status, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()} \
        == PINS[key]
