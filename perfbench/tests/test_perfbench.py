"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from abelian_codes import group_make  # noqa: E402

# One short job per workload, of the same kind as the workload's jobs:
# (argv, field, group).
SHORT = {
    "classify": (["classify", "--group", "3,3", "--field", "2"], "2", "3,3"),
    "weights": (["classify", "--group", "7", "--field", "2",
                 "--with-distributions"], "2", "7"),
    "extension": (["classify", "--group", "5", "--field", "2^2",
                   "--with-distributions"], "2^2", "5"),
    "sweep": (["sweep", "--field", "2", "--max-order", "15"], "2", None),
}


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _short_job(workload):
    argv, field, group = SHORT[workload]
    return jobs.Job(0, argv + ["--format", "json"], "short " + workload,
                    field, group)


def _traced_job(argv):
    """Spans and layer metrics of one traced run of the CLI on ``argv``."""
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, "test-trace.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "trace", path,
           "--"] + argv
    _, _, code, _, _, err = run.spawn(cmd, run.child_env())
    assert code == 0, err
    with open(path) as fh:
        record = json.load(fh)
    os.remove(path)
    return record


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_short_job_reports_every_metric(workload):
    spec = _benchmark_spec()
    job = _short_job(workload)
    pins = {job.pin_key: pin.pin_job(job.argv, run.child_env())}
    for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result, summary = run.measure([job], pins, 0, trace, n_setup=1)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == (1 + trace) * summary["passes"]
        assert {m["name"]: m["unit"] for m in names} == {
            k: v["unit"] for k, v in result["metrics"].items()}


def test_self_times_of_children_never_exceed_parent():
    spans = _traced_job(["classify", "--group", "9,3", "--field", "2^2",
                         "--with-distributions", "--format", "json"])["spans"]
    assert any(s[1] >= 0 for s in spans)
    children = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            parent = spans[s[1]]
            assert parent[2] <= s[2] <= s[3] <= parent[3]
            children[s[1]] += s[3] - s[2]
    for s, covered in zip(spans, children):
        assert covered <= (s[3] - s[2]) + 1e-9
    assert min(tracer.self_times(spans)) >= -1e-9


def test_traced_counts_repeat():
    argv = ["classify", "--group", "5,5", "--field", "2", "--format", "json",
            "--with-distributions"]
    first = _traced_job(argv)["metrics"]
    second = _traced_job(argv)["metrics"]
    for name in tracer.COUNT_METRICS:
        assert first[name] == second[name]
    assert first["group_algebra.convolutions"] > 0
    assert first["codes.weight_enumerations"] > 0


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_other_seed_draws_different_list_of_same_size(workload):
    default = jobs.job_list(workload, jobs.DEFAULT_SEED)
    for seed in range(1, 6):
        drawn = jobs.job_list(workload, seed)
        assert drawn != default
        assert len(drawn) == len(default)
        assert sorted(j.slot for j in drawn) == list(range(len(default)))
        assert jobs.job_list(workload, seed) == drawn


def test_drawn_groups_are_presentations_of_the_slot_group():
    for workload, slots in jobs.WORKLOADS.items():
        for seed in range(20):
            for job in jobs.job_list(workload, seed):
                group = slots[job.slot][1]
                if group is None:
                    continue
                canon = group_make([int(d) for d in group.split(",")])
                assert group_make([int(d) for d in job.group.split(",")]) == canon


def test_every_drawable_job_is_pinned():
    assert set(jobs.all_pin_keys()) == set(run.load_pins())


def test_refuses_without_the_program():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60)
        assert proc.returncode != 0
        assert b"{" not in proc.stdout
    finally:
        shutil.rmtree(bare)


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "abelian_codes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def test_seed_readings():
    """Counts read by the tracer on the program as it was when the
    benchmark was defined.  They are properties of that program, so the
    test runs only while src/abelian_codes is unchanged (about 30 s)."""
    with open(os.path.join(BENCH, "baseline.json")) as fh:
        seed = json.load(fh)["seed_program"]
    if _src_digest() != seed["src_sha256"]:
        pytest.skip("src/abelian_codes differs from the seed program")
    readings = seed["readings"]
    m = _traced_job(["classify", "--group", "15,15", "--field", "2",
                     "--format", "json"])["metrics"]
    assert m["group_algebra.convolutions"] == readings["classify 15,15 GF(2)"][
        "group_algebra.convolutions"]
    m = _traced_job(["sweep", "--field", "2", "--max-order", "243",
                     "--format", "json"])["metrics"]
    assert m["abelian_group.subgroups_generated"] == readings["sweep"][
        "abelian_group.subgroups_generated"]
    total = {}
    for job in jobs.job_list("weights", jobs.DEFAULT_SEED):
        tracer.add_metrics(total, _traced_job(job.argv)["metrics"])
    assert total["codes.enumerations_per_code"] == readings["weights"][
        "codes.enumerations_per_code"]
