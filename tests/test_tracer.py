"""The benchmark's tracer still installs over the package: it imports
``abelian_codes.cli`` and wraps functions in the loaded submodules."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_and_plain(tmp_path, argv):
    """(traced run, its trace record, untraced run) of the CLI on argv."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out_path = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "trace",
         str(out_path), "--", *argv], env=env, capture_output=True)
    plain = subprocess.run([sys.executable, "-m", "abelian_codes", *argv],
                           env=env, capture_output=True, check=True)
    assert traced.returncode == 0, traced.stderr
    return traced, json.loads(out_path.read_text()), plain


def test_traced_classify_matches_untraced(tmp_path):
    argv = ["classify", "--group", "9,3", "--field", "2", "--format", "json"]
    traced, record, plain = _traced_and_plain(tmp_path, argv)
    assert traced.stdout == plain.stdout
    metrics = record["metrics"]
    assert metrics["codes.minimal_codes"] == 8
    assert metrics["codes.weight_enumerations"] == 3


def test_traced_subgroups_matches_untraced(tmp_path):
    # subgroups runs the reference layer, which the tracer reaches only
    # under the engine modules' names
    traced, _, plain = _traced_and_plain(tmp_path, ["subgroups", "--group", "9,3", "--field", "2"])
    assert traced.stdout == plain.stdout


@pytest.mark.parametrize("argv", [
    ["sweep", "--field", "2", "--max-order", "30"],
    # idempotents loads cli_extra after the tracer has wrapped the engine
    ["idempotents", "--group", "9,3", "--field", "2"],
])
def test_traced_sweep_and_idempotents_match_untraced(tmp_path, argv):
    traced, _, plain = _traced_and_plain(tmp_path, argv)
    assert traced.stdout == plain.stdout


def test_traced_classify_on_the_bound_path_matches_untraced(tmp_path):
    # the two k = 28 classes are over the dimension cap, so min_weight_or_bound
    # runs under the tracer and reads DEFAULT_DIMENSION_CAP, once per class
    # (on its first member); the other counts are those recorded before
    # --dimension-cap was removed
    argv = ["classify", "--group", "3,29", "--field", "2", "--format", "json"]
    traced, record, plain = _traced_and_plain(tmp_path, argv)
    assert traced.stdout == plain.stdout
    metrics = record["metrics"]
    assert metrics["codes.bound_fallbacks"] == 2
    assert metrics["codes.minimal_codes"] == 5
    assert metrics["codes.weight_enumerations"] == 2


@pytest.mark.parametrize("argv,spans", [
    (["sweep", "--field", "2", "--max-order", "30", "--format", "json"],
     {"finite_field.field_make": 1, "codes.tau_sweep": 0}),
    (["classify", "--group", "9,3", "--field", "2", "--format", "json"],
     {"codes.classify": 1, "codes.minimal_code": 8, "finite_field.splitting_field": 1}),
])
def test_traced_jobs_record_the_spans_of_each_commands_layers(tmp_path, argv, spans):
    # the CLI holds field_make from finite_field (a sweep counts its rows
    # with finite_field's helpers and calls no tau_sweep) and imports
    # classify from codes only when classify runs, and group_algebra calls the
    # splitting_field it defines, which the tracer reaches through the
    # finite_field forward: each must be the tracer's wrapper by then, or
    # its spans vanish while stdout still matches
    traced, record, plain = _traced_and_plain(tmp_path, argv)
    assert traced.stdout == plain.stdout
    names = [span[0] for span in record["spans"]]
    assert {name: names.count(name) for name in spans} == spans


@pytest.mark.parametrize("argv,bound_fallbacks", [
    # the coset walk of C_23 over GF(3), k = 11
    (["classify", "--group", "23", "--field", "3", "--with-distributions", "--format",
      "json"], 0),
    # the two-vector bound of C_29 over GF(3), k = 28
    (["classify", "--group", "29", "--field", "3", "--format", "json"], 1),
])
def test_traced_basis_routes_reduce_through_the_wrapper(tmp_path, argv, bound_fallbacks):
    # codes imports the basis routes only when _route picks one; their
    # row_reduce_raw must still be the tracer's wrapper, or the reductions
    # vanish from group_algebra.row_reduce_s while stdout still matches
    traced, record, plain = _traced_and_plain(tmp_path, argv)
    assert traced.stdout == plain.stdout
    metrics = record["metrics"]
    assert metrics["group_algebra.row_reduce_s"] > 0
    assert metrics["codes.bound_fallbacks"] == bound_fallbacks
    assert (metrics["codes.bound_s"] > 0) == (bound_fallbacks > 0)
