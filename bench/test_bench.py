"""Tests of the benchmark itself.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import reference
import run
import tracing
import workloads
from hecketree import ktheory
from hecketree.ktheory import IntMatrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture
def one_pass_ktheory(tmp_path):
    """The ktheory-snf workload, cut to a single pass for speed."""
    workload = workloads.KTheorySNF(7, str(tmp_path))
    workload.tail_pct = 0  # ten operations suffice, and one pass has more
    return workload


def hecketree_bindings() -> dict:
    """Every attribute of every hecketree module and of the classes defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "hecketree":
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("hecketree"):
                for class_attr, class_value in vars(value).items():
                    out[(name, attr, class_attr)] = class_value
    return out


def test_names_match_the_pattern_and_are_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_exactly_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = dict(tracing.metric_units(), trace_overhead_ratio="1")
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer
    with open(os.path.join(ROOT, "bench", "provenance.json"), encoding="utf-8") as fh:
        provenance = json.load(fh)
    targeted = {name for row in provenance["per_layer_targets"] for name in row["metrics"]}
    assert targeted <= set(per_layer)
    assert set(provenance["workloads"]) == set(run.WORKLOADS)


def test_forced_wrong_result_gives_failures(one_pass_ktheory, monkeypatch):
    original = ktheory.smith_normal_form

    def off_by_one(m):
        snf = original(m)
        rows = snf.d.to_lists()
        rows[0][0] += 1
        return snf._replace(d=IntMatrix.from_rows(rows))

    monkeypatch.setattr(ktheory, "smith_normal_form", off_by_one)
    result = workloads.execute(one_pass_ktheory, 0)
    assert result["e2e"]["fail_ratio"] > 0
    assert any("U M V != D" in p for p in result["problems"])


def test_an_exception_is_a_failed_operation_and_the_run_goes_on(one_pass_ktheory, monkeypatch):
    def broken(alpha):
        raise ValueError("forced")

    monkeypatch.setattr(ktheory, "pv_k_groups", broken)
    result = workloads.execute(one_pass_ktheory, 0)
    assert result["attempted"] == len(one_pass_ktheory.ops) * result["passes"]
    assert result["failed"] == len(workloads.KTheorySNF.pv_stages) * result["passes"]


def test_traced_run_reports_the_same_end_to_end_names_and_restores_everything(
    one_pass_ktheory, tmp_path
):
    before = hecketree_bindings()
    plain = workloads.execute(one_pass_ktheory, 0)
    assert hecketree_bindings().keys() == before.keys()
    traced = workloads.execute(one_pass_ktheory, 0, tracing.Tracer())
    after = hecketree_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced["restored"] is True
    assert plain["failed"] == traced["failed"] == 0
    assert traced["e2e"].keys() == plain["e2e"].keys()
    assert traced["layers"].keys() == tracing.metric_units().keys()
    assert traced["layers"]["ktheory.snf.calls"] > 0

    again = workloads.KTheorySNF(7, str(tmp_path))
    again.tail_pct = 0
    repeat = workloads.execute(again, 0, tracing.Tracer())
    for name in ("ktheory.snf.calls", "ktheory.snf.max_transform_digits"):
        assert repeat["layers"][name] == traced["layers"][name]


def test_sampler_takes_its_bursts_off_the_clock_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = reference.SpeedSampler().start()
    wall, start = time.perf_counter(), sampler.clock()
    while time.perf_counter() - wall < 0.4:
        pass
    wall, end = time.perf_counter() - wall, sampler.clock()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 5
    assert sampler.stolen > sum(sampler.samples)
    assert end - start == pytest.approx(wall - sampler.stolen, abs=1e-3)
    mean = sum(sampler.samples) / len(sampler.samples)
    scaled = (end - start) * reference.NOMINAL_BURST_S / mean
    assert sampler.scale(start, end) == pytest.approx(scaled)


def test_install_replaces_and_remove_restores_by_identity():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.all_restored(tracer.patched)
        assert ktheory.smith_normal_form is not tracer.patched[0][2]
    finally:
        patched = tracer.remove()
    assert patched and tracing.all_restored(patched)


def test_fails_without_printing_where_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    argv = ["--workload", "oracle-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
