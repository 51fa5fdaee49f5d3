"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.  The
smoke tests run each workload at ``tiny`` scale with a short QBF cap.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import runner  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import DIP_KEY_WIDTH, WORKLOADS, netlist_seeds  # noqa: E402


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR",
                       os.path.join(ROOT, ".perfbench", "native"))
    monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "prepstore"))
    monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tune"))
    return str(tmp_path)


def test_self_times_subtract_direct_children():
    spans = [
        ["attack", 0.0, 10.0, -1, 0],
        ["kratt.qbf", 1.0, 4.0, 0, 0],
        ["qbf.cegar", 2.0, 3.5, 1, 0],
        ["scope", 5.0, 9.0, 0, 0],
        ["netlist.eval", 6.0, 6.5, 3, 0],
        ["netlist.eval", 7.0, 8.0, 3, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 2.5, 0.5, 1.0])


def test_wall_share_counts_outermost_group_spans_once():
    spans = [
        ["attack", 0.0, 10.0, -1, 0],
        ["kratt.qbf", 1.0, 5.0, 0, 0],
        ["qbf.cegar", 2.0, 4.0, 1, 0],
        ["scope", 6.0, 8.0, 0, 0],
        ["qbf.cegar", 6.5, 7.0, 3, 0],
    ]
    assert runner._wall_share(spans, ("kratt.qbf", "qbf.cegar"), 10.0) == \
        pytest.approx(0.45)


def test_tracer_records_nest_and_phase():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 7

    traced_leaf = tracer.wrap(leaf, "leaf", "attack")
    assert traced_leaf() == 7 and tracer.spans == []  # other phase: untraced
    tracer.phase, tracer.attack = "attack", 3
    tracer.begin("attack")
    traced_leaf()
    tracer.end()
    assert [s[0] for s in tracer.spans] == ["attack", "leaf"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 3
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_install_rebinds_callers_and_uninstall_restores():
    from repro.attacks import scope
    from repro.attacks.kratt import flow
    from repro.sat.solver import Solver
    from tracer import install_layers

    original, solve = scope.scope_attack, Solver.solve
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert flow.scope_attack is not original
        assert flow.scope_attack.__wrapped__ is original
        assert Solver.solve is not solve
    finally:
        tracer.uninstall()
    assert flow.scope_attack is original and scope.scope_attack is original
    assert Solver.solve is solve


def _record(**fields):
    base = dict(circuit="c", technique="t", attack="kratt_og", lock_seed=0,
                synth_seed=0, inputs_sha="x", wall_s=1.0, outcome="completed")
    base.update(fields)
    return runner.AttackRecord(**base)


def test_end_to_end_metric_arithmetic():
    records = [
        _record(wall_s=1.0, total=8, dk=8, cdk=8, functional=True,
                success=True, oracle_guided=True, oracle_queries=10),
        _record(wall_s=3.0, total=8, dk=8, cdk=4, functional=False,
                success=True, oracle_guided=True, oracle_queries=5),
        _record(attack="kratt_ol", wall_s=2.0, total=8, dk=4, cdk=4,
                outcome="budget"),
        _record(attack="kratt_ol", wall_s=0.5, total=8, outcome="raised"),
    ]
    run = runner.RunResult(records=records, setup_samples=[2.0, 1.0, 5.0],
                           rounds=[])
    m = {k: v for k, (v, _) in runner.end_to_end_metrics(run).items()}
    m.update((k, v) for k, (v, _) in runner.attack_outcomes(run).items())
    assert m["setup_s"] == 2.0
    assert m["wall_s"] == 6.5
    assert m["attack_p50_s"] == 1.5
    assert m["key_accuracy"] == 16 / 20
    assert m["key_coverage"] == 20 / 32
    assert m["score.keys_functional"] == 1 / 4
    assert m["score.false_success"] == 1 / 2
    assert m["completed"] == 2 / 4


def test_netlist_seeds_depend_only_on_arguments():
    assert netlist_seeds("w", 1, 0, 0) == netlist_seeds("w", 1, 0, 0)
    assert netlist_seeds("w", 1, 0, 0) != netlist_seeds("w", 2, 0, 0)
    assert netlist_seeds("w", 1, 0, 0) != netlist_seeds("w", 1, 1, 0)
    assert netlist_seeds("w", 1, 0, 0) != netlist_seeds("w", 1, 0, 1)


def _smoke_workload(name):
    workload = WORKLOADS[name]
    # Of the DIP baselines on Anti-SAT/CAS-Lock, keep one.
    cells = tuple(c for c in workload.cells if c.attack.startswith("kratt")
                  or c.technique == "xor_lock"
                  or (c.circuit == "c2670" and c.technique == "antisat"
                      and c.attack == "sat"))
    return dataclasses.replace(workload, cells=cells, round_seconds=1.0)


def _smoke(name, seed, work_dir, tracer=None, seconds=1, setup_samples=1):
    return runner.run_workload(_smoke_workload(name), seed, seconds, work_dir,
                               tracer=tracer, scale="tiny",
                               qbf_time_limit=0.3, setup_samples=setup_samples)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_quality_repeats_and_seed_changes_inputs(name, work_dir):
    first = _smoke(name, 1, work_dir)
    second = _smoke(name, 1, work_dir)
    other = _smoke(name, 2, work_dir)
    assert all(r.outcome == "completed" and r.key_ok for r in first.records)
    assert all(r.total == DIP_KEY_WIDTH for r in first.records
               if not r.attack.startswith("kratt"))
    assert [r.quality() for r in first.records] == \
        [r.quality() for r in second.records]
    metrics = runner.end_to_end_metrics(first)
    again = runner.end_to_end_metrics(second)
    metrics.update(runner.attack_outcomes(first))
    again.update(runner.attack_outcomes(second))
    for key in ("key_accuracy", "key_coverage", "score.keys_functional",
                "score.false_success", "completed"):
        assert metrics[key] == again[key]
    assert {r.inputs_sha for r in first.records}.isdisjoint(
        {r.inputs_sha for r in other.records})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_rounds_repeat_cells_with_fresh_seeds(name, work_dir):
    workload = _smoke_workload(name)
    run = _smoke(name, 1, work_dir, seconds=2, setup_samples=3)
    assert len(run.rounds) == 2
    assert [(r.circuit, r.technique, r.attack) for r in run.records] == \
        [(c.circuit, c.technique, c.attack) for c in workload.cells * 2]
    # Three samples over two rounds: two set-ups in each round.
    assert len(run.setup_samples) == 4
    first = run.records[:len(workload.cells)]
    second = run.records[len(workload.cells):]
    assert {r.inputs_sha for r in first}.isdisjoint(
        {r.inputs_sha for r in second})
    assert all(r.outcome == "completed" for r in run.records)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_attributes_layers(name, work_dir):
    tracer = Tracer()
    run = _smoke(name, 1, work_dir, tracer=tracer)
    replay = runner.run_workload(_smoke_workload(name), 1, None, work_dir,
                                 qbf_time_limit=0.3, replay=run)
    assert [r.inputs_sha for r in replay.records] == \
        [r.inputs_sha for r in run.records]
    m = {k: v for k, (v, _) in
         runner.layer_metrics(tracer, run, replay.wall_s).items()}
    assert m["trace.coverage"] > 0.5
    assert m["prep.calls"] == len(set(_smoke_workload(name).netlists()))
    kratt = sum(r.attack.startswith("kratt") for r in run.records)
    assert m["kratt.removal.calls"] == kratt
    assert (m["dip.find_dip.calls"] > 0) == (kratt < len(run.records))


def test_run_reexecutes_with_the_seed_as_hash_seed(monkeypatch):
    import run

    class Exec(Exception):
        pass

    def execve(path, args, env):
        raise Exec(args, env)

    monkeypatch.setattr(os, "execve", execve)
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    argv = ["--workload", "dflt-kratt", "--seed", "7", "--seconds", "1"]
    with pytest.raises(Exec) as raised:
        run.main(argv)
    args, env = raised.value.args
    assert args[-len(argv):] == argv and env["PYTHONHASHSEED"] == "7"
    assert run._hash_seed(-1) == str((1 << 32) - 1)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dflt-kratt",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
