"""Worker-death recovery when a cell's killable child is SIGKILLed.

With a ``cell_timeout`` every cell runs on the work queue, in a killable
child of its worker.  A child SIGKILLed mid-cell must be classified as a
crash (not a timeout, not a hang) and preserved in the task's failures;
the queue retries it, the retried cell converges serial-identically, a
cell killed on every attempt is quarantined, and resume after a
``retry`` re-runs only that cell.
"""

import json
import os

from repro.experiments.campaign import (
    CampaignSpec,
    campaign_status,
    retry_campaign,
    run_campaign,
)
from repro.experiments.queue import CellQueue
from repro.experiments.records import validate_cell_record
from repro.experiments.worker import _PIPE_CLOSED, _recv

#: Near-zero backoff so the retry of a crashed cell is immediate.
QUEUE_FAST = {"backoff_base": 0.01, "backoff_cap": 0.05, "poll": 0.02}


def _spec(tmp_path, name, cells=4, queue=None, **kwargs):
    options = kwargs.pop("options", {})
    options.setdefault("cells", cells)
    return CampaignSpec(
        name=name,
        artifacts=("selftest",),
        options=options,
        results_root=str(tmp_path),
        mp_context="fork",
        queue=dict(QUEUE_FAST, **(queue or {})),
        **kwargs,
    )


def _serial_rows(tmp_path, cells):
    """The no-fault serial aggregate the recovered runs must reproduce."""
    spec = CampaignSpec(
        name="serial-ref", artifacts=("selftest",),
        options={"cells": cells}, results_root=str(tmp_path / "serial"),
    )
    outcome = run_campaign(spec)
    assert outcome.complete and not outcome.errors
    return outcome.tables["selftest"][1]


def _task(spec, cell_id):
    queue = CellQueue(spec.directory, spec.queue_config())
    try:
        return queue.get(cell_id)
    finally:
        queue.close()


def _record(spec, cell_id):
    with open(os.path.join(spec.cells_dir, f"{cell_id}.json")) as handle:
        return json.load(handle)


class TestWorkerDeathRecovery:
    def test_sigkilled_cell_child_leaves_canonical_crash_record(
        self, tmp_path
    ):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        spec = _spec(
            tmp_path, "rec-kill", cells=4, workers=2, cell_timeout=30.0,
            options={"kill_cells": [1], "kill_marker_dir": str(marker_dir)},
        )
        outcome = run_campaign(spec)
        assert outcome.complete, outcome.summary()
        assert outcome.errors == [] and outcome.poisoned == []
        assert outcome.timeouts == [], (
            "a SIGKILLed child is a crash, not a timeout"
        )
        # The crash is preserved on the task, and the retry converged.
        task = _task(spec, "selftest--cell=1")
        assert task.state == "done" and task.attempts == 2
        (failure,) = task.failures
        assert failure["attempt"] == 1
        assert "died without a result" in failure["error"]
        record = _record(spec, "selftest--cell=1")
        assert record["status"] == "ok" and record["attempt"] == 2
        assert record["timed_out"] is False
        assert record["cell_timeout"] == 30.0
        assert validate_cell_record(record) is not None
        assert outcome.tables["selftest"][1] == _serial_rows(tmp_path, 4), (
            "the retried cell must converge serial-identically"
        )

    def test_resume_reruns_only_the_crashed_cell(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        spec = _spec(
            tmp_path, "rec-resume", cells=4, workers=2, cell_timeout=30.0,
            queue={"max_attempts": 1},
            options={"kill_cells": [1], "kill_marker_dir": str(marker_dir)},
        )
        first = run_campaign(spec)
        assert first.poisoned == ["selftest--cell=1"]
        healthy = [f"selftest--cell={i}.json" for i in (0, 2, 3)]
        mtimes = {
            f: os.stat(os.path.join(spec.cells_dir, f)).st_mtime_ns
            for f in healthy
        }
        assert retry_campaign(spec) == ["selftest--cell=1"]
        # The marker file makes the next attempt survive.
        healed = run_campaign(spec)
        assert healed.complete and healed.errors == []
        assert healed.poisoned == []
        assert healed.skipped == 3 and healed.ran == 1
        for f, mtime in mtimes.items():
            assert os.stat(
                os.path.join(spec.cells_dir, f)
            ).st_mtime_ns == mtime, "resume must not re-run healthy cells"
        assert healed.tables["selftest"][1] == _serial_rows(tmp_path, 4), (
            "healed aggregate must be serial-identical"
        )

    def test_serialized_runner_recovers_from_worker_death_too(self, tmp_path):
        """workers<=1 with a cell_timeout still runs on the queue, each
        cell in a killable child, so the crash/retry story is identical."""
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        spec = _spec(
            tmp_path, "rec-hard", cells=3, workers=1, cell_timeout=30.0,
            options={"kill_cells": [0], "kill_marker_dir": str(marker_dir)},
        )
        outcome = run_campaign(spec)
        assert outcome.complete and outcome.errors == []
        task = _task(spec, "selftest--cell=0")
        assert task.attempts == 2
        assert "died without a result" in task.failures[0]["error"]
        assert outcome.tables["selftest"][1] == _serial_rows(tmp_path, 3)

    def test_cell_killed_on_every_attempt_is_quarantined(self, tmp_path):
        spec = _spec(
            tmp_path, "rec-poison", cells=3, workers=2, cell_timeout=30.0,
            queue={"max_attempts": 2}, options={"kill_cells": [2]},
        )
        outcome = run_campaign(spec)
        assert outcome.poisoned == ["selftest--cell=2"]
        assert outcome.errors == [] and outcome.timeouts == []
        record = _record(spec, "selftest--cell=2")
        assert record["status"] == "poisoned"
        assert len(record["failures"]) == 2
        for failure in record["failures"]:
            assert "died without a result" in failure["error"]
        # The surviving rows are exactly the serial ones.
        assert outcome.tables["selftest"][1] == [
            row for row in _serial_rows(tmp_path, 3) if row[0] != 2
        ]
        status = campaign_status(spec=spec)
        assert status["poisoned"] == ["selftest--cell=2"]
        assert status["pending"] == []


class TestPipeClosedSentinel:
    def test_drain_returns_sentinel_on_eof(self):
        """A SIGKILLed child's pipe must read as _PIPE_CLOSED, not None:
        crash classification may not depend on a poll-window race."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe(duplex=False)
        child.close()  # simulate the child dying with nothing buffered
        try:
            assert _recv(parent, 0) is _PIPE_CLOSED
        finally:
            parent.close()

    def test_sentinel_is_not_a_valid_record(self):
        assert validate_cell_record(_PIPE_CLOSED) is None
