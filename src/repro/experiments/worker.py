"""Queue-draining campaign workers and the fleet that runs them.

Every parallel or hard-timeout campaign cell, and every ``repro serve``
job cell, runs through this module:

* :func:`run_queue_backend` — the parent side of a ``repro campaign
  run`` with ``workers > 1`` or a ``cell_timeout``: fills the durable
  queue with this run's cells, keeps a local :class:`Fleet` at strength
  while work remains (a worker lost to SIGKILL, OOM or fault injection
  is respawned, its leased cell recovered via TTL expiry), and returns
  once the queue is drained with every record published and audited.
* :class:`Fleet` — the one supervisor of local worker processes, shared
  by campaigns and ``repro serve``: spawn, respawn, kill.  Every fleet
  worker runs the same entry point, which retires the worker at its
  next claim once its supervising parent is gone.
* :func:`worker_loop` — one worker's life: claim a lease, run the cell,
  publish its canonical JSON record, ack; on failure report to the
  queue (retry with backoff, or quarantine).  ``repro worker <dir>``
  runs exactly this against any campaign directory, so extra processes
  — or other hosts mounting the same storage — can join a drain at any
  time.
* :func:`run_one_cell_hard` — one cell in a killable child process,
  the way a worker enforces ``cell_timeout``.

Crash-window recovery, by construction:

* died mid-cell            -> lease expires, cell requeued, rerun
* died before publish      -> same (no record, rerun)
* died after publish,      -> next claimer finds the published record
  before ack                  and acks without re-running (no duplicate
                              work, no duplicate rows)
* record torn/corrupt      -> queue audit requeues the cell
* stale worker (lost lease) -> its publish is byte-equivalent by
  determinism; its ack/fail are lease-guarded no-ops
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
import traceback
import uuid

from . import campaign as _campaign
from . import faultinject
from .queue import CellQueue, QueueCorruption
from .records import make_cell_record

__all__ = [
    "Fleet",
    "default_worker_id",
    "fill_queue",
    "worker_loop",
    "run_queue_backend",
    "run_one_cell_hard",
    "publish_quarantine_records",
]


def default_worker_id():
    """A fleet-unique worker identity (host + pid + nonce)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _record_path(spec, cell_id):
    return os.path.join(spec.cells_dir, f"{cell_id}.json")


def _terminal_record_loader(spec):
    """cell_id -> finished record (ok/timeout/poisoned) or None."""

    def load(cell_id):
        return _campaign._load_cell_record(_record_path(spec, cell_id))

    return load


# -- one cell in a killable child process --------------------------------

def _mp_context(spec):
    if spec.mp_context:
        return multiprocessing.get_context(spec.mp_context)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: Sentinel the cell child sends the moment it starts executing the
#: payload, so ``cell_timeout`` is billed against cell work, not process
#: bootstrap (interpreter start + imports under spawn contexts).
_CELL_STARTED = "__cell_started__"

#: Allowance for process bootstrap before the started sentinel arrives;
#: a child hung in imports is still killed, just not a healthy
#: spawn-context child that spent seconds booting.
_BOOT_GRACE_S = 30.0

#: "The child's pipe is closed and empty": it exited (or was SIGKILLed)
#: without sending a record.  Distinct from ``None`` ("nothing within
#: the wait"), so a crash is classified the moment the pipe closes.
_PIPE_CLOSED = "__pipe_closed__"


def _run_cell_child(payload, conn):
    """Per-cell child entry point: run the cell, pipe the record."""
    conn.send(_CELL_STARTED)
    conn.send(_campaign._run_cell_payload(payload))
    conn.close()


def _recv(conn, timeout):
    """The next message within ``timeout`` s, ``None``, or ``_PIPE_CLOSED``."""
    if not conn.poll(timeout):
        return None
    try:
        return conn.recv()
    except EOFError:
        return _PIPE_CLOSED


def _kill_process(proc):
    """Terminate a process, escalating to SIGKILL if it lingers."""
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


def run_one_cell_hard(spec, cell, payload):
    """Run one cell in a killable child, enforcing ``spec.cell_timeout``.

    Waits for the child's started sentinel within the boot grace, then
    for its record within ``cell_timeout``.  Returns the raw record (not
    yet finalized): the child's own, even one that lands inside the kill
    window; a ``status="timeout"`` record when the child was killed; or
    an ``error`` record the moment the pipe closes without a result
    (SIGKILL, OOM, segfault).  Each child starts with a cold per-process
    ``PrepCache``; the shared prep store is what amortizes preparation
    across such cells.
    """
    ctx = _mp_context(spec)
    limit = spec.cell_timeout
    conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_run_cell_child, args=(payload, child_conn),
                       daemon=True)
    proc.start()
    child_conn.close()
    started = time.monotonic()
    try:
        record = _recv(conn, _BOOT_GRACE_S)
        if record == _CELL_STARTED:
            started = time.monotonic()
            record = _recv(conn, limit)
        if record is None:
            _kill_process(proc)
            record = _recv(conn, 0)
            if record == _CELL_STARTED:
                record = _recv(conn, 0)
            if not isinstance(record, dict):
                return make_cell_record(
                    artifact=cell.artifact, params=cell.params,
                    status="timeout", elapsed=time.monotonic() - started,
                    pid=proc.pid, timed_out=True, cell_timeout=limit,
                )
        if record is _PIPE_CLOSED:
            proc.join(5.0)
            return make_cell_record(
                artifact=cell.artifact, params=cell.params, status="error",
                error=(f"cell worker died without a result "
                       f"(exitcode {proc.exitcode})"),
                elapsed=time.monotonic() - started, pid=proc.pid,
                cell_timeout=limit,
            )
        return record
    finally:
        proc.join(5.0)
        if proc.is_alive():
            _kill_process(proc)
        conn.close()


# -- one worker ----------------------------------------------------------

class _LeaseHeartbeat(threading.Thread):
    """Extends one claimed lease until stopped (its own DB connection).

    A worker alive but slow on a long cell must not lose its lease; a
    worker that dies takes this daemon thread with it, the heartbeats
    stop, and the lease expires — which is the whole recovery story.
    """

    daemon = True

    def __init__(self, directory, config, cell_id, worker_id):
        super().__init__(name=f"lease-heartbeat-{cell_id[:32]}")
        self._directory = directory
        self._config = config
        self._cell_id = cell_id
        self._worker_id = worker_id
        self._halt = threading.Event()

    def run(self):
        queue = CellQueue(self._directory, self._config)
        try:
            while not self._halt.wait(self._config.heartbeat_period):
                if not queue.heartbeat(self._cell_id, self._worker_id):
                    break  # lease lost; nothing left to extend
        except QueueCorruption:
            pass  # the orchestrator rebuilds; dying quietly is correct
        finally:
            queue.close()

    def stop(self):
        self._halt.set()
        self.join(timeout=5.0)


def _publish(spec, record, cell_id, worker_id, attempt, job=None):
    """Finalize + atomically publish one record, with fault hooks."""
    record = _campaign.finalize_cell_record(
        record, cell_id, cell_timeout=spec.cell_timeout
    )
    record["worker"] = worker_id
    record["attempt"] = int(attempt)
    if job is not None:
        record["job"] = str(job)
    path = _record_path(spec, cell_id)
    faultinject.crash_point("before_publish", cell_id, attempt)
    _campaign._atomic_write_json(path, record)
    faultinject.torn_record_point(path, cell_id, attempt)
    faultinject.crash_point("after_publish", cell_id, attempt)
    return record


def _quarantine_record(spec, task):
    """Build the poisoned record from a task's preserved failures."""
    failures = list(task.failures)
    details = "\n\n".join(
        f"--- attempt {f.get('attempt', '?')} "
        f"(worker {f.get('worker', '?')}):\n{f.get('error', '')}"
        for f in failures
    )
    return make_cell_record(
        artifact=task.artifact,
        params=task.params,
        status="poisoned",
        error=(
            f"quarantined after {task.attempts} failed claims:\n{details}"
        ),
        cell_timeout=spec.cell_timeout,
        cell_id=task.cell_id,
        attempt=task.attempts,
        failures=failures,
        job=task.job,
    )


def publish_quarantine_records(spec, queue, cell_ids=None):
    """Persist a poisoned record for quarantined tasks that lack one.

    Covers quarantines nobody was alive to publish (a lease that
    expired past ``max_attempts`` under a dead worker).  Skips tasks
    that somehow acquired a valid terminal record (e.g. a stale worker
    eventually succeeded): the published result wins over the verdict.
    """
    loader = _terminal_record_loader(spec)
    published = []
    for task in queue.tasks(state="poisoned"):
        if cell_ids is not None and task.cell_id not in cell_ids:
            continue
        if loader(task.cell_id) is not None:
            continue
        record = _campaign.finalize_cell_record(
            _quarantine_record(spec, task), task.cell_id,
            cell_timeout=spec.cell_timeout,
        )
        _campaign._atomic_write_json(_record_path(spec, task.cell_id), record)
        published.append(task.cell_id)
    return published


def _process_task(spec, queue, config, task, worker_id):
    """Run one claimed task to an ack/fail; returns the outcome label.

    Both ``queue.ack`` sites are lease-guarded: a worker whose lease
    expired under it (and whose cell was reclaimed) gets ``False`` back,
    and its outcome is reported as ``"stale"`` — the published record is
    byte-equivalent by determinism, but the completion belongs to the
    live claimant, so a stale worker must not count it as its own.
    """
    cell_id = task.cell_id
    attempt = task.attempts
    # Exported so fault hooks and attempt-aware cells (selftest) see the
    # claim number without plumbing it through every call layer.
    os.environ["REPRO_CELL_ATTEMPT"] = str(attempt)
    try:
        existing = _campaign._load_cell_record(_record_path(spec, cell_id))
        if existing is not None:
            # Crash-after-publish/before-ack recovery: the work is done
            # and persisted; just settle the ledger.
            if not queue.ack(cell_id, worker_id, existing["status"]):
                return "stale"
            return "recovered"
        stalled = faultinject.stall_point(cell_id, attempt)
        heartbeat = None
        if not stalled:
            heartbeat = _LeaseHeartbeat(
                spec.directory, config, cell_id, worker_id
            )
            heartbeat.start()
        try:
            options = (task.options if task.options is not None
                       else spec.options)
            payload = (task.artifact, task.params, options)
            try:
                if spec.cell_timeout is not None:
                    cell = _campaign.CampaignCell(
                        task.artifact, task.index, cell_id, task.params
                    )
                    record = run_one_cell_hard(spec, cell, payload)
                else:
                    record = _campaign._run_cell_payload(payload)
            except Exception:
                # Infrastructure failure (spawn failure, prep-store read
                # error, pipe EOF...): retryable, never fatal to the
                # worker loop.
                outcome = queue.fail(
                    cell_id, worker_id,
                    f"infrastructure failure on worker {worker_id}:\n"
                    + traceback.format_exc(),
                )
                if outcome == "poisoned":
                    publish_quarantine_records(spec, queue, [cell_id])
                return outcome
            if record["status"] in ("ok", "timeout"):
                _publish(spec, record, cell_id, worker_id, attempt,
                         job=task.job)
                if not queue.ack(cell_id, worker_id, record["status"]):
                    return "stale"
                return record["status"]
            # status == "error": a failed attempt — let the queue decide
            # between backoff-retry and quarantine.
            outcome = queue.fail(cell_id, worker_id, record["error"])
            if outcome == "poisoned":
                publish_quarantine_records(spec, queue, [cell_id])
            return outcome
        finally:
            if heartbeat is not None:
                heartbeat.stop()
    finally:
        os.environ.pop("REPRO_CELL_ATTEMPT", None)


def worker_loop(spec, worker_id=None, max_cells=None, config=None,
                progress=None, exit_when_drained=True, should_stop=None):
    """Drain the campaign's queue until empty (or ``max_cells`` claims).

    Only drains: whoever owns the run fills the queue first (a campaign
    and ``repro worker`` through :func:`fill_queue`, the service per
    job).  Safe to run concurrently with any number of other workers,
    locally or from other hosts sharing the campaign directory.  Returns
    a small outcome histogram.

    With ``exit_when_drained=False`` the worker outlives the drain and
    keeps polling for new tasks — the shape a ``repro serve`` fleet
    worker runs in, where jobs arrive at any time.  ``should_stop`` is
    an optional callable checked between claims (the fleet's orphan
    check against its supervisor's pid).
    """
    worker_id = worker_id or default_worker_id()
    config = config or spec.queue_config()
    queue = CellQueue(spec.directory, config)
    stats = {"worker": worker_id, "claimed": 0}
    try:
        while True:
            if should_stop is not None and should_stop():
                stats["stopped"] = True
                break
            if max_cells is not None and stats["claimed"] >= max_cells:
                break
            try:
                task = queue.claim(worker_id)
            except QueueCorruption:
                # The orchestrator (or next `campaign run`) rebuilds the
                # queue from the records; this worker just retires.
                stats["corrupt"] = True
                break
            if task is None:
                if exit_when_drained and queue.drained():
                    break
                time.sleep(config.poll)
                continue
            stats["claimed"] += 1
            outcome = _process_task(spec, queue, config, task, worker_id)
            stats[outcome] = stats.get(outcome, 0) + 1
            if progress is not None:
                progress(
                    f"[{outcome}] {task.cell_id} "
                    f"(attempt {task.attempts}, worker {worker_id})"
                )
    finally:
        queue.close()
    return stats


# -- the fleet -------------------------------------------------------------

def _install_sigterm_exit():
    """Make SIGTERM raise SystemExit so ``finally`` blocks run.

    A worker killed by its supervisor mid-cell must still tear down the
    per-cell hard-timeout child it spawned; the default SIGTERM
    disposition skips every ``finally``, leaking the child.
    """
    def _exit(signum, frame):
        raise SystemExit(143)

    try:
        signal.signal(signal.SIGTERM, _exit)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform: keep the default


def _fleet_worker_entry(spec_data, worker_id, parent_pid, exit_when_drained):
    """Every fleet worker's entry point: drain, and retire if orphaned.

    The worker watches its supervisor's pid between claims and retires
    once it is gone, so a SIGKILLed campaign or daemon — which runs no
    cleanup — cannot leave workers draining on behind it.
    """
    _install_sigterm_exit()
    spec = _campaign.CampaignSpec.from_dict(spec_data)
    worker_loop(
        spec, worker_id=worker_id, exit_when_drained=exit_when_drained,
        should_stop=lambda: os.getppid() != parent_pid,
    )


class Fleet:
    """This host's queue workers for one campaign directory.

    Workers are NOT daemonic: a daemonic process cannot spawn the
    per-cell hard-timeout child (:func:`run_one_cell_hard`), which once
    turned every ``cell_timeout`` cell into a poisoned "daemonic
    processes are not allowed to have children" failure.  Orphans are
    prevented twice over: :meth:`stop` kills the fleet, and each worker
    retires by itself when its supervisor dies.

    ``exit_when_drained`` picks the worker shape: campaign workers retire
    once the queue drains, service workers poll for new jobs forever.
    ``respawn_cap`` bounds how many dead workers :meth:`keep` replaces
    before giving up (``None``: no bound).
    """

    def __init__(self, spec, size, name, exit_when_drained=True,
                 respawn_cap=None):
        self.spec = spec
        self.size = size
        self._name = name
        self._exit_when_drained = exit_when_drained
        self._respawn_cap = respawn_cap
        self._ctx = _mp_context(spec)
        self._procs = []
        self._spawned = 0
        self._respawns = 0

    def _spawn(self):
        self._spawned += 1
        proc = self._ctx.Process(
            target=_fleet_worker_entry,
            args=(self.spec.to_dict(),
                  f"{self._name}-{self._spawned}-{os.getpid()}",
                  os.getpid(), self._exit_when_drained),
        )
        proc.start()
        return proc

    def keep(self):
        """Hold the fleet at ``size`` live workers, replacing dead ones."""
        while len(self._procs) < self.size:
            self._procs.append(self._spawn())
        for i, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            proc.join()
            self._respawns += 1
            if (self._respawn_cap is not None
                    and self._respawns > self._respawn_cap):
                raise _campaign.CampaignError(
                    f"campaign {self.spec.name!r}: queue workers "
                    f"restarted {self._respawns} times without "
                    "draining the queue; giving up"
                )
            self._procs[i] = self._spawn()

    def alive(self):
        return sum(1 for proc in self._procs if proc.is_alive())

    def stop(self):
        """Kill every live worker and reap the fleet."""
        for proc in self._procs:
            if proc.is_alive():
                _kill_process(proc)
            else:
                proc.join()
        self._procs = []


# -- the campaign's queue path ---------------------------------------------

def fill_queue(spec, cells=None, rerun=False):
    """Open the campaign's queue with exactly ``cells`` left to run.

    Grid cells with a finished record are reconciled to done; cells
    outside ``cells`` with no record are left out, and withdrawn if an
    interrupted run left them queued, so ``run_campaign(limit=...)``
    bounds what the fleet runs.  ``rerun`` resets ``cells`` to fresh
    pending tasks (their records must already be gone).  ``cells=None``
    queues the whole grid and withdraws nothing — what ``repro worker``
    does, also on a service directory whose tasks belong to jobs.  A
    corrupt queue is rebuilt once from the records.
    """
    loader = _terminal_record_loader(spec)
    grid = _campaign.expand_cells(spec)
    if cells is not None:
        wanted = {cell.cell_id for cell in cells}
        grid = [cell for cell in grid if cell.cell_id in wanted
                or loader(cell.cell_id) is not None]
    for _attempt in range(2):
        queue = CellQueue(spec.directory, spec.queue_config())
        try:
            queue.ensure(grid, loader)
            if cells is not None:
                queue.withdraw(wanted)
                if rerun:
                    queue.reset(sorted(wanted))
            return queue
        except QueueCorruption:
            queue.close()
            CellQueue.destroy(spec.directory)
    raise _campaign.CampaignError(
        f"campaign {spec.name!r}: could not initialize the work queue at "
        f"{spec.directory}"
    )


def _emit_new_records(spec, seen, progress):
    if progress is None:
        return
    try:
        entries = os.listdir(spec.cells_dir)
    except OSError:
        return
    for entry in sorted(entries):
        if not entry.endswith(".json") or entry in seen:
            continue
        record = _campaign._read_cell_record(
            os.path.join(spec.cells_dir, entry)
        )
        if record is None:
            continue  # mid-publish or torn; it will come around again
        seen.add(entry)
        progress(
            f"[{record['status']}] {record.get('cell_id', entry[:-5])} "
            f"({record['elapsed']:.2f}s, pid {record['pid']})"
        )


def run_queue_backend(spec, cells, progress=None, rerun=False):
    """Drain ``cells`` on the durable queue with a local fleet.

    Runs ``max(1, spec.workers)`` workers and keeps the fleet at
    strength while work remains.  Completion requires the queue to be
    drained *and* every done task's record to pass audit (torn records
    requeue their cells).  ``rerun`` is :func:`fill_queue`'s.
    """
    config = spec.queue_config()
    loader = _terminal_record_loader(spec)
    queue = fill_queue(spec, cells, rerun=rerun)
    size = max(1, spec.workers or 1)
    # Generous but finite: quarantine bounds failures per cell, so a
    # respawn storm beyond this is a bug, not bad luck.
    fleet = Fleet(spec, size, "local",
                  respawn_cap=8 * max(1, len(cells)) + 4 * size + 16)
    # Resumed cells' records predate this run; only report new ones.
    seen_records = set()
    try:
        seen_records.update(
            e for e in os.listdir(spec.cells_dir) if e.endswith(".json")
        )
    except OSError:
        pass
    try:
        while True:
            _emit_new_records(spec, seen_records, progress)
            drained = False
            try:
                if queue.drained():
                    drained = True
                    publish_quarantine_records(spec, queue)
                    if queue.audit(loader):
                        # Torn/corrupt records came back as pending:
                        # the fleet must re-run them.
                        drained = False
                    elif not fleet.alive():
                        # Final only once every worker has retired: a
                        # stale straggler (expired lease) may still
                        # overwrite a record after this audit, so the
                        # drain cannot be declared while one lives.
                        break
            except QueueCorruption:
                queue.close()
                CellQueue.destroy(spec.directory)
                queue = fill_queue(spec, cells)
                drained = False
            if not drained:
                # Work remains: keep the fleet at strength.  (While
                # drained we deliberately let exited workers lie —
                # respawning them would churn claim-nothing processes
                # against the straggler wait above.)
                fleet.keep()
            time.sleep(config.poll)
        _emit_new_records(spec, seen_records, progress)
    finally:
        fleet.stop()
        queue.close()
