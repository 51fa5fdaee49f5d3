"""Durable SQLite-backed work queue for campaign cells.

The queue turns a campaign's expanded cell grid into *claimable tasks*
that any number of worker processes — on one host, or on many hosts
sharing the campaign directory — drain concurrently.  It is the
robustness layer under every parallel or hard-timeout ``repro campaign
run``, ``repro serve`` and the standalone ``repro worker`` entrypoint,
and the seam a later Redis/HTTP backend slots into (same claim/ack/fail
verbs, different transport).

Design invariants:

* **Leases, not locks.**  A claim hands the worker a lease with a TTL.
  A worker that is SIGKILLed, loses power, or wedges simply stops
  heartbeating; the expired lease is atomically requeued on the next
  claim, so no failure mode strands work.
* **Bounded retries with exponential backoff + deterministic jitter.**
  A failed attempt (cell error, infrastructure failure, or a lease that
  expired under a dead worker) reschedules the cell no earlier than
  ``backoff_base * 2^(attempt-1)`` seconds out, jittered by a pure hash
  of ``(cell_id, attempt)`` so replays are reproducible.
* **Poison-cell quarantine.**  A cell failing on ``max_attempts``
  distinct claims moves to state ``poisoned`` instead of retrying
  forever; every failure's traceback is preserved on the task (and in
  the published ``status="poisoned"`` record).
* **The queue is derived state.**  Published cell records under
  ``cells/`` are the source of truth; the queue file can be deleted or
  corrupted at any time and is rebuilt from the spec plus the records
  (:class:`QueueCorruption` signals callers to do exactly that).

On-disk: one ``queue.sqlite`` (WAL mode) inside the campaign directory,
next to ``spec.json`` and ``cells/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict

__all__ = [
    "QUEUE_FILENAME",
    "QueueConfig",
    "QueueTask",
    "QueueCorruption",
    "CellQueue",
    "queue_path",
    "backoff_delay",
]

#: Name of the queue database inside a campaign directory.
QUEUE_FILENAME = "queue.sqlite"

#: Task states.  pending -> leased -> done | poisoned (pending again on
#: failure/expiry while attempts remain); pending -> cancelled when a
#: job's deadline expires before the cell was claimed.
TASK_STATES = ("pending", "leased", "done", "poisoned", "cancelled")


def queue_path(directory):
    return os.path.join(directory, QUEUE_FILENAME)


class QueueCorruption(RuntimeError):
    """The queue database is unreadable; rebuild it from the records."""


@dataclass(frozen=True)
class QueueConfig:
    """Tuning for one campaign's queue (``CampaignSpec.queue``)."""

    lease_ttl: float = 60.0       # seconds a claim stays valid unheartbeaten
    max_attempts: int = 3         # distinct claims before quarantine
    backoff_base: float = 0.25    # first retry delay (doubles per attempt)
    backoff_cap: float = 30.0     # retry delay ceiling
    backoff_jitter: float = 0.25  # max fractional jitter added to a delay
    heartbeat: float = 0.0        # lease-extension period; 0 = lease_ttl/3
    poll: float = 0.05            # worker idle poll period

    def __post_init__(self):
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")
        if self.poll <= 0:
            raise ValueError("poll must be positive")
        if self.heartbeat < 0:
            raise ValueError("heartbeat must be >= 0 (0 = lease_ttl/3)")
        if self.heartbeat > 0 and self.heartbeat >= self.lease_ttl:
            raise ValueError(
                "heartbeat must be shorter than lease_ttl "
                f"({self.heartbeat} >= {self.lease_ttl}): a lease would "
                "always expire before its first extension"
            )

    @property
    def heartbeat_period(self):
        return self.heartbeat if self.heartbeat > 0 else self.lease_ttl / 3.0

    @classmethod
    def from_dict(cls, data):
        data = dict(data or {})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown queue config keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class QueueTask:
    """One claimable cell, as stored in the queue."""

    cell_id: str
    artifact: str
    index: int
    params: dict
    state: str
    attempts: int
    not_before: float
    lease_owner: str = None
    lease_expires: float = None
    result_status: str = None
    failures: tuple = ()
    job: str = None       # owning service job id, None for direct campaigns
    options: dict = None  # per-task options override (None = spec.options)


def backoff_delay(cell_id, attempt, config):
    """Deterministic backoff for the next claim after a failed attempt.

    Exponential in the attempt number, capped, plus a jitter fraction
    drawn from a pure hash of ``(cell_id, attempt)`` — reproducible, yet
    decorrelated across cells so a burst of failures does not stampede.
    """
    base = min(config.backoff_base * (2.0 ** max(0, attempt - 1)),
               config.backoff_cap)
    digest = hashlib.sha256(f"backoff|{cell_id}|{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return base * (1.0 + config.backoff_jitter * unit)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    cell_id       TEXT PRIMARY KEY,
    artifact      TEXT NOT NULL,
    idx           INTEGER NOT NULL,
    params        TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    not_before    REAL NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    result_status TEXT,
    failures      TEXT NOT NULL DEFAULT '[]',
    job           TEXT,
    options       TEXT
);
CREATE INDEX IF NOT EXISTS tasks_by_state ON tasks (state, not_before, idx);
"""

#: Columns added after the PR-6 schema; old queue files are migrated in
#: place (the queue is derived state, but migration beats a rebuild).
_MIGRATIONS = (
    ("job", "ALTER TABLE tasks ADD COLUMN job TEXT"),
    ("options", "ALTER TABLE tasks ADD COLUMN options TEXT"),
)

#: DatabaseError messages that mean "this file is not a usable queue".
_CORRUPTION_MARKERS = (
    "file is not a database",
    "not a database",
    "database disk image is malformed",
    "unsupported file format",
    "no such table",
)


def _translate(exc):
    text = str(exc).lower()
    if any(marker in text for marker in _CORRUPTION_MARKERS):
        return QueueCorruption(f"queue database unusable: {exc}")
    return exc


class CellQueue:
    """Claim/ack/fail interface over one campaign's ``queue.sqlite``.

    Every public method is one atomic transaction (``BEGIN IMMEDIATE``),
    so concurrent workers — processes or hosts on shared storage — see a
    serialized queue.  Instances are cheap; open one per process/thread
    (SQLite connections must not cross forks or threads).
    """

    def __init__(self, directory, config=None, clock=time.time):
        self.directory = directory
        self.path = queue_path(directory)
        self.config = config or QueueConfig()
        self._clock = clock
        self._conn = None

    # -- connection management ----------------------------------------
    def _connection(self):
        if self._conn is None:
            os.makedirs(self.directory, exist_ok=True)
            try:
                conn = sqlite3.connect(self.path, timeout=30.0,
                                       isolation_level=None)
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA busy_timeout=30000")
                conn.executescript(_SCHEMA)
                present = {row[1] for row in
                           conn.execute("PRAGMA table_info(tasks)")}
                for column, ddl in _MIGRATIONS:
                    if column not in present:
                        conn.execute(ddl)
                conn.execute(
                    "CREATE INDEX IF NOT EXISTS tasks_by_job "
                    "ON tasks (job, state)"
                )
            except sqlite3.DatabaseError as exc:
                raise _translate(exc) from exc
            self._conn = conn
        return self._conn

    def close(self):
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    @staticmethod
    def destroy(directory):
        """Delete the queue database (it is derived state; see module doc)."""
        removed = False
        for suffix in ("", "-wal", "-shm"):
            path = queue_path(directory) + suffix
            try:
                os.unlink(path)
                removed = True
            except FileNotFoundError:
                pass
        return removed

    @contextmanager
    def _txn(self):
        conn = self._connection()
        try:
            conn.execute("BEGIN IMMEDIATE")
            yield conn
            conn.execute("COMMIT")
        except sqlite3.DatabaseError as exc:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise _translate(exc) from exc

    def _now(self, now=None):
        return self._clock() if now is None else now

    # -- population + reconciliation ----------------------------------
    def ensure(self, cells, record_loader=None, job=None, options=None):
        """Insert missing tasks and reconcile state against the records.

        ``cells`` is the campaign's expanded cell list (objects with
        ``cell_id``/``artifact``/``params``); ``record_loader`` maps a
        cell id to its *terminal* record or ``None``.  ``job`` tags the
        inserted tasks with an owning service job id, and ``options``
        attaches a per-task options override (service jobs carry their
        own option grids; direct campaign cells leave both NULL and run
        under ``spec.options``).  Reconciliation repairs every crash
        window: a task in any live state whose record was already
        published becomes ``done`` (crash after publish, before ack) —
        including ``cancelled`` tasks whose cell finished before the
        cancel landed — and a ``done``/``poisoned`` task whose record is
        missing or corrupt goes back to ``pending``.
        """
        now = self._now()
        repaired = {"inserted": 0, "completed": 0, "requeued": 0}
        options_json = (None if options is None
                        else json.dumps(options, sort_keys=True))
        with self._txn() as conn:
            for index, cell in enumerate(cells):
                cur = conn.execute(
                    "INSERT OR IGNORE INTO tasks (cell_id, artifact, idx, "
                    "params, state, not_before, job, options) VALUES "
                    "(?, ?, ?, ?, 'pending', 0, ?, ?)",
                    (cell.cell_id, cell.artifact, index,
                     json.dumps(cell.params, sort_keys=True),
                     job, options_json),
                )
                repaired["inserted"] += cur.rowcount
            if record_loader is None:
                return repaired
            rows = conn.execute(
                "SELECT cell_id, state FROM tasks"
            ).fetchall()
            for cell_id, state in rows:
                record = record_loader(cell_id)
                if record is not None and state not in ("done", "poisoned"):
                    conn.execute(
                        "UPDATE tasks SET state='done', result_status=?, "
                        "lease_owner=NULL, lease_expires=NULL WHERE cell_id=?",
                        (record.get("status"), cell_id),
                    )
                    repaired["completed"] += 1
                elif record is None and state == "done":
                    conn.execute(
                        "UPDATE tasks SET state='pending', not_before=?, "
                        "lease_owner=NULL, lease_expires=NULL, "
                        "result_status=NULL WHERE cell_id=?",
                        (now, cell_id),
                    )
                    repaired["requeued"] += 1
        return repaired

    # -- the worker verbs ---------------------------------------------
    def _recover_expired(self, conn, now):
        """Requeue (or quarantine) every task whose lease has expired."""
        rows = conn.execute(
            "SELECT cell_id, attempts, lease_owner, failures FROM tasks "
            "WHERE state='leased' AND lease_expires < ?",
            (now,),
        ).fetchall()
        for cell_id, attempts, owner, failures_json in rows:
            failures = json.loads(failures_json)
            failures.append({
                "worker": owner,
                "attempt": attempts,
                "error": (
                    f"lease expired after claim {attempts} by {owner!r} "
                    "(worker died or stalled past the TTL)"
                ),
                "time": now,
            })
            if attempts >= self.config.max_attempts:
                conn.execute(
                    "UPDATE tasks SET state='poisoned', lease_owner=NULL, "
                    "lease_expires=NULL, failures=? WHERE cell_id=?",
                    (json.dumps(failures), cell_id),
                )
            else:
                conn.execute(
                    "UPDATE tasks SET state='pending', lease_owner=NULL, "
                    "lease_expires=NULL, not_before=?, failures=? "
                    "WHERE cell_id=?",
                    (now + backoff_delay(cell_id, attempts, self.config),
                     json.dumps(failures), cell_id),
                )
        return len(rows)

    def claim(self, worker, now=None):
        """Atomically lease the next runnable task, or return ``None``.

        Expired leases are recovered first, so a fleet of claimers is
        also the queue's garbage collector — no separate reaper process
        needs to stay alive for crashed workers' cells to requeue.
        """
        now = self._now(now)
        with self._txn() as conn:
            self._recover_expired(conn, now)
            row = conn.execute(
                "SELECT cell_id, artifact, idx, params, attempts, failures, "
                "job, options FROM tasks WHERE state='pending' AND "
                "not_before <= ? ORDER BY idx LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            (cell_id, artifact, idx, params, attempts, failures,
             job, options) = row
            conn.execute(
                "UPDATE tasks SET state='leased', lease_owner=?, "
                "lease_expires=?, attempts=? WHERE cell_id=?",
                (worker, now + self.config.lease_ttl, attempts + 1, cell_id),
            )
            return QueueTask(
                cell_id=cell_id, artifact=artifact, index=idx,
                params=json.loads(params), state="leased",
                attempts=attempts + 1, not_before=0.0, lease_owner=worker,
                lease_expires=now + self.config.lease_ttl,
                failures=tuple(json.loads(failures)),
                job=job,
                options=None if options is None else json.loads(options),
            )

    def heartbeat(self, cell_id, worker, now=None):
        """Extend a held lease; False means the lease was already lost."""
        now = self._now(now)
        with self._txn() as conn:
            cur = conn.execute(
                "UPDATE tasks SET lease_expires=? WHERE cell_id=? AND "
                "state='leased' AND lease_owner=?",
                (now + self.config.lease_ttl, cell_id, worker),
            )
            return cur.rowcount == 1

    def ack(self, cell_id, worker, result_status, now=None):
        """Mark a leased task done (record already published).

        Lease-guarded: a stale worker whose lease expired (and whose
        cell was reclaimed) gets ``False`` and must treat the ack as a
        no-op — the record it published is identical by determinism, and
        the live claimant owns the task's fate.
        """
        with self._txn() as conn:
            cur = conn.execute(
                "UPDATE tasks SET state='done', result_status=?, "
                "lease_owner=NULL, lease_expires=NULL WHERE cell_id=? AND "
                "state='leased' AND lease_owner=?",
                (result_status, cell_id, worker),
            )
            return cur.rowcount == 1

    def fail(self, cell_id, worker, error, now=None):
        """Record a failed attempt; returns "requeued"|"poisoned"|"stale".

        Requeues with exponential backoff while attempts remain, else
        quarantines the cell with every failure's traceback preserved.
        Lease-guarded like :meth:`ack`.
        """
        now = self._now(now)
        with self._txn() as conn:
            row = conn.execute(
                "SELECT attempts, failures FROM tasks WHERE cell_id=? AND "
                "state='leased' AND lease_owner=?",
                (cell_id, worker),
            ).fetchone()
            if row is None:
                return "stale"
            attempts, failures_json = row
            failures = json.loads(failures_json)
            failures.append({
                "worker": worker,
                "attempt": attempts,
                "error": error,
                "time": now,
            })
            if attempts >= self.config.max_attempts:
                conn.execute(
                    "UPDATE tasks SET state='poisoned', lease_owner=NULL, "
                    "lease_expires=NULL, failures=? WHERE cell_id=?",
                    (json.dumps(failures), cell_id),
                )
                return "poisoned"
            conn.execute(
                "UPDATE tasks SET state='pending', lease_owner=NULL, "
                "lease_expires=NULL, not_before=?, failures=? WHERE cell_id=?",
                (now + backoff_delay(cell_id, attempts, self.config),
                 json.dumps(failures), cell_id),
            )
            return "requeued"

    def cancel(self, cell_ids=None, job=None, now=None):
        """Cancel pending tasks (deadline expiry / user abort); returns ids.

        Select by explicit ``cell_ids``, by owning ``job``, or both (the
        intersection); refusing a call with neither guards against a
        bug cancelling an entire campaign.  Expired leases are recovered
        first so a dead worker's cell is cancellable, not stuck leased.
        Only ``pending`` tasks move to ``cancelled``: a live leased cell
        runs to completion and keeps its record (``ensure`` later flips
        a cancelled task whose record surfaced back to ``done``), and
        finished tasks are untouched.
        """
        if cell_ids is None and job is None:
            raise ValueError("cancel() needs cell_ids and/or job")
        now = self._now(now)
        cancelled = []
        with self._txn() as conn:
            self._recover_expired(conn, now)
            query = "SELECT cell_id FROM tasks WHERE state='pending'"
            args = []
            if job is not None:
                query += " AND job=?"
                args.append(job)
            rows = conn.execute(query + " ORDER BY idx", args).fetchall()
            wanted = None if cell_ids is None else set(cell_ids)
            for (cell_id,) in rows:
                if wanted is not None and cell_id not in wanted:
                    continue
                conn.execute(
                    "UPDATE tasks SET state='cancelled', lease_owner=NULL, "
                    "lease_expires=NULL WHERE cell_id=?",
                    (cell_id,),
                )
                cancelled.append(cell_id)
        return cancelled

    # -- inspection + maintenance -------------------------------------
    _TASK_COLUMNS = (
        "cell_id, artifact, idx, params, state, attempts, not_before, "
        "lease_owner, lease_expires, result_status, failures, job, options"
    )

    def get(self, cell_id):
        with self._txn() as conn:
            row = conn.execute(
                f"SELECT {self._TASK_COLUMNS} FROM tasks WHERE cell_id=?",
                (cell_id,),
            ).fetchone()
        return None if row is None else self._task(row)

    def tasks(self, state=None, job=None):
        query = f"SELECT {self._TASK_COLUMNS} FROM tasks"
        clauses, args = [], []
        if state is not None:
            clauses.append("state=?")
            args.append(state)
        if job is not None:
            clauses.append("job=?")
            args.append(job)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        with self._txn() as conn:
            rows = conn.execute(query + " ORDER BY idx", args).fetchall()
        return [self._task(row) for row in rows]

    @staticmethod
    def _task(row):
        (cell_id, artifact, idx, params, state, attempts, not_before,
         lease_owner, lease_expires, result_status, failures,
         job, options) = row
        return QueueTask(
            cell_id=cell_id, artifact=artifact, index=idx,
            params=json.loads(params), state=state, attempts=attempts,
            not_before=not_before, lease_owner=lease_owner,
            lease_expires=lease_expires, result_status=result_status,
            failures=tuple(json.loads(failures)),
            job=job,
            options=None if options is None else json.loads(options),
        )

    def counts(self, job=None):
        query = "SELECT state, COUNT(*) FROM tasks"
        args = ()
        if job is not None:
            query += " WHERE job=?"
            args = (job,)
        with self._txn() as conn:
            rows = conn.execute(query + " GROUP BY state", args).fetchall()
        counts = {state: 0 for state in TASK_STATES}
        counts.update(dict(rows))
        return counts

    def drained(self, now=None, job=None):
        """True when nothing is pending or leased — only terminal states.

        Recovers expired leases first so a queue whose last workers were
        all SIGKILLed still reports honestly (their cells come back as
        pending, and ``drained`` stays False until someone runs them).
        """
        now = self._now(now)
        query = ("SELECT COUNT(*) FROM tasks WHERE state IN "
                 "('pending', 'leased')")
        args = ()
        if job is not None:
            query += " AND job=?"
            args = (job,)
        with self._txn() as conn:
            self._recover_expired(conn, now)
            row = conn.execute(query, args).fetchone()
        return row[0] == 0

    def audit(self, record_loader, now=None):
        """Requeue done tasks whose published record no longer validates.

        Catches torn/corrupt record files after the fact; returns the
        ids reset to pending.
        """
        now = self._now(now)
        reset = []
        with self._txn() as conn:
            rows = conn.execute(
                "SELECT cell_id FROM tasks WHERE state='done'"
            ).fetchall()
            for (cell_id,) in rows:
                if record_loader(cell_id) is None:
                    conn.execute(
                        "UPDATE tasks SET state='pending', not_before=?, "
                        "lease_owner=NULL, lease_expires=NULL, "
                        "result_status=NULL WHERE cell_id=?",
                        (now, cell_id),
                    )
                    reset.append(cell_id)
        return reset

    def withdraw(self, keep, now=None):
        """Drop runnable tasks whose cell is not in ``keep``; returns ids.

        A run that caps its work (``run_campaign(limit=...)``) must not
        drain cells an interrupted earlier run left queued.  Pending
        tasks and expired leases go; live leases and finished tasks
        stay.  The queue is derived state: a later ``ensure`` inserts
        the dropped cells again (with a fresh attempt count).
        """
        now = self._now(now)
        keep = set(keep)
        with self._txn() as conn:
            self._recover_expired(conn, now)
            rows = conn.execute(
                "SELECT cell_id FROM tasks WHERE state='pending'"
            ).fetchall()
            dropped = [cell_id for (cell_id,) in rows if cell_id not in keep]
            conn.executemany("DELETE FROM tasks WHERE cell_id=?",
                             [(cell_id,) for cell_id in dropped])
        return dropped

    def reset(self, cell_ids, now=None):
        """Return tasks to a fresh pending state (``campaign retry``)."""
        now = self._now(now)
        with self._txn() as conn:
            for cell_id in cell_ids:
                conn.execute(
                    "UPDATE tasks SET state='pending', attempts=0, "
                    "not_before=?, lease_owner=NULL, lease_expires=NULL, "
                    "result_status=NULL, failures='[]' WHERE cell_id=?",
                    (now, cell_id),
                )
        return len(cell_ids)
