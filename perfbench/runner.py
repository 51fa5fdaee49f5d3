"""Run one workload: set-up, attacks, scoring, and the metrics.

One process, one attack at a time, a closed loop with a single caller.
Per round:

1. **Set-up** (timed as ``setup_s``): every distinct netlist of the
   round is prepared cold — host generation, locking, resynthesis —
   into a fresh, empty prep store.  Set-ups of further netlists with
   fresh seeds, spread between the attacks, may add samples;
   ``setup_s`` is their median.
2. **Attacks** (timed one by one): each attack gets a fresh copy of its
   netlist, rebuilt from the set-up's serialized form so no cache is
   warm, and an oracle over the original circuit when it is
   oracle-guided.
3. **Scoring** (untimed): every returned key is scored with
   :func:`repro.attacks.score_key`.

The native libraries are built and loaded before any clock starts.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from tracer import END, NAME, PARENT, START, install_layers, self_times
from workloads import EXACT_ATTACKS, netlist_seeds

#: QBF cap of the campaign ``attack`` cell, which states it as a literal
#: default; its overall budget and SCOPE settings are imported from it.
QBF_TIME_LIMIT = 3.0

__all__ = ["AttackRecord", "RunResult", "load_backends", "host_speed",
           "run_workload", "end_to_end_metrics", "attack_outcomes",
           "layer_metrics"]


@dataclass
class AttackRecord:
    circuit: str
    technique: str
    attack: str
    lock_seed: int
    synth_seed: int
    inputs_sha: str
    wall_s: float
    outcome: str  # completed | budget | raised
    success: bool = False
    method: str = None
    oracle_queries: int = 0
    oracle_guided: bool = False
    total: int = 0
    dk: int = 0
    cdk: int = 0
    functional: bool = None
    key_ok: bool = True
    error: str = None

    @property
    def false_success(self):
        return self.success and self.functional is False

    def quality(self):
        """The run-invariant part of the record."""
        return (self.circuit, self.technique, self.attack, self.inputs_sha,
                self.outcome, self.success, self.method, self.oracle_queries,
                self.total, self.dk, self.cdk, self.functional)


@dataclass
class RunResult:
    records: list
    setup_samples: list
    #: Per round, the ``(cell, seeds)`` of each netlist and its payload.
    rounds: list

    @property
    def wall_s(self):
        return sum(r.wall_s for r in self.records)


def load_backends():
    """Build and load the native libraries; return the backends in use."""
    from repro.benchgen.registry import generate_host
    from repro.sat.solver import Solver

    engine = generate_host("c2670", scale="tiny", seed=0).compiled()
    return {
        "solver": Solver().backend,
        "sim": "native" if engine.ensure_native(force=True) else "python",
    }


def host_speed():
    """Seconds a fixed pure-Python loop takes: a reading of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def _setup_round(netlists, scale, work_dir):
    """Cold-prepare ``(cell, (lock_seed, synth_seed))`` netlists into a
    fresh store, at ``scale`` if given; ``(seconds, payloads)``."""
    from repro.experiments import harness, prepstore

    store = prepstore.PrepStore(root=tempfile.mkdtemp(prefix="store-",
                                                      dir=work_dir))
    start = time.perf_counter()
    prepared = [
        harness.prepare_locked(cell.circuit, cell.technique,
                               scale=scale or cell.scale,
                               seed=lock_seed, synth_seed=synth_seed,
                               cache=False, store=store,
                               key_width=cell.key_width)
        for cell, (lock_seed, synth_seed) in netlists
    ]
    elapsed = time.perf_counter() - start
    return elapsed, [prepstore.serialize_prepared(p, {}) for p in prepared]


def _attack(cell, prep, qbf_time_limit):
    from repro.attacks import (Oracle, appsat_attack, ddip_attack,
                               kratt_og_attack, kratt_ol_attack, sat_attack)
    from repro.experiments.tables import DEFAULT_OG_TIME_LIMIT, _SCOPE_FAST

    netlist, key_inputs = prep.netlist, prep.locked.key_inputs
    budget = DEFAULT_OG_TIME_LIMIT  # the cell's default ``budget``
    if cell.attack == "kratt_ol":
        return lambda: kratt_ol_attack(
            netlist, key_inputs, qbf_time_limit=qbf_time_limit,
            scope_kwargs=_SCOPE_FAST, technique=cell.technique,
            time_limit=budget)
    oracle = Oracle(prep.locked.original)
    if cell.attack == "kratt_og":
        return lambda: kratt_og_attack(
            netlist, key_inputs, oracle, qbf_time_limit=qbf_time_limit,
            technique=cell.technique, time_limit=budget)
    runner = {"sat": sat_attack, "ddip": ddip_attack,
              "appsat": appsat_attack}[cell.attack]
    return lambda: runner(netlist, key_inputs, oracle,
                          time_limit=budget, technique=cell.technique)


def _score(record, cell, prep, result, scores):
    """Fill the quality fields of ``record`` from ``result``.

    ``scores`` memoizes :func:`score_key` per (netlist, key), since the
    attacks sharing a netlist often return the same key.
    """
    from repro.attacks import score_key

    key = result.key or {}
    names = set(prep.locked.key_inputs)
    record.key_ok = set(key) <= names and all(
        v in (None, True, False) for v in key.values())
    memo = (record.inputs_sha, tuple(sorted(key.items())))
    if memo not in scores:
        scores[memo] = score_key(prep.locked, key)
    score = scores[memo]
    record.total, record.dk, record.cdk = score.total, score.dk, score.cdk
    record.functional = score.functional
    if record.success and (cell.attack in EXACT_ATTACKS
                           or record.method == "qbf"):
        # These methods prove the key before claiming it.
        record.key_ok = record.key_ok and score.functional is True


def _run_cell(cell, payload, seeds, qbf_time_limit, tracer, scores):
    """One attack on a fresh netlist, timed, then scored unless
    ``scores`` is ``None``; its record."""
    from repro.experiments.prepstore import deserialize_prepared

    prep = deserialize_prepared(payload)
    record = AttackRecord(
        cell.circuit, cell.technique, cell.attack, *seeds,
        hashlib.sha256(payload["netlist"]["bench"].encode()).hexdigest(),
        0.0, "raised", oracle_guided=cell.oracle_guided,
        total=len(prep.locked.key_inputs))  # a raised attack deciphers none
    run = _attack(cell, prep, qbf_time_limit)
    # Start every attack with empty collector generations, so when its
    # collections fall depends on its own allocations only, not on the
    # garbage of the attacks before it.
    gc.collect()
    if tracer is not None:
        tracer.phase = "attack"
        tracer.begin("attack")
    start = time.perf_counter()
    try:
        result = run()
    except Exception:  # noqa: BLE001 - counted, never dropped
        result = None
        record.error = traceback.format_exc()
        print(record.error, file=sys.stderr)
    record.wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
        tracer.phase = None
        tracer.begin("bench.score")
    if result is not None:
        record.outcome = "budget" if result.timed_out else "completed"
        record.success = bool(result.success)
        record.method = result.details.get("method")
        record.oracle_queries = result.oracle_queries
        if scores is not None:
            _score(record, cell, prep, result, scores)
    if tracer is not None:
        tracer.end()
    return record


def _plan(workload, seed, plan_id):
    """The ``(cell, seeds)`` of each netlist of one plan (a round, or a
    set-up-only sample)."""
    netlists = {}
    for cell, j in zip(workload.cells, workload.netlists()):
        netlists.setdefault(
            j, (cell, netlist_seeds(workload.name, seed, plan_id, j)))
    return [netlists[j] for j in sorted(netlists)]


def _timed_setup(workload, seed, plan_id, scale, work_dir, tracer):
    """Set up the netlists of one plan cold; ``(netlists, seconds,
    payloads)``."""
    if tracer is not None:
        tracer.phase = "setup"
    netlists = _plan(workload, seed, plan_id)
    elapsed, payloads = _setup_round(netlists, scale, work_dir)
    if tracer is not None:
        tracer.phase = None
    return netlists, elapsed, payloads


def run_workload(workload, seed, seconds, work_dir, tracer=None, scale=None,
                 qbf_time_limit=QBF_TIME_LIMIT, setup_samples=None,
                 replay=None):
    """Run ``workload`` for the rounds ``seconds`` buys; a :class:`RunResult`.

    Each round sets up and attacks netlists with fresh seeds.  When the
    workload wants more set-up samples than it has rounds, each round
    also sets up (and discards) netlists with further fresh seeds
    between its attacks, so ``setup_s`` is a median over distinct
    netlists.

    With a ``tracer``, its layers are installed for the run and every
    attack and scoring call gets a root span.  ``replay``, an earlier
    result, attacks that result's netlists again, without set-up or
    scoring: it times the same inputs a second way.  ``scale`` replaces
    every cell's scale.
    """
    rounds = len(replay.rounds) if replay else workload.rounds(seconds)
    per_round = -(-(setup_samples or workload.setup_samples) // rounds)
    records, samples, planned = [], [], []
    owners = workload.netlists()
    scores = None if replay is not None else {}
    if tracer is not None:
        install_layers(tracer)
    try:
        for r in range(rounds):
            if replay is not None:
                netlists, payloads = replay.rounds[r]
                extra = []
            else:
                netlists, elapsed, payloads = _timed_setup(
                    workload, seed, r, scale, work_dir, tracer)
                samples.append(elapsed)
                # Further set-ups are spread over the round's attacks:
                # host speed drifts over seconds, and set-ups run back to
                # back would sample one moment of it.
                extra = [len(owners) * k // per_round
                         for k in range(1, per_round)]
            planned.append((netlists, payloads))
            for i, (cell, j) in enumerate(zip(workload.cells, owners)):
                for k, at in enumerate(extra, 1):
                    if at == i:
                        samples.append(_timed_setup(
                            workload, seed, f"{r}/setup{k}", scale, work_dir,
                            tracer)[1])
                if tracer is not None:
                    tracer.attack = len(records)
                records.append(_run_cell(cell, payloads[j], netlists[j][1],
                                         qbf_time_limit, tracer, scores))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return RunResult(records=records, setup_samples=samples, rounds=planned)


def _share(part, whole):
    return part / whole if whole else 0.0


def end_to_end_metrics(run):
    """``{name: (value, unit)}`` of the end-to-end metrics."""
    recs = run.records
    dk = sum(r.dk for r in recs)
    return {
        "setup_s": (statistics.median(run.setup_samples), "s"),
        "wall_s": (run.wall_s, "s"),
        "attack_p50_s": (statistics.median(r.wall_s for r in recs), "s"),
        "key_accuracy": (_share(sum(r.cdk for r in recs), dk), "ratio"),
        "key_coverage": (_share(dk, sum(r.total for r in recs)), "ratio"),
        "completed": (
            _share(sum(r.outcome == "completed" for r in recs), len(recs)),
            "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def attack_outcomes(run):
    """``{name: (value, unit)}`` of the attack-level key outcomes.

    A run holds as few as 4 oracle-guided attacks (traced dflt-kratt),
    so one flipped outcome moves these by up to 25%, and which netlists
    flip depends on the seed: they are reported with the per-layer
    metrics rather than bounded.
    """
    recs = run.records
    og = [r for r in recs if r.oracle_guided]
    return {
        "score.keys_functional": (
            _share(sum(r.functional is True for r in recs), len(recs)),
            "ratio"),
        "score.false_success": (
            _share(sum(r.false_success for r in og), len(og)), "ratio"),
    }


#: Span names whose calls (``.calls``) and summed self time (``.self_s``)
#: are reported, and the tracer counters reported as they are.
_CALLS = ("prep", "kratt.removal", "qbf.cegar", "scope", "dip.find_dip",
          "sat.solve", "sat.tseitin", "netlist.eval", "netlist.verify")
_SELF = ("prep", "lock", "resynth", "kratt.removal", "kratt.qbf",
         "qbf.cegar", "kratt.extraction", "kratt.structural",
         "kratt.exhaustive", "scope", "dip.find_dip", "dip.add_io_constraint",
         "dip.extract_key", "oracle", "sat.solve", "sat.tseitin",
         "netlist.eval", "netlist.verify", "bench.score")
_COUNTERS = ("qbf.cegar.iterations", "qbf.cegar.witness", "qbf.cegar.refuted",
             "qbf.cegar.timeout", "kratt.structural.candidate_sets",
             "kratt.exhaustive.patterns_tested", "scope.keys_deciphered",
             "oracle.queries", "sat.solve.conflicts", "sat.solve.decisions",
             "sat.solve.propagations", "sat.solve.unknown")


#: Layer groups whose share of attack wall is reported, counting each
#: outermost span of the group once (children of the group are inside).
_SHARES = {"qbf.wall_share": ("kratt.qbf", "qbf.cegar"),
           "dip_sat.wall_share": ("dip.find_dip", "dip.add_io_constraint",
                                  "dip.extract_key", "sat.solve")}


def _wall_share(spans, names, attack_total):
    """Share of attack wall spent inside spans named in ``names``."""
    inside = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            inside += span[END] - span[START]
    return _share(inside, attack_total)


def layer_metrics(tracer, traced, untraced_wall):
    """``{name: (value, unit)}`` of the per-layer metrics of a traced run."""
    calls, self_s = {}, {}
    attack_total = attack_self = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "attack":
            attack_total += span[END] - span[START]
            attack_self += own
    metrics = {f"{n}.calls": (calls.get(n, 0), "count") for n in _CALLS}
    metrics.update({f"{n}.self_s": (self_s.get(n, 0.0), "s") for n in _SELF})
    metrics.update({n: (tracer.counters.get(n, 0), "count") for n in _COUNTERS})
    metrics["qbf.cegar.timeout_share"] = (
        _share(tracer.counters.get("qbf.cegar.timeout", 0),
               calls.get("qbf.cegar", 0)), "ratio")
    for name, group in _SHARES.items():
        metrics[name] = (_wall_share(tracer.spans, group, attack_total),
                         "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    metrics["trace.coverage"] = (
        _share(attack_total - attack_self, attack_total), "ratio")
    return metrics
