"""In-memory span tracer that wraps the program's layers from outside.

The tracer never edits the program: :meth:`Tracer.install` replaces a
public function or method at every name its callers bind (module
globals across the loaded ``repro`` modules, the class attribute for a
method, or a registry entry) with a wrapper that records a span, and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, attack]``: ``parent`` is the
index of the enclosing span (``-1`` for a root) and ``attack`` the id of
the attack being run.  A layer's *self time* is its span's duration
minus the part covered by its direct children.

Each wrapper belongs to a *phase* (``setup`` or ``attack``) and records
only while the tracer is in that phase, so a solver call made inside
resynthesis is not charged to the attack layers, and scoring (phase
``None``) runs untraced inside its own ``bench.score`` span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times", "layer_specs", "install_layers"]

NAME, START, END, PARENT, ATTACK = range(5)


def self_times(spans):
    """Per-span self time: duration minus the direct children's cover.

    Children of one span never overlap (one thread), so their cover is
    the sum of their durations clipped to the parent's interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            p = spans[parent]
            lo = max(span[START], p[START])
            hi = min(span[END], p[END])
            covered[parent] += max(0.0, hi - lo)
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self.phase = None
        self.attack = None
        self._stack = []
        self._patches = []  # callables that undo one rebinding each

    # -- recording -----------------------------------------------------
    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.attack])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][END] = self.clock()

    def count(self, name, amount=1):
        self.counters[name] += amount

    def wrap(self, original, name, phase, before=None, after=None):
        """Wrapper of ``original`` recording span ``name`` in ``phase``.

        ``before(args)`` returns a state handed to
        ``after(tracer, state, args, result)``, which updates counters.
        """
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.phase != phase:
                return original(*args, **kwargs)
            state = before(args) if before else None
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after:
                after(tracer, state, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self, owner, attr, name, phase, before=None, after=None):
        """Wrap ``owner.attr`` wherever it is bound.

        For a class, the method is replaced on the class.  For a module,
        every ``repro`` module global that *is* the function is
        replaced, which covers ``from x import f`` bindings.
        """
        original = getattr(owner, attr)
        traced = self.wrap(original, name, phase, before, after)
        if isinstance(owner, type):
            self._rebind(owner, attr, traced)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, traced)

    def install_registry(self, registry, name, phase):
        """Wrap every callable value of a dict registry in place."""
        for key, original in list(registry.items()):
            registry[key] = self.wrap(original, name, phase)
            self._patches.append(
                functools.partial(registry.__setitem__, key, original))

    def _rebind(self, owner, attr, value):
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._patches.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self):
        while self._patches:
            self._patches.pop()()


# -- counter hooks ------------------------------------------------------

def _solver_before(args):
    s = args[0]
    return s.conflicts, s.decisions, s.propagations


def _solver_after(tracer, state, args, result):
    s = args[0]
    tracer.count("sat.solve.conflicts", s.conflicts - state[0])
    tracer.count("sat.solve.decisions", s.decisions - state[1])
    tracer.count("sat.solve.propagations", s.propagations - state[2])
    if result is None:
        tracer.count("sat.solve.unknown")


def _cegar_after(tracer, state, args, result):
    tracer.count("qbf.cegar.iterations", result.iterations)
    outcome = {True: "witness", False: "refuted", None: "timeout"}[result.status]
    tracer.count(f"qbf.cegar.{outcome}")


def _oracle_before(args):
    return args[0].query_count


def _oracle_after(tracer, state, args, result):
    tracer.count("oracle.queries", args[0].query_count - state)


def _structural_after(tracer, state, args, result):
    tracer.count("kratt.structural.candidate_sets", len(result))


def _exhaustive_after(tracer, state, args, result):
    tracer.count("kratt.exhaustive.patterns_tested", result.patterns_tested)


def _scope_after(tracer, state, args, result):
    tracer.count("scope.keys_deciphered", len(result.deciphered))


def layer_specs():
    """``(owner, attr, span name, phase, before, after)`` per wrapped
    public function, owners imported from the program."""
    from repro.attacks import oracle, scope
    from repro.attacks.dip import DipEngine
    from repro.attacks.kratt import (exhaustive, extraction, modification,
                                     qbf_attack, removal, structural)
    from repro.experiments import harness
    from repro.netlist import verify
    from repro.netlist.engine import CompiledCircuit
    from repro.qbf import solver as qbf_solver
    from repro.sat import tseitin
    from repro.sat.solver import Solver
    from repro.synth import resynth

    return [
        (harness, "prepare_locked", "prep", "setup", None, None),
        (resynth, "resynthesize", "resynth", "setup", None, None),
        (removal, "extract_unit", "kratt.removal", "attack", None, None),
        (qbf_attack, "qbf_key_search", "kratt.qbf", "attack", None, None),
        (qbf_solver, "solve_exists_forall_circuit", "qbf.cegar", "attack",
         None, _cegar_after),
        (extraction, "classify_restore_unit", "kratt.extraction", "attack",
         None, None),
        (extraction, "locked_subcircuit", "kratt.extraction", "attack",
         None, None),
        (modification, "modified_dflt_subcircuit", "kratt.extraction",
         "attack", None, None),
        (modification, "modified_locking_unit", "kratt.extraction", "attack",
         None, None),
        (structural, "candidate_pattern_sets", "kratt.structural", "attack",
         None, _structural_after),
        (exhaustive, "og_exhaustive_search", "kratt.exhaustive", "attack",
         None, _exhaustive_after),
        (scope, "scope_attack", "scope", "attack", None, _scope_after),
        (DipEngine, "find_dip", "dip.find_dip", "attack", None, None),
        (DipEngine, "add_io_constraint", "dip.add_io_constraint", "attack",
         None, None),
        (DipEngine, "extract_key", "dip.extract_key", "attack", None, None),
        (oracle.Oracle, "query", "oracle", "attack", _oracle_before,
         _oracle_after),
        (oracle.Oracle, "query_batch", "oracle", "attack", _oracle_before,
         _oracle_after),
        (Solver, "solve", "sat.solve", "attack", _solver_before,
         _solver_after),
        (tseitin, "encode_circuit", "sat.tseitin", "attack", None, None),
        (tseitin, "encode_into_solver", "sat.tseitin", "attack", None, None),
        (CompiledCircuit, "evaluate", "netlist.eval", "attack", None, None),
        (verify, "prove_signal_constant", "netlist.verify", "attack",
         None, None),
        (verify, "check_equivalent", "netlist.verify", "attack", None, None),
    ]


def install_layers(tracer):
    """Wrap every layer of :func:`layer_specs` plus the locking registry."""
    from repro.locking import TECHNIQUES

    for owner, attr, name, phase, before, after in layer_specs():
        tracer.install(owner, attr, name, phase, before, after)
    tracer.install_registry(TECHNIQUES, "lock", "setup")
