"""Workload definitions of the per-attack benchmark.

A workload is a list of attack cells — (circuit, technique, attack,
scale, key width) — attacked once per *round*.  Each netlist of each
round is locked and resynthesized with seeds drawn from the workload
seed, so a longer run adds fresh netlists instead of repeating ones
whose caches are already warm.  KRATT's oracle-less and oracle-guided
attacks on one (circuit, technique) share a netlist, as in the paper's
tables; every baseline attack gets its own.  Each attack runs on a
fresh copy.

The per-attack settings are those of the campaign ``attack`` cell
(:func:`repro.experiments.tables.attack_cell`): a 3 s QBF cap, its
overall budget, and the fast SCOPE settings for oracle-less KRATT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Attacks that prove their key before claiming success: a claimed key
#: that fails the equivalence check is a program error, not a weak result.
EXACT_ATTACKS = ("sat", "ddip")

#: Backends every workload was measured with.  A run on other backends
#: is flagged: its timings are not comparable.
EXPECTED_BACKENDS = {"solver": "native", "sim": "native"}


@dataclass(frozen=True)
class Cell:
    circuit: str
    technique: str
    attack: str  # kratt_ol | kratt_og | sat | ddip | appsat
    scale: str
    #: Lock width; ``None`` takes the scale's width for the circuit.
    key_width: int = None

    @property
    def oracle_guided(self):
        return self.attack != "kratt_ol"

    @property
    def netlist_key(self):
        """Cells with equal keys attack one netlist."""
        group = "kratt" if self.attack.startswith("kratt") else self.attack
        return self.circuit, self.technique, self.scale, group


@dataclass(frozen=True)
class Workload:
    name: str
    #: The cells every round attacks, each on a netlist of its own seeds.
    cells: tuple
    #: Nominal measured seconds (set-up + attacks) of one round on a
    #: 2-vCPU x86-64 host; ``--seconds`` is divided by it to get rounds.
    round_seconds: float
    #: Cold set-ups timed per run (``setup_s`` is their median).
    setup_samples: int
    why: str

    def rounds(self, seconds):
        return max(1, int(seconds // self.round_seconds))

    def netlists(self):
        """Per cell, the index of the netlist it attacks in a round."""
        index = {}
        return [index.setdefault(c.netlist_key, len(index))
                for c in self.cells]


def _grid(circuits, techniques, attacks, scale):
    return tuple(Cell(c, t, a, scale)
                 for c in circuits for t in techniques for a in attacks)


#: KRATT on SFLTs: QBF keys them in 0-1 CEGAR iterations, so the time
#: goes to removal, SAT dominator/complementarity proofs and SCOPE.
#: b14_C is left out: at paper scale its removal takes 0.2-3 s with the
#: seed, inside the 3 s sub-deadline that also caps QBF, so whether OL
#: gets a QBF key or falls back to SCOPE would depend on host speed.
SFLT_CELLS = _grid(("c2670", "c5315", "c6288"),
                   ("antisat", "sarlock", "caslock", "genantisat"),
                   ("kratt_ol", "kratt_og"), "paper")


#: Lock width of the DIP baselines.  At the tiny scale's 12 bits SAT and
#: DDIP need 64 DIPs on Anti-SAT, CAS-Lock 25-64 by seed and AppSAT
#: 16-56 iterations, 1-4 s an attack, so a run attacked each host once
#: and its wall time turned on the seeds it drew.  At 10 bits an attack
#: takes 0.3-1 s and 11-32 DIPs, so every round attacks both hosts.
DIP_KEY_WIDTH = 10


#: DIP baselines: the DIP engine and the CDCL solver do nearly all the
#: work.  SARLock is left out: it takes one DIP per wrong key, and SAT
#: and DDIP hit the 120 s budget on it at 12 key bits after 575 DIPs, so
#: the work done would depend on host speed.
DIP_CELLS = tuple(Cell(c, t, a, "tiny", DIP_KEY_WIDTH)
                  for c in ("c2670", "c5315")
                  for a in ("sat", "ddip", "appsat")
                  for t in ("xor_lock", "antisat", "caslock"))


def _interleave(*groups):
    """The cells of ``groups`` merged so each group spreads evenly over
    the round: host speed drifts over seconds, and a group run as one
    block would sample only a few seconds of it."""
    return tuple(cell for _, _, cell in sorted(
        ((i + 0.5) / len(group), g, cell)
        for g, group in enumerate(groups) for i, cell in enumerate(group)))


#: KRATT on DFLTs: every QBF solve runs to its 3 s cap.
DFLT_CELLS = _grid(("c2670",), ("ttlock", "cac", "sfll_hd", "sfll_flex"),
                   ("kratt_ol", "kratt_og"), "small")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sflt-dip",
            cells=_interleave(SFLT_CELLS, DIP_CELLS),
            round_seconds=28.0,
            # A paper-scale set-up takes ~5 s: one is timed per round.
            setup_samples=2,
            why="KRATT on SFLTs and the DIP baselines: the CDCL solver, "
                "removal and the DIP engine do the work while QBF "
                "refutation is idle",
        ),
        Workload(
            name="dflt-kratt",
            cells=DFLT_CELLS,
            round_seconds=28.0,
            # One set-up is ~0.3 s: time more of them, each over
            # netlists with fresh seeds, for a steady median.
            setup_samples=16,
            why="every DFLT QBF solve runs to its 3 s cap; only a refutation "
                "moves wall time, a faster solver shows as more CEGAR "
                "iterations; the DIP engine is idle",
        ),
    )
}


def netlist_seeds(workload, seed, plan_id, netlist_index):
    """``(lock_seed, synth_seed)`` of one netlist of one plan (a round,
    or a set-up-only sample), a pure function of the workload seed."""
    rng = random.Random(f"{workload}/{seed}/{plan_id}/{netlist_index}")
    return rng.randrange(1 << 20), rng.randrange(1 << 20)
