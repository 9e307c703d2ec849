"""Loops, components, anchors, traces and pumping.

Loops are intervals with equal border crossing sequences, kept strictly
inside the delimiters so that pumping always produces a well-formed input
(duplicating a delimiter would not).  Components of a loop are the cycles of
its flow, and a component's factors are its cycle's edges in cycle order from
the anchor, so its trace is their outputs joined.  For idempotent loops the
factors, in run order (sorted by step range), follow the k*LL, 1*LR, k*RR
pattern (mirrored for right-to-left components), the lone crossing factor
starts at the anchor, and iterating the loop iterates each component's trace.

Pumping follows the crossing-sequence picture (Shepherdson 1959): a run is
fixed by the moves each cell makes, in the order of its entries.  The loop's
borders carry one crossing sequence, so repeating the cells of [x1, x2] with
their moves gives a run on the pumped word; each of its cuts has the crossing
of the cut it repeats, and each cell reads the letter of the cell it repeats.
"""
from __future__ import annotations

from typing import NamedTuple

from .effects import Effect, effect_of_interval, is_idempotent
from .runs import DelimitedInput, Factor, InternalInconsistencyError, \
    Location, Run, walk_cells
from .transducer import Transducer


class Loop(NamedTuple):
    x1: int
    x2: int
    effect: Effect
    idempotent: bool

    @property
    def interval(self) -> tuple[int, int]:
        return (self.x1, self.x2)

    def contains(self, other: "Loop") -> bool:
        return self.x1 <= other.x1 < other.x2 <= self.x2

    def __str__(self) -> str:
        tag = "idempotent" if self.idempotent else "plain"
        return f"loop[{self.x1},{self.x2}] ({tag})"


class Component(NamedTuple):
    loop: Loop
    nodes: tuple[int, ...]          # contiguous level interval, ascending
    left_to_right: bool
    anchor: Location
    # (L,C)-factors in cycle order from the anchor; in run order (sorted by
    # step range) they follow the k*LL, 1*LR, k*RR pattern.
    factors: tuple[Factor, ...]

    @property
    def min_node(self) -> int:
        return self.nodes[0]

    @property
    def max_node(self) -> int:
        return self.nodes[-1]


def enumerate_loops(run: Run, *, idempotent_only: bool = False,
                    skip_single_pass: bool = False) -> list[Loop]:
    """All intervals [x1,x2], 1 <= x1 < x2 <= omega-1, with equal crossings.

    `skip_single_pass` leaves out the loops whose border crossing sequence
    has length 1, before their effects are computed."""
    omega = run.word.omega
    by_crossing: dict[tuple, list[int]] = {}
    for x in range(1, omega):
        by_crossing.setdefault(run.crossing(x), []).append(x)
    loops = []
    for crossing, group in by_crossing.items():
        if skip_single_pass and len(crossing) < 2:
            continue
        for i, x1 in enumerate(group):
            for x2 in group[i + 1:]:
                e = effect_of_interval(run, x1, x2)
                idem = is_idempotent(e)
                if idempotent_only and not idem:
                    continue
                loops.append(Loop(x1, x2, e, idem))
    loops.sort(key=lambda l: (l.x1, l.x2))
    return loops


def components_of(run: Run, loop: Loop) -> list[Component]:
    """Cycles of the loop's flow, ordered by the run order of their anchors.

    Each cycle is walked once from its greatest level, the anchor's.  Its
    edge (y, z) is the factor that leaves the border visit
    (x1 if y is even else x2, y) and reaches (x2 if z is even else x1, z)."""
    x1, x2 = loop.x1, loop.x2
    succ = dict(loop.effect.flow.edges)
    comps = []
    # From the top down, each unvisited level is its cycle's greatest.
    for top in sorted(succ, reverse=True):
        if top not in succ:
            continue
        cycle = [top]
        z = succ.pop(top)
        while z != top:
            cycle.append(z)
            z = succ.pop(z)
        nodes = tuple(sorted(cycle))
        # Component node sets are level intervals.
        if nodes != tuple(range(nodes[0], nodes[-1] + 1)):
            raise InternalInconsistencyError(
                f"component nodes {nodes} of {loop} are not an interval")
        ltr = nodes[0] % 2 == 0
        factors = tuple(
            run.factor(x1, x2, run.index_of((x1 if y % 2 == 0 else x2, y)),
                       run.index_of((x2 if z % 2 == 0 else x1, z)))
            for y, z in zip(cycle, cycle[1:] + cycle[:1]))
        comps.append(Component(loop, nodes, ltr, (x1 if ltr else x2, top),
                               factors))
    comps.sort(key=lambda c: run.index_of(c.anchor))
    return comps


def trace_of(run: Run, comp: Component) -> str:
    """The component's trace: its factors' outputs, joined from the anchor."""
    factors, loop = comp.factors, comp.loop
    # The first factor is the crossing one, leaving from the anchor.
    if factors[0].start != comp.anchor or factors[0].kind not in ("LR", "RL"):
        raise InternalInconsistencyError(
            f"the trace of {comp.nodes} on {loop} does not start with the "
            f"crossing factor at its anchor {comp.anchor}")
    # Consecutive factors concatenate: matching states and level parity.
    for a, b in zip(factors, factors[1:]):
        if a.end[1] != b.start[1] or \
                run.state_at(a.end) != run.state_at(b.start):
            raise InternalInconsistencyError(
                f"factors ending at {a.end} and starting at {b.start} of a "
                f"trace on {loop} do not concatenate")
    return "".join(run.factor_output(f) for f in factors)


# ---------------------------------------------------------------------------
# Pumping
# ---------------------------------------------------------------------------

def pump(t: Transducer, run: Run, loop: Loop, copies: int
         ) -> tuple[str, Run]:
    """Replicate the loop `copies` times (copies = m+1 >= 1).

    Each cell of a copy makes the moves of the cell it repeats, and
    `walk_cells` places them."""
    x1, x2 = loop.x1, loop.x2
    if copies < 1:
        raise ValueError("pump multiplicity must be at least 1")
    if not 1 <= x1 < x2 < run.word.omega \
            or run.crossing(x1) != run.crossing(x2):
        raise ValueError(f"{loop} is not a loop of the run: its borders are "
                         f"not inner cuts with equal crossings")
    cells: list[list] = [[] for _ in range(run.word.omega)]
    for s in run.steps:
        cells[s.read_index].append((s.transition, s.output))
    raw, a, b = run.word.raw, x1 - 1, x2 - 1   # cut x cuts raw at x-1
    word = raw[:a] + raw[a:b] * copies + raw[b:]
    cells[x1:x2] = cells[x1:x2] * copies
    return word, Run(t, DelimitedInput.of(word), walk_cells(cells))
