"""Loops, components, anchors, traces and pumping.

Loops are intervals with equal border crossing sequences, kept strictly
inside the delimiters so that pumping always produces a well-formed input
(duplicating a delimiter would not).  Components of a loop are the cycles of
its flow; for idempotent loops their factors follow the k*LL, 1*LR, k*RR
pattern (mirrored for right-to-left components), the lone crossing factor
starts at the anchor, and iterating the loop iterates each component's trace.
"""
from __future__ import annotations

from typing import NamedTuple

from .effects import Effect, effect_of_interval, is_idempotent
from .runs import Factor, InternalInconsistencyError, Location, Run, replay
from .transducer import Transducer, Transition


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
    factors: tuple[Factor, ...]     # (L,C)-factors in run order

    @property
    def min_node(self) -> int:
        return self.nodes[0]

    @property
    def max_node(self) -> int:
        return self.nodes[-1]


class Trace(NamedTuple):
    component: Component
    cycle_factors: tuple[Factor, ...]   # cycle order, crossing factor first
    output: str


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
    """Cycles of the loop's flow, ordered by the run order of their anchors."""
    succ = loop.effect.flow.successor()
    factors = run.intercepted_factors(loop.x1, loop.x2)
    by_start_level = {}
    for f in factors:
        by_start_level[f.start[1]] = f
    seen: set[int] = set()
    comps = []
    for y in sorted(succ):
        if y in seen:
            continue
        cycle = [y]
        z = succ[y]
        while z != y:
            cycle.append(z)
            z = succ[z]
        seen.update(cycle)
        nodes = tuple(sorted(cycle))
        # Component node sets are level intervals.
        if nodes != tuple(range(nodes[0], nodes[-1] + 1)):
            raise InternalInconsistencyError(
                f"component nodes {nodes} of {loop} are not an interval")
        ltr = nodes[0] % 2 == 0
        anchor = (loop.x1 if ltr else loop.x2, nodes[-1])
        cfs = tuple(f for f in factors if f.start[1] in cycle)
        comps.append(Component(loop, nodes, ltr, anchor, cfs))
    comps.sort(key=lambda c: run.index_of(c.anchor))
    return comps


def trace_of(run: Run, loop: Loop, comp: Component) -> Trace:
    """Concatenate the component's factors in cycle order from the anchor."""
    succ = loop.effect.flow.successor()
    by_start = {f.start[1]: f for f in comp.factors}
    order = []
    y = comp.max_node
    while True:
        f = by_start[y]
        order.append(f)
        y = succ[y]
        if y == comp.max_node:
            break
    # The first factor is the crossing one, leaving from the anchor.
    if order[0].start != comp.anchor or order[0].kind not in ("LR", "RL"):
        raise InternalInconsistencyError(
            f"the trace of {comp.nodes} on {loop} does not start with the "
            f"crossing factor at its anchor {comp.anchor}")
    # Consecutive factors concatenate: matching states and level parity.
    for a, b in zip(order, order[1:]):
        if a.end[1] != b.start[1] or \
                run.state_at(a.end) != run.state_at(b.start):
            raise InternalInconsistencyError(
                f"factors ending at {a.end} and starting at {b.start} of a "
                f"trace on {loop} do not concatenate")
    out = "".join(run.factor_output(f) for f in order)
    return Trace(comp, tuple(order), out)


# ---------------------------------------------------------------------------
# Pumping
# ---------------------------------------------------------------------------

def pump_word(run: Run, loop: Loop, copies: int) -> str:
    raw = run.word.raw
    a, b = loop.x1 - 1, loop.x2 - 1    # raw indices: position x cuts raw at x-1
    return raw[:a] + raw[a:b] * copies + raw[b:]


def pump(t: Transducer, run: Run, loop: Loop, copies: int
         ) -> tuple[str, Run]:
    """Replicate the loop `copies` times (copies = m+1 >= 1).

    The pumped run is assembled by the canonical reconnection: outside
    pieces are kept, and the factors intercepted by the loop are traversed
    through the replicated copies, entering the next copy whenever a factor
    ends on an inner border.  The result is materialized by replaying the
    spliced transition sequence, which re-derives every location.
    """
    if copies < 1:
        raise ValueError("pump multiplicity must be at least 1")
    factors = run.intercepted_factors(loop.x1, loop.x2)
    if not factors:
        raise ValueError(f"{loop} intercepts no factors")
    side_of = {True: "L", False: "R"}
    start_map: dict[tuple[str, int], int] = {}
    end_map: dict[tuple[str, int], int] = {}
    for j, f in enumerate(factors):
        start_map[(side_of[f.start[0] == loop.x1], f.start[1])] = j
        end_map[(side_of[f.end[0] == loop.x1], f.end[1])] = j

    # Outside pieces: outside[j] follows factor j-1 (outside[0] is the prefix).
    outside: list[list[Transition]] = []
    cursor = 0
    for f in factors:
        i, k = f.step_range
        outside.append([s.transition for s in run.steps[cursor:i]])
        cursor = k
    outside.append([s.transition for s in run.steps[cursor:]])

    def factor_transitions(j: int) -> list[Transition]:
        i, k = factors[j].step_range
        return [s.transition for s in run.steps[i:k]]

    # Walk: outside pieces are stitched by the border point where the
    # traversal of the replicated region exits; for non-idempotent loops
    # this genuinely permutes them.
    consumed: set[tuple[int, int]] = set()
    emitted_outside = [False] * len(outside)
    out: list[Transition] = list(outside[0])
    emitted_outside[0] = True
    entry = 0
    while True:
        cur = entry
        copy = 0 if factors[cur].start[0] == loop.x1 else copies - 1
        while True:
            if (cur, copy) in consumed:
                raise InternalInconsistencyError(
                    "pump traversal revisited a copy")
            consumed.add((cur, copy))
            out.extend(factor_transitions(cur))
            end_side = side_of[factors[cur].end[0] == loop.x1]
            level = factors[cur].end[1]
            if end_side == "L":
                if copy == 0:
                    break
                copy -= 1
                cur = start_map[("R", level)]
            else:
                if copy == copies - 1:
                    break
                copy += 1
                cur = start_map[("L", level)]
        j_exit = end_map[(end_side, level)]
        if emitted_outside[j_exit + 1]:
            raise InternalInconsistencyError(
                "pump traversal emitted an outside piece twice")
        emitted_outside[j_exit + 1] = True
        out.extend(outside[j_exit + 1])
        if j_exit + 1 == len(factors):
            break
        entry = j_exit + 1
    if len(consumed) != copies * len(factors) or not all(emitted_outside):
        raise InternalInconsistencyError(
            "pump traversal failed to consume every factor copy and "
            "outside piece")
    word = pump_word(run, loop, copies)
    return word, replay(t, word, out)
