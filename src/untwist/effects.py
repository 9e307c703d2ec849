"""Flows and effects: the finite semigroup describing interval behaviour.

A flow is a functional graph on crossing-sequence levels; its edges record
how the factors intercepted by an interval connect the two borders.  Effects
pair a flow with the two border crossing sequences.  Products follow the
four composition clauses with graph product and reflexive-transitive star;
the dummy absorbing element is exposed as BOTTOM.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .runs import InternalInconsistencyError, Run


class _Bottom:
    """The type of BOTTOM, its only instance."""

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()

Edge = tuple[int, int]


def _edge_kind(edge: Edge) -> str:
    y, z = edge
    if y % 2 == 0:
        return "LR" if z % 2 == 0 else "LL"
    return "RR" if z % 2 == 0 else "RL"


class Flow(NamedTuple):
    """Edges over nodes {0..max(h1,h2)-1} with the border degree discipline."""

    h1: int
    h2: int
    edges: frozenset[Edge]

    @property
    def node_count(self) -> int:
        return max(self.h1, self.h2)

    def partition(self) -> dict[str, frozenset[Edge]]:
        parts: dict[str, set[Edge]] = {"LL": set(), "LR": set(),
                                       "RL": set(), "RR": set()}
        for e in self.edges:
            parts[_edge_kind(e)].add(e)
        return {k: frozenset(v) for k, v in parts.items()}

    def __str__(self) -> str:
        p = self.partition()
        fmt = lambda key: ",".join(f"({a},{b})" for a, b in sorted(p[key]))
        return (f"flow{{LL:{fmt('LL')}, LR:{fmt('LR')}, "
                f"RL:{fmt('RL')}, RR:{fmt('RR')}}}")


def flow_is_valid(h1: int, h2: int, edges: frozenset[Edge]) -> bool:
    """Degree discipline: out-edges on even levels < h1 and odd levels < h2,
    in-edges on odd levels < h1 and even levels < h2, one each, nothing else.
    """
    n = max(h1, h2)
    out_deg = {y: 0 for y in range(n)}
    in_deg = {y: 0 for y in range(n)}
    for y, z in edges:
        if not (0 <= y < n and 0 <= z < n):
            return False
        out_deg[y] += 1
        in_deg[z] += 1
    for y in range(n):
        want_out = 1 if ((y % 2 == 0 and y < h1) or (y % 2 == 1 and y < h2)) \
            else 0
        want_in = 1 if ((y % 2 == 1 and y < h1) or (y % 2 == 0 and y < h2)) \
            else 0
        if out_deg[y] != want_out or in_deg[y] != want_in:
            return False
    return True


def make_flow(h1: int, h2: int, edges) -> Flow:
    edges = frozenset(edges)
    if not flow_is_valid(h1, h2, edges):
        raise ValueError(f"invalid flow for borders ({h1},{h2}): {set(edges)}")
    return Flow(h1, h2, edges)


def _compose(a: frozenset[Edge], b: frozenset[Edge]) -> frozenset[Edge]:
    by_src: dict[int, list[int]] = {}
    for y, z in b:
        by_src.setdefault(y, []).append(z)
    return frozenset((y, w) for y, z in a for w in by_src.get(z, ()))


def _star(edges: frozenset[Edge], universe: int) -> frozenset[Edge]:
    """Reflexive-transitive closure; every level below `universe` is a node."""
    reach = {y: {y} for y in range(universe)}
    succ: dict[int, list[int]] = {}
    for y, z in edges:
        succ.setdefault(y, []).append(z)
    changed = True
    while changed:
        changed = False
        for y in range(universe):
            new = set()
            for z in reach[y]:
                for w in succ.get(z, ()):
                    if w not in reach[y]:
                        new.add(w)
            if new:
                reach[y] |= new
                changed = True
    return frozenset((y, z) for y in range(universe) for z in reach[y])


def flow_product(f, g):
    """The composition F∘G, or BOTTOM when no valid flow satisfies it."""
    if f is BOTTOM or g is BOTTOM:
        return BOTTOM
    if f.h2 != g.h1:
        return BOTTOM
    universe = max(f.node_count, g.node_count)
    fp, gp = f.partition(), g.partition()
    left_turns = _star(_compose(gp["LL"], fp["RR"]), universe)
    right_turns = _star(_compose(fp["RR"], gp["LL"]), universe)
    lr = _compose(_compose(fp["LR"], left_turns), gp["LR"])
    rl = _compose(_compose(gp["RL"], right_turns), fp["RL"])
    ll = fp["LL"] | _compose(
        _compose(_compose(fp["LR"], left_turns), gp["LL"]), fp["RL"])
    rr = gp["RR"] | _compose(
        _compose(_compose(gp["RL"], right_turns), fp["RR"]), gp["LR"])
    edges = frozenset(lr | rl | ll | rr)
    if not flow_is_valid(f.h1, g.h2, edges):
        return BOTTOM
    return Flow(f.h1, g.h2, edges)


class Effect(NamedTuple):
    """A flow with its two border crossing sequences, compared by value."""

    flow: Flow
    c1: tuple[str, ...]
    c2: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.flow}|{','.join(self.c1)}|{','.join(self.c2)}"


@functools.lru_cache(maxsize=4096)
def effect_product(e, f):
    """The product e·f; memoized, as a run's loops repeat few products."""
    if e is BOTTOM or f is BOTTOM or e.c2 != f.c1:
        return BOTTOM
    fl = flow_product(e.flow, f.flow)
    return BOTTOM if fl is BOTTOM else Effect(fl, e.c1, f.c2)


def is_idempotent(e) -> bool:
    return e is not BOTTOM and effect_product(e, e) == e


# ---------------------------------------------------------------------------
# Effects of run intervals
# ---------------------------------------------------------------------------

def flow_of_interval(run: Run, x1: int, x2: int) -> Flow:
    """The flow of the factors the run's interval [x1, x2] intercepts; the
    factors of a run always make a valid flow, so an invalid one is a bug."""
    h1, h2 = len(run.crossing(x1)), len(run.crossing(x2))
    edges = frozenset(f.edge for f in run.intercepted_factors(x1, x2))
    if not flow_is_valid(h1, h2, edges):
        raise InternalInconsistencyError(
            f"the factors of [{x1},{x2}] make an invalid flow for borders "
            f"({h1},{h2}): {sorted(edges)}")
    return Flow(h1, h2, edges)


def effect_of_interval(run: Run, x1: int, x2: int) -> Effect:
    return Effect(flow_of_interval(run, x1, x2), run.crossing(x1),
                  run.crossing(x2))


def interval_effect_closure(run: Run) -> set[Effect]:
    """Effects of all position intervals of the run.

    This set is closed under products of adjacent intervals and contains
    every label a factorization forest over the run can carry, so its size
    is the semigroup constant used in achieved height bounds.
    """
    omega = run.word.omega
    leaves = [effect_of_interval(run, x, x + 1) for x in range(omega)]
    effs = set()
    for x1 in range(omega):
        e = None
        for x2 in range(x1 + 1, omega + 1):
            e = leaves[x1] if e is None else effect_product(e, leaves[x2 - 1])
            effs.add(e)
    return effs
