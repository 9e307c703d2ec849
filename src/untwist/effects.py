"""Flows and effects: the finite semigroup describing interval behaviour.

A flow is a functional graph on crossing-sequence levels; its edges record
how the factors intercepted by an interval connect the two borders.  Effects
pair a flow with the two border crossing sequences.  A product follows each
path from an outer border through both flows, across the shared border, to
where it leaves; the dummy absorbing element is exposed as BOTTOM.
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


class Flow(NamedTuple):
    """Edges over nodes {0..max(h1,h2)-1} with the border degree discipline."""

    h1: int
    h2: int
    edges: frozenset[Edge]


def flow_is_valid(h1: int, h2: int, edges: frozenset[Edge]) -> bool:
    """Degree discipline: out-edges on even levels < h1 and odd levels < h2,
    in-edges on odd levels < h1 and even levels < h2, one each, nothing else.
    """
    levels = range(max(h1, h2))
    return (sorted(y for y, _ in edges) == [y for y in levels
                                            if y < (h1, h2)[y % 2]]
            and sorted(z for _, z in edges) == [z for z in levels
                                                if z < (h2, h1)[z % 2]])


def flow_product(f, g):
    """The composition F∘G, or BOTTOM when no valid flow satisfies it.

    Each path starts on an outer border, at an even level into F or an odd
    level into G, switches flows whenever an edge ends on the shared border
    (an even target in F, an odd one in G), and gives the product edge from
    its start to the level where it leaves on an outer border.  A path never
    meets a shared level twice, so more than f.h2 switches mean the inputs
    were no flows."""
    if f is BOTTOM or g is BOTTOM or f.h2 != g.h1:
        return BOTTOM
    succ = (dict(f.edges), dict(g.edges))
    edges = set()
    for start in range(max(f.h1, g.h2)):
        z, side = start, start % 2
        if start >= (f.h1, g.h2)[side]:
            continue
        for _ in range(f.h2 + 1):
            z = succ[side].get(z)
            if z is None:
                return BOTTOM
            if z % 2 != side:
                edges.add((start, z))
                break
            side = 1 - side
        else:
            return BOTTOM
    edges = frozenset(edges)
    if not flow_is_valid(f.h1, g.h2, edges):
        return BOTTOM
    return Flow(f.h1, g.h2, edges)


class Effect(NamedTuple):
    """A flow with its two border crossing sequences, compared by value."""

    flow: Flow
    c1: tuple[str, ...]
    c2: tuple[str, ...]


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
