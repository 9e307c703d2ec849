"""Factorization forests over position sets, and Ramsey witness extraction.

The builder is a flatten-then-pair greedy: maximal runs of adjacent nodes
carrying one idempotent effect are merged into flat nodes (these are what
witness extraction feeds on), and remaining neighbours are merged pairwise.
Its height is logarithmic in the leaf count plus the flattening layers; the
classical guarantee of three times the semigroup size is asserted against
the realized interval-effect closure and violating it is a loud error,
never a silent pass.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .effects import (effect_of_interval, effect_product, interval_effect_closure,
                      is_idempotent)
from .loops import Component, Loop, components_of, trace_of
from .runs import Location, Run


class ForestHeightError(Exception):
    """The greedy builder exceeded the asserted height bound (a bug)."""


class Node(NamedTuple):
    interval: tuple[int, int]
    effect: object
    children: tuple["Node", ...]
    height: int

    @property
    def is_leaf(self) -> bool:
        return not self.children


class FactorizationForest(NamedTuple):
    positions: tuple[int, ...]
    root: Node
    closure_size: int

    @property
    def height(self) -> int:
        return self.root.height

    def render(self) -> str:
        lines: list[str] = []

        def rec(n: Node, depth: int) -> None:
            kind = "leaf" if n.is_leaf else f"node[{len(n.children)}]"
            lines.append("  " * depth +
                         f"{kind} [{n.interval[0]},{n.interval[1]}]")
            for c in n.children:
                rec(c, depth + 1)

        rec(self.root, 0)
        return "\n".join(lines) + "\n"


def _merge(children: list[Node]) -> Node:
    e = children[0].effect
    for c in children[1:]:
        e = effect_product(e, c.effect)
    return Node((children[0].interval[0], children[-1].interval[1]), e,
                tuple(children), 1 + max(c.height for c in children))


def build_forest(run: Run, positions) -> FactorizationForest:
    xs = tuple(sorted(set(positions)))
    if len(xs) < 2:
        raise ValueError("a factorization forest needs at least two positions")
    nodes = [Node((a, b), effect_of_interval(run, a, b), (), 1)
             for a, b in zip(xs, xs[1:])]
    while len(nodes) > 1:
        # Flatten: merge maximal runs of equal idempotent effects.
        flattened = True
        while flattened and len(nodes) > 1:
            flattened = False
            merged: list[Node] = []
            i = 0
            while i < len(nodes):
                j = i + 1
                if is_idempotent(nodes[i].effect):
                    while (j < len(nodes)
                           and nodes[j].effect == nodes[i].effect):
                        j += 1
                if j - i >= 2:
                    merged.append(_merge(nodes[i:j]))
                    flattened = True
                else:
                    merged.append(nodes[i])
                i = j
            nodes = merged
        if len(nodes) == 1:
            break
        # Pair: one balanced binary pass.
        paired = []
        for i in range(0, len(nodes) - 1, 2):
            paired.append(_merge(nodes[i:i + 2]))
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    root = nodes[0]
    closure = interval_effect_closure(run)
    forest = FactorizationForest(xs, root, len(closure))
    if forest.height > 3 * len(closure):
        raise ForestHeightError(
            f"achieved height {forest.height} exceeds 3*{len(closure)}")
    return forest


def verify_forest(run: Run, forest: FactorizationForest) -> bool:
    """Independent re-check of the three node conditions and leaf minimality."""
    xs = forest.positions

    def check(n: Node) -> bool:
        if n.is_leaf:
            a, b = n.interval
            if a not in xs or b not in xs:
                return False
            if xs[xs.index(a) + 1] != b:      # leaves are minimal intervals
                return False
            return n.effect == effect_of_interval(run, a, b)
        kids = n.children
        if len(kids) < 2:
            return False
        if kids[0].interval[0] != n.interval[0]:
            return False
        if kids[-1].interval[1] != n.interval[1]:
            return False
        for c, d in zip(kids, kids[1:]):
            if c.interval[1] != d.interval[0]:
                return False
        e = kids[0].effect
        for c in kids[1:]:
            e = effect_product(e, c.effect)
        if e != n.effect:
            return False
        if len(kids) > 2:
            if not is_idempotent(n.effect):
                return False
            if any(c.effect != n.effect for c in kids):
                return False
        return all(check(c) for c in kids)

    if forest.root.interval != (xs[0], xs[-1]):
        return False
    return check(forest.root)


# ---------------------------------------------------------------------------
# Ramsey extraction
# ---------------------------------------------------------------------------

class RamseyWitness(NamedTuple):
    loop: Loop
    component: Component
    anchor: Location
    trace_output: str


class ExtractionResult(NamedTuple):
    witness: Optional[RamseyWitness]
    level: Optional[int]
    source_positions: tuple[int, ...]
    forest_height: Optional[int]
    achieved_bound: Optional[int]   # c_max*h_max*(2^height + 4), desk scale


def _candidate_nodes(root: Node):
    """Nodes with more than two children, leftmost-deepest first."""
    out: list[Node] = []

    def rec(n: Node) -> None:
        for c in n.children:
            rec(c)
        if len(n.children) > 2:
            out.append(n)

    rec(root)
    out.sort(key=lambda n: (n.interval[0], -n.height))
    return out


def ramsey_extract(run: Run, interval: tuple[int, int],
                   loc_lo: Location, loc_hi: Location) -> ExtractionResult:
    """Find an idempotent loop and component per the long-output argument.

    Follows the proof procedure: strip the boundary locations and border
    columns from Z, take a level whose output-producing source positions
    are most numerous, build a forest over them, and read a witness off a
    flat idempotent node.  Threshold-free: always attempts extraction and
    reports not-found honestly.
    """
    x1, x2 = interval
    lo, hi = run.index_of(loc_lo), run.index_of(loc_hi)
    # Steps of the stripped subrun: both endpoints strictly inside the
    # location range and strictly between the border columns.
    sources: dict[int, set[int]] = {}
    for i in range(lo + 1, hi - 1):
        s = run.steps[i]
        if not s.output:
            continue
        if x1 < s.source[0] < x2 and x1 < s.target[0] < x2:
            sources.setdefault(s.source[1], set()).add(s.source[0])
    if not sources:
        return ExtractionResult(None, None, (), None, None)
    level = min(sources, key=lambda y: (-len(sources[y]), y))
    xs = tuple(sorted(sources[level]))
    if len(xs) < 2:
        return ExtractionResult(None, level, xs, None, None)
    forest = build_forest(run, xs)
    h = forest.height
    c_max = run.transducer.c_max
    h_max = 2 * len(run.transducer.states) - 1
    achieved = c_max * h_max * ((1 << h) + 4)
    for node in _candidate_nodes(forest.root):
        kids = node.children
        for a, b in zip(kids, kids[1:]):
            for child in (a, b):
                lx1, lx2 = child.interval
                loop = Loop(lx1, lx2, child.effect, True)
                for comp in components_of(run, loop):
                    if level not in comp.nodes:
                        continue
                    trace = trace_of(run, comp)
                    if not trace:
                        continue
                    anchor_idx = run.index_of(comp.anchor)
                    if not (lo < anchor_idx < hi):
                        continue
                    if not (x1 < lx1 < lx2 < x2):
                        continue
                    w = RamseyWitness(loop, comp, comp.anchor, trace)
                    return ExtractionResult(w, level, xs, h, achieved)
    return ExtractionResult(None, level, xs, h, achieved)
