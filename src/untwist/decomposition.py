"""Coverage classes, diagonal/block predicates, and the decomposition builder.

Locations covered by overlapping inversions merge into classes; each class
widens to a block piece via the latest-before/earliest-after locations at
the extreme anchor positions, and the gaps between blocks are diagonals.
Both piece predicates take an explicit length bound, defaulting to the
symbolic master bound, under which the side conditions hold trivially at
desk scale; a finite override exercises their failure paths.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from .bounds import PeriodBound, bound_admits, compare_on
from .inversions import (INVERSION, AnchoredComponent, Inversion,
                         PeriodReport, first_unsafe_inversion, inversion_spans,
                         multi_pass_components, smallest_period)
from .runs import InternalInconsistencyError, Location, Run

DIAGONAL = "diagonal"
BLOCK = "block"


class CoverageClass(NamedTuple):
    start: int                  # run-order index of the first covered location
    end: int                    # index of the last covered location
    chain: tuple[Inversion, ...]
    anchors: tuple[Location, ...]

    @property
    def anchor_positions(self) -> tuple[int, ...]:
        return tuple(sorted({x for x, _ in self.anchors}))


class BlockData(NamedTuple):
    head: str
    mid: str
    tail: str
    period: int
    pattern: str


class Piece(NamedTuple):
    kind: str
    start: Location
    end: Location
    witness: tuple[Location, ...] = ()          # diagonal: map x -> location
    block: Optional[BlockData] = None


@compare_on("pieces")
class Decomposition(NamedTuple):
    """The pieces of a run; the bound they were checked under stays out of
    == and hash."""

    pieces: tuple[Piece, ...]
    bound: PeriodBound

    def render(self) -> str:
        lines = []
        for i, p in enumerate(self.pieces):
            extra = f" [period={p.block.period}]" if p.block else ""
            lines.append(f"piece {i}: ({p.start[0]},{p.start[1]})"
                         f"..({p.end[0]},{p.end[1]}) {p.kind}{extra}")
        return "\n".join(lines) + "\n"


class BuildOutcome(NamedTuple):
    decomposition: Optional[Decomposition]
    unsafe: Optional[tuple[Inversion, PeriodReport]] = None


def coverage_classes(run: Run, anchored: list[AnchoredComponent]
                     ) -> list[CoverageClass]:
    """Non-singleton classes of the covered-by-overlapping-inversions
    equivalence over the inversions among `anchored` (the run's
    `multi_pass_components`), as maximal location-index intervals with
    covering chains.

    Only the longest interval from each first anchor can be maximal, and a
    class keeps, for each interval, the first inversion that spans it."""
    spans, members = inversion_spans(run, anchored)
    anchors = sorted(members)
    classes: list[list] = []    # [start, end, chain]
    # In (start, -end) order an interval is contained in another one exactly
    # when an earlier interval reaches at least as far; a chain keeps each
    # maximal interval that starts inside its reach.
    for s, e, i, j in sorted(spans, key=lambda sp: (sp[0], -sp[1], sp[2])):
        if classes and e <= classes[-1][1]:
            continue
        inv = Inversion(INVERSION, anchored[i], anchored[j])
        if classes and s <= classes[-1][1]:
            classes[-1][1] = e
            classes[-1][2].append(inv)
        else:
            classes.append([s, e, [inv]])
    return [CoverageClass(s, e, tuple(chain), tuple(
        run.locations[a] for a in
        anchors[bisect_left(anchors, s):bisect_right(anchors, e)]))
        for s, e, chain in classes]


def block_interval(run: Run, cls: CoverageClass) -> tuple[Location, Location]:
    """Widen a class to the latest location before it at the least anchor
    position and the earliest after it at the greatest anchor position."""
    xs = cls.anchor_positions
    x_min, x_max = xs[0], xs[-1]
    before = run.visits[x_min][:bisect_right(run.visits[x_min], cls.start)]
    after = run.visits[x_max][bisect_left(run.visits[x_max], cls.end):]
    if not before or not after:
        raise InternalInconsistencyError(
            "bounding locations for a coverage class do not exist")
    return run.locations[before[-1]], run.locations[after[0]]


def is_diagonal(run: Run, l1: Location, l2: Location, bound: PeriodBound
                ) -> tuple[bool, object]:
    """Search a monotone witness map under the two backward-output bounds.

    Returns (True, witness locations per position) or (False, failing x).
    """
    i1, i2 = run.index_of(l1), run.index_of(l2)
    x1, x2 = l1[0], l2[0]
    if x1 > x2 or i1 > i2:
        raise ValueError("l1 must be no right of l2 and no later in the run")
    # Desk-scale fast path: a bound admitting the whole output admits any Z.
    check_bounds = not bound_admits(bound, len(run.output))
    omega = run.word.omega
    witness: list[Location] = []
    prev = i1
    for x in range(x1, x2 + 1):
        chosen = None
        visits = run.visits[x]
        for i in visits[bisect_left(visits, prev):bisect_right(visits, i2)]:
            if check_bounds:
                up_left = len(run.subrun_output(i, i2, 0, x))
                down_right = len(run.subrun_output(i1, i, x, omega))
                if not (bound_admits(bound, up_left)
                        and bound_admits(bound, down_right)):
                    continue
            chosen = i
            break
        if chosen is None:
            return False, x
        witness.append(run.locations[chosen])
        prev = chosen
    return True, tuple(witness)


def is_block(run: Run, l1: Location, l2: Location, bound: PeriodBound
             ) -> tuple[bool, Optional[BlockData]]:
    """Almost-periodic output plus bounded outside excursions.

    The split maximizes the periodic middle and then minimizes the head;
    ties are broken identically by the brute-force oracle in the tests.
    """
    i1, i2 = run.index_of(l1), run.index_of(l2)
    x1, x2 = l1[0], l2[0]
    if x1 > x2:
        raise ValueError("l1 must be no right of l2")
    # The outputs of the piece's excursions left and right of its span.
    if not all(bound_admits(bound, len(run.subrun_output(i1, i2, lo, hi)))
               for lo, hi in ((0, x1), (x2, run.word.omega))):
        return False, None
    w = run.output_between(i1, i2)
    n = len(w)
    if n == 0:
        return True, BlockData("", "", "", 1, "")
    # Candidate (i, j) splits: head w[:i], middle w[i:j], tail w[j:].
    for length in range(n, -1, -1):
        for i in range(0, n - length + 1):
            j = i + length
            if not (bound_admits(bound, i) and bound_admits(bound, n - j)):
                continue
            mid = w[i:j]
            p = smallest_period(mid) if mid else 1
            if not bound_admits(bound, p):
                continue
            return True, BlockData(w[:i], mid, w[j:], p, mid[:p])
    return False, None


def build_decomposition(run: Run, bound: PeriodBound) -> BuildOutcome:
    """Blocks from coverage classes, gaps as diagonals.

    Returns the decomposition, or the first unsafe inversion when the run
    fails the periodicity condition.  A gap that fails the diagonal
    predicate after the condition held contradicts the theory and raises.
    """
    anchored = multi_pass_components(run)
    unsafe = first_unsafe_inversion(run, bound, anchored)
    if unsafe is not None:
        return BuildOutcome(None, unsafe)

    blocks: list[tuple[Location, Location]] = []
    for cls in coverage_classes(run, anchored):
        xs = cls.anchor_positions
        if xs[0] == xs[-1]:
            continue    # positionally flat; its locations live in a diagonal
        blocks.append(block_interval(run, cls))
    for (a1, b1), (a2, b2) in zip(blocks, blocks[1:]):
        if not (b1[0] < a2[0] and run.index_of(b1) <= run.index_of(a2)):
            raise InternalInconsistencyError(
                f"blocks {b1}..{a2} are not consecutive")

    start = run.locations[0]
    end = run.locations[-1]
    pieces: list[Piece] = []

    def add_diagonal(a: Location, b: Location) -> None:
        ok, info = is_diagonal(run, a, b, bound)
        if not ok:
            raise InternalInconsistencyError(
                f"gap {a}..{b} is not a diagonal (fails at x={info})")
        pieces.append(Piece(DIAGONAL, a, b, witness=info))

    def add_block(a: Location, b: Location) -> None:
        ok, data = is_block(run, a, b, bound)
        if not ok:
            raise InternalInconsistencyError(f"{a}..{b} is not a block")
        pieces.append(Piece(BLOCK, a, b, block=data))

    cur = start
    for k, (a, b) in enumerate(blocks):
        if cur != a:
            if k == 0 and cur == start and \
                    not run.output_upto(run.index_of(a)):
                # Silent lead-in: absorb it into the first block.
                a = cur
            else:
                add_diagonal(cur, a)
        add_block(a, b)
        cur = b
    if cur != end:
        merged = False
        if pieces and pieces[-1].kind == BLOCK:
            # Absorb the tail when the block's periodic pattern genuinely
            # continues through it (or it is silent).
            blk = pieces[-1]
            i, j = run.index_of(blk.start), len(run.steps)
            tail = run.output_between(run.index_of(cur), j)
            w = run.output_between(i, j)
            if not tail or (w and smallest_period(w) <= max(blk.block.period,
                                                            1)):
                ok, data = is_block(run, blk.start, end, bound)
                if ok:
                    pieces[-1] = Piece(BLOCK, blk.start, end, block=data)
                    merged = True
        if not merged:
            add_diagonal(cur, end)

    xs = [p.start[0] for p in pieces] + [pieces[-1].end[0]]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise InternalInconsistencyError(
            f"piece boundary positions not strictly increasing: {xs}")
    return BuildOutcome(Decomposition(tuple(pieces), bound))

