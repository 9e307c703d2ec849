"""Inversions, co-inversions, periodicity arithmetic, and k-inversion safety.

An inversion is a pair of anchored loop components with non-empty trace
outputs occurring in run order but with their anchor positions in reversed
(for co-inversions: preserved) order.  Two sharpenings keep the predicate
sound, in the sense that an aperiodic inversion word genuinely obstructs
one-way (resp. sweeping) definability:

* the anchors are distinct locations, ordered strictly by the run; and
* the two loops are either equal or weakly separated, the second lying
  entirely left (for co-inversions: right) of the first.

Both restrictions come from the pumping argument that backs the
periodicity requirement: separated loops iterate independently at once,
one loop iterates against its own outer copies after pumping it three
times, but nested or staggered overlapping loops cannot be iterated
independently at all.  Machines that re-enter equal crossing sequences in
structurally unrelated parts of the input produce such overlapping pairs
with aperiodic words even when they are plainly one-way definable, so
admitting them would make refutations unsound.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from .bounds import PeriodBound, bound_admits
from .loops import Component, Loop, components_of, enumerate_loops, trace_of
from .runs import CapExceeded, Run

INVERSION = "inversion"
CO_INVERSION = "co-inversion"


class AnchoredComponent(NamedTuple):
    loop: Loop
    component: Component
    trace_output: str

    @property
    def anchor(self):
        return self.component.anchor


class Inversion(NamedTuple):
    kind: str
    first: AnchoredComponent
    second: AnchoredComponent


class PeriodReport(NamedTuple):
    word: str
    len1: int
    len2: int
    gcd: int
    found_period: Optional[int]

    @property
    def safe(self) -> bool:
        return self.found_period is not None


def anchored_components(run: Run, loops: list[Loop]
                        ) -> list[AnchoredComponent]:
    """The (loop, component) pairs with non-empty trace output over the
    given idempotent loops of the run, sorted by anchor run order then loop
    interval."""
    out = []
    for loop in loops:
        for comp in components_of(run, loop):
            trace = trace_of(run, comp)
            if trace:
                out.append(AnchoredComponent(loop, comp, trace))
    out.sort(key=lambda a: (run.index_of(a.anchor), a.loop.x1, a.loop.x2,
                            a.component.min_node))
    return out


def _pair_matches(run: Run, kind: str, a: AnchoredComponent,
                  b: AnchoredComponent) -> bool:
    ia, ib = run.index_of(a.anchor), run.index_of(b.anchor)
    if ia >= ib:        # anchors must be distinct and in run order
        return False
    xa, xb = a.anchor[0], b.anchor[0]
    if kind == INVERSION:
        if xa < xb:
            return False
        return a.loop == b.loop or b.loop.x2 <= a.loop.x1
    if xa > xb:
        return False
    return a.loop == b.loop or a.loop.x2 <= b.loop.x1


class _Sweep:
    """Right to left over `anchored`, which is in anchor run order, as
    `anchored_components` returns it."""

    def __init__(self, run: Run, anchored: list[AnchoredComponent]):
        self.anchored = anchored
        self.xs = [a.component.anchor[0] for a in anchored]
        self.order = [run.index_of(a.component.anchor) for a in anchored]
        self.by_loop: dict[Loop, list[int]] = {}
        for pos, a in enumerate(anchored):
            self.by_loop.setdefault(a.loop, []).append(pos)

    def __iter__(self) -> Iterator[tuple[int, int, range]]:
        """(i, end, fresh) for each position i, last first: [end, n) are
        the components anchored strictly later than i, and `fresh` those of
        them not yet yielded as fresh."""
        end = len(self.order)
        for i in range(end - 1, -1, -1):
            later = bisect_right(self.order, self.order[i])
            yield i, later, range(later, end)
            end = later

    def same_loop(self, i: int, end: int, co: bool = False) -> list[int]:
        """The positions of i's partners on its own loop."""
        same, xs = self.by_loop[self.anchored[i].loop], self.xs
        if same[-1] < end:
            return []
        return [j for j in same[bisect_left(same, end):]
                if ((xs[i] <= xs[j]) if co else (xs[j] <= xs[i]))]


class _PrefixMax:
    """Maxima over the prefixes [1, x] of the points 1..n, for values that
    are only ever raised: a Fenwick tree (Fenwick 1994)."""

    def __init__(self, n: int, empty):
        self.empty = empty
        self.tree = [empty] * (n + 1)

    def raise_to(self, x: int, value) -> None:
        tree, n = self.tree, len(self.tree)
        while x < n:
            if tree[x] < value:
                tree[x] = value
            x += x & -x

    def upto(self, x: int):
        tree, best = self.tree, self.empty
        while x > 0:
            if best < tree[x]:
                best = tree[x]
            x -= x & -x
        return best


def enumerate_inversions(run: Run, kind: str,
                         anchored: list[AnchoredComponent]
                         ) -> list[Inversion]:
    """The inversions (or co-inversions) among the anchored components.

    Order contract: the pairs `(a, b)` satisfying `_pair_matches`, ordered
    by the position of `a` in `anchored`, then by the position of `b` --
    exactly the all-pairs filter over `anchored[i:]`.  The order decides
    which unsafe inversion a certificate records.

    Cost: O(A log A + I log I) comparisons for A anchored components and I
    results, plus the list shifts `insort` does in C.  `anchored` must be in
    anchor run order, as `anchored_components` returns it.  A right-to-left
    sweep keeps the components anchored strictly later in the run sorted by
    their loop's right end (co-inversions: by minus its left end), so the
    separated partners of `a` form a prefix; partners on the same loop come
    from a per-loop index.  Anchors sit on a border of their loop, so
    separated loops already order the anchor positions as the predicate
    requires.
    """
    co = kind == CO_INVERSION
    n = len(anchored)
    sweep = _Sweep(run, anchored)
    later: list[tuple[int, int]] = []   # (sort key, position)
    partners: list[list[int]] = [[] for _ in range(n)]
    for i, end, fresh in sweep:
        for j in fresh:
            loop = anchored[j].loop
            insort(later, (-loop.x1 if co else loop.x2, j))
        limit = -anchored[i].loop.x2 if co else anchored[i].loop.x1
        partners[i] = sorted(
            [pos for _, pos in later[:bisect_right(later, (limit, n))]]
            + sweep.same_loop(i, end, co))
    return [Inversion(kind, a, anchored[j])
            for a, js in zip(anchored, partners) for j in js]


def multi_pass_components(run: Run) -> list[AnchoredComponent]:
    """The anchored components an inversion can have as a member: those of
    the idempotent loops crossed at least twice.

    Single-pass lemma: a loop [x1,x2] whose border crossing sequence has
    length 1 has one component, anchored at (x1, 0) on a cut the run crosses
    once.  The head moves one cut per step, so every earlier location lies
    left of x1 and every later one right of it: no anchor comes later at a
    position <= x1 or earlier at a position >= x1, and the component is in
    no inversion.  Inversions are therefore looked for among the loops
    crossed at least twice only, which keeps the same members in the same
    order; co-inversions need every loop.
    """
    return anchored_components(
        run, enumerate_loops(run, idempotent_only=True, skip_single_pass=True))


def inversions_of(run: Run) -> list[Inversion]:
    """All inversions of the run, in `enumerate_inversions` order."""
    return enumerate_inversions(run, INVERSION, multi_pass_components(run))


def inversion_spans(run: Run, anchored: list[AnchoredComponent]
                    ) -> tuple[list[tuple[int, int, int, int]], set[int]]:
    """What the coverage classes need of the inversions among `anchored`,
    without listing them.

    The spans are (s, e, i, j), last first, for each position i with a
    partner: s and e are the anchor indices of i and of its farthest
    partner, and j is its first partner anchored at e, found as the largest
    (anchor index, -position) over a prefix of loop right ends and i's own
    loop.  The set holds the anchor index of every inversion member: a
    component is a second member when an earlier one's loop starts at or
    right of its loop's end, or an earlier one on its own loop is anchored
    at or right of it.
    """
    sweep = _Sweep(run, anchored)
    order, xs = sweep.order, sweep.xs
    farthest = _PrefixMax(run.word.omega + 1, (-1, 0))
    spans = []
    for i, end, fresh in sweep:
        for j in fresh:
            farthest.raise_to(anchored[j].loop.x2, (order[j], -j))
        e, neg_j = max([farthest.upto(anchored[i].loop.x1)]
                       + [(order[j], -j) for j in sweep.same_loop(i, end)])
        if e >= 0:
            spans.append((order[i], e, i, -neg_j))
    members = {s for s, _, _, _ in spans}
    lefts = [0, *accumulate((a.loop.x1 for a in anchored), max)]
    for j, b in enumerate(anchored):
        start = bisect_left(order, order[j])
        same = sweep.by_loop[b.loop]
        if b.loop.x2 <= lefts[start] or any(
                xs[p] >= xs[j] for p in same[:bisect_left(same, start)]):
            members.add(order[j])
    return spans, members


def inversion_word(run: Run, inv: Inversion) -> str:
    i = run.index_of(inv.first.anchor)
    j = run.index_of(inv.second.anchor)
    return inv.first.trace_output + run.output_between(i, j) \
        + inv.second.trace_output


def smallest_period(word) -> int:
    """Least p >= 1 with word[i] == word[i+p] for all valid i."""
    n = len(word)
    if n == 0:
        raise ValueError("the empty word has no smallest period")
    for p in range(1, n):
        if word[p:] == word[:-p]:
            return p
    return n


def _side(run: Run, a: AnchoredComponent) -> tuple:
    """(root length r of a's trace, the root, output offset of a's anchor,
    whether the output continues with the root there, whether it ends with
    it there)."""
    trace, out = a.trace_output, run.output
    r = (trace + trace).find(trace, 1)
    root = trace[:r]
    off = run.out_prefix[run.index_of(a.anchor)]
    return r, root, off, out.startswith(root, off), out.endswith(root, 0, off)


def _sides_safe(run: Run, bound: PeriodBound, sa: tuple, sb: tuple) -> bool:
    r, root1, s, starts, _ = sa
    r2, root2, e, _, ends = sb
    if r != r2 or not bound_admits(bound, r):
        return False
    out = run.output
    if e - s < r:
        return has_period(root1 + out[s:e] + root2, r)
    return starts and ends and has_period(out[s:e], r)


def inversion_safe(run: Run, bound: PeriodBound, inv: Inversion) -> bool:
    """Whether the inversion word has a period that divides both trace
    lengths and that the bound admits, decided without building the word.

    Let w = tr1 · out[s:e] · tr2, and r1, r2 the lengths of the primitive
    roots of tr1 and tr2 (a word u has a period p dividing |u| exactly when
    its root length divides p).  If w has a period p dividing |tr1| and
    |tr2|, then w[:p] is a power of tr1's root, so w has period r1; by the
    same argument from the right it has period r2, and then each trace has
    the other's root length as a period dividing its length, so r1 == r2.
    Hence the word is safe exactly when r1 == r2 == r, the bound admits r
    and w has period r, and r is then the least such period.

    Every two letters r apart in w lie in tr1, in tr2 or in the window
    tr1[-r:] · out[s:e] · tr2[:r].  When e - s >= r, the window has period
    r exactly when out[s:e] has it and both junctions agree over r letters.
    A shorter window is checked as a word.
    """
    return _sides_safe(run, bound, _side(run, inv.first),
                       _side(run, inv.second))


def period_report(run: Run, inv: Inversion, bound: PeriodBound) -> PeriodReport:
    """The inversion word, its trace lengths and their gcd, and the period
    found: the traces' root length when `inversion_safe` holds, else None
    (see there why no other period can be found)."""
    l1, l2 = len(inv.first.trace_output), len(inv.second.trace_output)
    side = _side(run, inv.first)
    safe = _sides_safe(run, bound, side, _side(run, inv.second))
    return PeriodReport(inversion_word(run, inv), l1, l2, math.gcd(l1, l2),
                        side[0] if safe else None)


def first_unsafe_inversion(run: Run, bound: PeriodBound,
                           anchored: list[AnchoredComponent]
                           ) -> Optional[tuple[Inversion, PeriodReport]]:
    """The first unsafe inversion among the run's `multi_pass_components`,
    in `enumerate_inversions` order, with its report; None when all are
    safe.

    No pair is listed on the way.  The separated partners of a component a
    are a prefix by loop right end of the components anchored later, so
    prefix-max trees over loop right ends tell whether all of them are safe
    (see `inversion_safe`): their root lengths must all be a's r, which the
    bound admits, and each window of r letters or more needs a's root to
    start at its anchor, b's root to end at its own, and the output between
    to have period r, read off a table built by one right-to-left pass over
    the output.  The shorter windows, a short run of positions after a, and
    a's partners on its own loop are checked one by one.  Only the first a
    with an unsafe partner lists its partners.
    """
    out = run.output
    agreements: dict[int, list[int]] = {}

    def agreement(p: int) -> list[int]:
        """agree[k]: how many indices from k on have out[i] == out[i + p];
        out[s:e] has period p exactly when agree[s] >= e - s - p."""
        agree = agreements.get(p)
        if agree is None:
            agree = agreements[p] = [0] * (len(out) + 1)
            for k in range(len(out) - p - 1, -1, -1):
                if out[k] == out[k + p]:
                    agree[k] = agree[k + 1] + 1
        return agree

    sides = [_side(run, a) for a in anchored]
    offs = [side[2] for side in sides]
    sweep = _Sweep(run, anchored)
    width = run.word.omega + 1
    # Over the later components, by loop right end: the largest root length,
    # minus the least one, the largest anchor offset, and the largest one
    # where the component's root does not end.
    top_r, neg_low_r = _PrefixMax(width, 0), _PrefixMax(width, -math.inf)
    far, far_open = _PrefixMax(width, -1), _PrefixMax(width, -1)
    first = None
    for i, end, fresh in sweep:
        for j in fresh:
            x2 = anchored[j].loop.x2
            r, _, e, _, ends = sides[j]
            top_r.raise_to(x2, r)
            neg_low_r.raise_to(x2, -r)
            far.raise_to(x2, e)
            if not ends:
                far_open.raise_to(x2, e)
        sa = sides[i]
        r, _, s, starts, _ = sa
        x1 = anchored[i].loop.x1
        safe = all(_sides_safe(run, bound, sa, sides[j])
                   for j in sweep.same_loop(i, end))
        if safe and top_r.upto(x1):
            reach = far.upto(x1)
            safe = (bound_admits(bound, r) and top_r.upto(x1) == r
                    and neg_low_r.upto(x1) == -r
                    and (reach < s + r
                         or starts and far_open.upto(x1) < s + r
                         and reach - s - r <= agreement(r)[s])
                    and all(_sides_safe(run, bound, sa, sides[j])
                            for j in range(end, bisect_left(offs, s + r, end))
                            if anchored[j].loop.x2 <= x1))
        if not safe:
            first = i       # right to left: the last one set is the first
    if first is None:
        return None
    a = anchored[first]
    end = bisect_right(sweep.order, sweep.order[first])
    j = next(j for j in sorted(
        [j for j in range(end, len(anchored))
         if anchored[j].loop.x2 <= a.loop.x1] + sweep.same_loop(first, end))
        if not _sides_safe(run, bound, sides[first], sides[j]))
    inv = Inversion(INVERSION, a, anchored[j])
    return inv, period_report(run, inv, bound)


# ---------------------------------------------------------------------------
# Fine and Wilf
# ---------------------------------------------------------------------------

class FineWilfPrecondition(Exception):
    """The hypothesis of the overlap lemma is not met (distinct from a
    failed conclusion)."""


def has_period(word, p: int) -> bool:
    return p >= len(word) or word[p:] == word[:-p]


def fine_wilf_check(w1, p1: int, w2, p2: int,
                    overlap: tuple[int, int, int]) -> bool:
    """Oracle for the overlap lemma.

    `overlap` = (i1, i2, length) aligns the common factor w1[i1:i1+length]
    == w2[i2:i2+length].  Under the hypothesis (both words periodic as
    stated, common factor at least p1+p2-gcd long), returns whether w1, w2
    and the glued word w1[:i1] + w + w2[i2+length:] all have period
    gcd(p1, p2); the lemma asserts this always holds.
    """
    i1, i2, length = overlap
    w = w1[i1:i1 + length]
    if w != w2[i2:i2 + length]:
        raise FineWilfPrecondition("the aligned factors differ")
    if not has_period(w1, p1):
        raise FineWilfPrecondition(f"first word lacks period {p1}")
    if not has_period(w2, p2):
        raise FineWilfPrecondition(f"second word lacks period {p2}")
    g = math.gcd(p1, p2)
    if length < p1 + p2 - g:
        raise FineWilfPrecondition(
            f"common factor of length {length} is shorter than "
            f"{p1}+{p2}-{g}")
    w3 = w1[:i1] + w + w2[i2 + length:]
    return has_period(w1, g) and has_period(w2, g) and has_period(w3, g)


# ---------------------------------------------------------------------------
# k-inversions
# ---------------------------------------------------------------------------

def enumerate_k_inversions(run: Run, k: int, *,
                           cap: int = 10**6
                           ) -> Iterator[tuple[Inversion, ...]]:
    """All alternating inversion/co-inversion chains of length k with
    non-decreasing anchor order between consecutive members.

    Order contract: member i is an inversion for even i and a co-inversion
    for odd i, and its first anchor is no earlier in the run than the
    second anchor of member i-1.  Chains come in the lexicographic order of
    their members' positions in the `enumerate_inversions` lists, exactly
    as a depth-first search over those lists yields them.  The (cap+1)-th
    chain raises CapExceeded instead of being yielded.

    Cost: O(A log A + I log I) to build the member lists of the kinds the
    depths use (see `enumerate_inversions`), O(k I) for a feasibility pass,
    and O(k log I) per chain yielded.  Each list is sorted by first anchor,
    so the members that may follow a prefix form a suffix found by
    bisection.  Working from the last depth back, a member is kept only
    when its second anchor is no later than the first anchor of some kept
    member one depth deeper, so every member the search enters completes
    at least one chain.
    """
    if k < 1:
        raise ValueError("k must be positive")
    # A chain of one member is one inversion: no co-inversion list is built,
    # and the inversions skip the single-pass loops (see `inversions_of`).
    if k == 1:
        lists = [inversions_of(run)]
    else:
        anchored = anchored_components(
            run, enumerate_loops(run, idempotent_only=True))
        lists = [enumerate_inversions(run, kind, anchored)
                 for kind in (INVERSION, CO_INVERSION)]
    if not lists[0]:
        return      # every chain starts with an inversion
    index_of = run.index_of
    # spans[i % 2]: (first anchor index, second anchor index, inv) for the
    # members of the kind depth i takes.
    spans = [[(index_of(inv.first.anchor), index_of(inv.second.anchor), inv)
              for inv in invs] for invs in lists]
    # firsts/ends/members[i]: the members at depth i that complete a chain.
    firsts, ends, members = [None] * k, [None] * k, [None] * k
    reach = math.inf
    for i in range(k - 1, -1, -1):
        kept = [s for s in spans[i % 2] if s[1] <= reach]
        if not kept:
            return
        firsts[i] = [s[0] for s in kept]
        ends[i] = [s[1] for s in kept]
        members[i] = [s[2] for s in kept]
        reach = firsts[i][-1]
    count = 0
    chain: list[Inversion] = []

    def rec(i: int, prev_end: int) -> Iterator[tuple[Inversion, ...]]:
        nonlocal count
        last = i == k - 1
        depth_ends, depth_members = ends[i], members[i]
        for j in range(bisect_left(firsts[i], prev_end), len(depth_members)):
            chain.append(depth_members[j])
            if last:
                count += 1
                if count > cap:
                    raise CapExceeded(f"k-inversion cap {cap} exceeded")
                yield tuple(chain)
            else:
                yield from rec(i + 1, depth_ends[j])
            chain.pop()

    yield from rec(0, 0)


def k_inversion_safe(run: Run, bound: PeriodBound,
                     chain: tuple[Inversion, ...]) -> bool:
    """Safe when some member's word admits a dividing period within the
    bound."""
    return any(inversion_safe(run, bound, inv) for inv in chain)
