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

    @property
    def anchors(self):
        return (self.first.anchor, self.second.anchor)


class PeriodReport(NamedTuple):
    word: str
    len1: int
    len2: int
    gcd: int
    found_period: Optional[int]

    @property
    def safe(self) -> bool:
        return self.found_period is not None


class KInversion(NamedTuple):
    members: tuple[Inversion, ...]


def anchored_components(run: Run, loops: list[Loop]
                        ) -> list[AnchoredComponent]:
    """The (loop, component) pairs with non-empty trace output over the
    given idempotent loops of the run, sorted by anchor run order then loop
    interval."""
    out = []
    for loop in loops:
        for comp in components_of(run, loop):
            tr = trace_of(run, loop, comp)
            if tr.output:
                out.append(AnchoredComponent(loop, comp, tr.output))
    out.sort(key=lambda a: (run.loc_index[a.anchor], a.loop.x1, a.loop.x2,
                            a.component.min_node))
    return out


def _pair_matches(run: Run, kind: str, a: AnchoredComponent,
                  b: AnchoredComponent) -> bool:
    ia, ib = run.loc_index[a.anchor], run.loc_index[b.anchor]
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


def enumerate_inversions(run: Run, kind: str,
                         anchored: list[AnchoredComponent]
                         ) -> list[Inversion]:
    """The inversions (or co-inversions) among the anchored components.

    Order contract: the pairs `(a, b)` satisfying `_pair_matches`, ordered
    by the position of `a` in `anchored`, then by the position of `b` --
    exactly the all-pairs filter over `anchored[i:]`.  The order decides
    which unsafe inversion a certificate records and which inversion a
    coverage class keeps for each interval.

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
    order = [run.loc_index[a.anchor] for a in anchored]
    by_loop: dict[Loop, list[int]] = {}
    for pos, a in enumerate(anchored):
        by_loop.setdefault(a.loop, []).append(pos)
    later: list[tuple[int, int]] = []   # (sort key, position)
    partners: list[list[int]] = [[] for _ in range(n)]
    end = n
    while end > 0:
        # [start, end) share one anchor; only strictly later ones pair.
        start = end - 1
        while start > 0 and order[start - 1] == order[end - 1]:
            start -= 1
        for i in range(start, end):
            a = anchored[i]
            xa = a.anchor[0]
            limit = -a.loop.x2 if co else a.loop.x1
            found = [pos for _, pos in later[:bisect_right(later, (limit, n))]]
            same = by_loop[a.loop]
            for j in same[bisect_left(same, end):]:
                xb = anchored[j].anchor[0]
                if (xa <= xb) if co else (xb <= xa):
                    found.append(j)
            found.sort()
            partners[i] = found
        for i in range(start, end):
            loop = anchored[i].loop
            insort(later, (-loop.x1 if co else loop.x2, i))
        end = start
    return [Inversion(kind, a, anchored[j])
            for a, js in zip(anchored, partners) for j in js]


def inversions_of(run: Run) -> list[Inversion]:
    """All inversions of the run, in `enumerate_inversions` order.

    Single-pass lemma: a loop [x1,x2] whose border crossing sequence has
    length 1 has one component, anchored at (x1, 0) on a cut the run crosses
    once.  The head moves one cut per step, so every earlier location lies
    left of x1 and every later one right of it: no anchor comes later at a
    position <= x1 or earlier at a position >= x1, and the component is in
    no inversion.  Inversions are therefore looked for among the loops
    crossed at least twice only, which keeps the same members in the same
    order; co-inversions need every loop.
    """
    loops = enumerate_loops(run, idempotent_only=True, skip_single_pass=True)
    return enumerate_inversions(run, INVERSION,
                                anchored_components(run, loops))


def inversion_word(run: Run, inv: Inversion) -> str:
    i = run.loc_index[inv.first.anchor]
    j = run.loc_index[inv.second.anchor]
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


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def has_dividing_period(word, len1: int, len2: int,
                        bound: PeriodBound) -> Optional[int]:
    """Smallest period of `word` dividing gcd(len1, len2) and <= bound."""
    assert len1 >= 1 and len2 >= 1
    g = math.gcd(len1, len2)
    n = len(word)
    for p in _divisors(g):
        if not bound_admits(bound, p):
            break
        if p >= n or word[p:] == word[:-p]:
            return p
    return None


def period_report(run: Run, inv: Inversion, bound: PeriodBound) -> PeriodReport:
    w = inversion_word(run, inv)
    l1, l2 = len(inv.first.trace_output), len(inv.second.trace_output)
    return PeriodReport(w, l1, l2, math.gcd(l1, l2),
                        has_dividing_period(w, l1, l2, bound))


class PeriodIndex:
    """`period_report(run, inv, bound).safe` for the inversions of one run,
    without building their words.

    Let w = tr1 · out[s:e] · tr2, and r1, r2 the lengths of the primitive
    roots of tr1 and tr2 (a word u has a period p dividing |u| exactly when
    its root length divides p).  If w has a period p dividing |tr1| and
    |tr2|, then w[:p] is a power of tr1's root, so w has period r1; by the
    same argument from the right it has period r2, and then each trace has
    the other's root length as a period dividing its length, so r1 == r2.
    Hence the word is safe exactly when r1 == r2 == r, the bound admits r
    and w has period r, and r is then the period `period_report` finds.

    Every two letters r apart in w lie in tr1, in tr2 or in the window
    tr1[-r:] · out[s:e] · tr2[:r].  When e - s >= r, the window has period
    r exactly when out[s:e] has it, a lookup in a table built by one
    right-to-left pass over the output, and both junctions agree over r
    letters.  A shorter window is checked as a word.

    Tables fill on first use, so build one index per run and bound, and
    drop it with the run.
    """

    def __init__(self, run: Run, bound: PeriodBound):
        self.run = run
        self.bound = bound
        self._admits: dict[int, bool] = {}          # r -> bound admits r
        self._agree: dict[int, list[int]] = {}      # r -> agreement runs
        self._sides: dict[int, tuple] = {}          # id -> see _side

    def _agreement(self, p: int) -> list[int]:
        """agree[k]: how many indices from k on have out[i] == out[i + p];
        out[s:e] has period p exactly when agree[s] >= e - s - p."""
        agree = self._agree.get(p)
        if agree is None:
            out = self.run.output
            agree = [0] * (len(out) + 1)
            for k in range(len(out) - p - 1, -1, -1):
                if out[k] == out[k + p]:
                    agree[k] = agree[k + 1] + 1
            self._agree[p] = agree
        return agree

    def _side(self, a: AnchoredComponent) -> tuple:
        """(a, root length r, root, output offset of the anchor, whether the
        output continues with the root there, whether it ends with it
        there), kept by id; holding `a` keeps its id from reuse."""
        trace, out = a.trace_output, self.run.output
        r = (trace + trace).find(trace, 1)
        root = trace[:r]
        off = self.run.out_prefix[self.run.loc_index[a.anchor]]
        side = self._sides[id(a)] = (a, r, root, off,
                                     out.startswith(root, off),
                                     out.endswith(root, 0, off))
        if r not in self._admits:
            self._admits[r] = bound_admits(self.bound, r)
        return side

    def safe(self, inv: Inversion) -> bool:
        a, b = inv.first, inv.second
        sa, sb = self._sides.get(id(a)), self._sides.get(id(b))
        if sa is None or sa[0] is not a:
            sa = self._side(a)
        if sb is None or sb[0] is not b:
            sb = self._side(b)
        _, r, root1, s, starts, _ = sa
        _, r2, root2, e, _, ends = sb
        if r != r2 or not self._admits[r]:
            return False
        if e - s < r:
            return has_period(root1 + self.run.output[s:e] + root2, r)
        return starts and ends and self._agreement(r)[s] >= e - s - r


def check_p2(run: Run, bound: PeriodBound
             ) -> list[tuple[Inversion, PeriodReport]]:
    """Periodicity report for every inversion; the run passes when all safe."""
    return [(inv, period_report(run, inv, bound))
            for inv in inversions_of(run)]


def first_unsafe_inversion(run: Run, bound: PeriodBound,
                           inversions: list[Inversion]
                           ) -> Optional[tuple[Inversion, PeriodReport]]:
    """First unsafe member of the run's `inversions` in their order, or None.

    Only the inversion returned gets its word and report built."""
    periods = PeriodIndex(run, bound)
    for inv in inversions:
        if not periods.safe(inv):
            return inv, period_report(run, inv, bound)
    return None


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
                           cap: int = 10**6) -> Iterator[KInversion]:
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
    loc = run.loc_index
    # spans[i % 2]: (first anchor index, second anchor index, inv) for the
    # members of the kind depth i takes.
    spans = [[(loc[inv.first.anchor], loc[inv.second.anchor], inv)
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

    def rec(i: int, prev_end: int) -> Iterator[KInversion]:
        nonlocal count
        last = i == k - 1
        depth_ends, depth_members = ends[i], members[i]
        for j in range(bisect_left(firsts[i], prev_end), len(depth_members)):
            chain.append(depth_members[j])
            if last:
                count += 1
                if count > cap:
                    raise CapExceeded(f"k-inversion cap {cap} exceeded")
                yield KInversion(tuple(chain))
            else:
                yield from rec(i + 1, depth_ends[j])
            chain.pop()

    yield from rec(0, 0)


def k_inversion_safe(periods: PeriodIndex, ki: KInversion) -> bool:
    """Safe when some member's word admits a dividing period within the
    bound; `periods` is the index of the chain's run and that bound."""
    return any(periods.safe(inv) for inv in ki.members)
