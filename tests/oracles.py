"""Independent oracles the tests check the library against.

These deliberately avoid the library's own search and bookkeeping: the run
oracle walks raw configurations and filters afterwards, the DFS oracle
searches each word on its own, from scratch, the period oracle tries every
shift, the factor oracle scans every step of the run where the library reads
the visits to the two borders, the subrun oracle filters steps one by one,
the inversion oracle tests every pair of anchored components, and the chain
oracle tries every member at every depth.

The list versions of the periodicity check and the coverage classes scan
the run's inversion list, pair by pair, where the library answers from
per-component aggregates without listing the pairs.

The helpers at the end check properties of the library's objects that the
library itself never needs: powers of an effect, the factor pattern of a
loop component, the trace-based prediction of a pumped output,
output-minimality, and a full re-check of a decomposition.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from untwist.bounds import PeriodBound
from untwist.decomposition import (BLOCK, DIAGONAL, CoverageClass,
                                   Decomposition, is_block, is_diagonal)
from untwist.effects import effect_product
from untwist.inversions import (CO_INVERSION, INVERSION, Inversion,
                                KInversion, PeriodIndex, PeriodReport,
                                _pair_matches, anchored_components,
                                inversions_of, period_report)
from untwist.loops import (Component, Loop, components_of, enumerate_loops,
                           trace_of)
from untwist.runs import CapExceeded, DelimitedInput, Factor, Run, Step
from untwist.transducer import RIGHT, Transducer


def naive_runs(t: Transducer, raw: str) -> set[tuple]:
    """All normalized successful runs as transition tuples, by unpruned
    configuration search with a hard length cap and post-hoc filtering."""
    padded = "\x02" + raw + "\x03"
    omega = len(padded)
    cap = 2 * len(t.states) * (omega + 1) + 1
    results: set[tuple] = set()

    def walk(head: int, state: str, path: list):
        if head == omega:
            if state in t.finals:
                results.add(tuple(path))
            return
        if len(path) >= cap:
            return
        for tr, _ in t.moves(state, padded[head]):
            nxt = head + 1 if tr.direction == RIGHT else head - 1
            if nxt < 0:
                continue
            path.append(tr)
            walk(nxt, tr.target, path)
            path.pop()

    walk(0, t.initial, [])
    return {path for path in results if _is_normalized(t, raw, path)}


def _is_normalized(t: Transducer, raw: str, path: tuple) -> bool:
    """Recompute locations for a transition path and check normalization."""
    omega = len(raw) + 2
    levels = [0] * (omega + 1)
    levels[0] = 1
    seen = [set() for _ in range(omega + 1)]
    seen[0].add((t.initial, 0))
    x, y = 0, 0
    for tr in path:
        if y % 2 == 0:
            x2 = x + 1 if tr.direction == RIGHT else x
        else:
            x2 = x if tr.direction == RIGHT else x - 1
        key = (tr.target, levels[x2] % 2)
        if key in seen[x2]:
            return False
        seen[x2].add(key)
        x, y = x2, levels[x2]
        levels[x2] += 1
    return True


def brute_runs(t: Transducer, raw: str, *,
               cap_runs: int = 10**5) -> list[Run]:
    """All normalized successful runs on |-raw-|, in canonical DFS order,
    by one DFS over the whole word: the runs, their order and the run at
    which the run cap fires, which `enumerate_runs` and `runs_upto` must
    reproduce.

    The search prunes any extension that would repeat a (state, level parity)
    pair at one position, which both enforces normalization and bounds the
    depth, so it always terminates.
    """
    word = DelimitedInput.of(raw)
    omega = word.omega
    padded = word.padded
    state_cap = 2 * len(t.states)

    levels = [0] * (omega + 1)      # next free level per position
    seen: list[set] = [set() for _ in range(omega + 1)]
    levels[0] = 1
    seen[0].add((t.initial, 0))

    runs: list[Run] = []
    steps: list[Step] = []

    # Iterative DFS; each frame is (location, state, iterator over moves).
    def moves_at(loc: tuple[int, int], state: str):
        x, y = loc
        ri = x if y % 2 == 0 else x - 1
        return t.moves(state, padded[ri]), ri

    stack: list = []
    initial_moves, ri0 = moves_at((0, 0), t.initial)
    stack.append([(0, 0), t.initial, iter(initial_moves), ri0])

    while stack:
        loc, state, it, ri = stack[-1]
        advanced = False
        for tr, out_enc in it:
            x, y = loc
            if y % 2 == 0:
                x2 = x + 1 if tr.direction == RIGHT else x
            else:
                x2 = x if tr.direction == RIGHT else x - 1
            if x2 < 0 or x2 > omega:
                continue
            y2 = levels[x2]
            if y2 >= state_cap:
                continue
            parity = y2 % 2
            # Rightward steps land on even levels, leftward on odd ones.
            assert parity == (0 if tr.direction == RIGHT else 1)
            key = (tr.target, parity)
            if key in seen[x2]:
                continue    # normalization pruning
            target = (x2, y2)
            steps.append(Step(loc, target, tr, ri, out_enc))
            levels[x2] += 1
            seen[x2].add(key)
            if x2 == omega:
                if tr.target in t.finals:
                    if len(runs) >= cap_runs:
                        raise CapExceeded(f"run cap {cap_runs} exceeded")
                    runs.append(Run(t, word, steps))
                # Past the right delimiter nothing can move; backtrack.
                steps.pop()
                levels[x2] -= 1
                seen[x2].discard(key)
                continue
            nxt_moves, nxt_ri = moves_at(target, tr.target)
            stack.append([target, tr.target, iter(nxt_moves), nxt_ri])
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if steps and stack:
            s = steps.pop()
            x2 = s.target[0]
            levels[x2] -= 1
            seen[x2].discard((s.transition.target, s.target[1] % 2))
    return runs


def run_signature(run: Run) -> tuple:
    return tuple(s.transition for s in run.steps)


def brute_smallest_period(word: str) -> int:
    for p in range(1, len(word) + 1):
        if all(word[i] == word[i + p] for i in range(len(word) - p)):
            return p
    raise AssertionError("unreachable for non-empty words")


def brute_intercepted_factors(run: Run, x1: int, x2: int) -> list[Factor]:
    """The maximal fragments of consecutive steps that read symbols in
    [x1, x2), by a scan over every step of the run."""
    factors = []
    i, n = 0, len(run.steps)
    while i < n:
        if x1 <= run.steps[i].read_index < x2:
            j = i
            while j < n and x1 <= run.steps[j].read_index < x2:
                j += 1
            start, end = run.steps[i].source, run.steps[j - 1].target
            # Fragment borders always sit on the interval borders.
            assert start[0] in (x1, x2) and end[0] in (x1, x2)
            kind = ("L" if start[0] == x1 else "R") + \
                   ("L" if end[0] == x1 else "R")
            factors.append(Factor(kind, (x1, x2), start, end, (i, j)))
            i = j
        else:
            i += 1
    return factors


def brute_subrun_output(run: Run, lo: int, hi: int, x1: int, x2: int) -> str:
    parts = []
    for i, step in enumerate(run.steps):
        if lo <= i and i + 1 <= hi \
                and x1 <= step.source[0] <= x2 and x1 <= step.target[0] <= x2:
            parts.append(step.output)
    return "".join(parts)


def independent_constants(q: int, c_max: int):
    """Big-integer evaluation of the three closed forms, written separately
    from the library's formulas."""
    h = q + q - 1
    e = 1
    for _ in range(2 * h):
        e *= 2 * q
    bound = c_max * h * (pow(2, 3 * e) + 4) if 3 * e <= 1 << 20 else None
    return h, e, bound


def brute_inversions(run: Run, kind: str, anchored=None) -> list[Inversion]:
    """Every ordered pair of anchored components tested with the pair
    predicate: the all-pairs filter whose order `enumerate_inversions`
    must reproduce."""
    if anchored is None:
        anchored = anchored_components(
            run, enumerate_loops(run, idempotent_only=True))
    return [Inversion(kind, a, b)
            for i, a in enumerate(anchored) for b in anchored[i:]
            if _pair_matches(run, kind, a, b)]


def check_p2(run: Run, bound: PeriodBound
             ) -> list[tuple[Inversion, PeriodReport]]:
    """Periodicity report for every inversion; the run passes when all safe."""
    return [(inv, period_report(run, inv, bound))
            for inv in inversions_of(run)]


def list_first_unsafe_inversion(run: Run, bound: PeriodBound,
                                inversions: list[Inversion]
                                ) -> Optional[tuple[Inversion, PeriodReport]]:
    """First unsafe member of the run's `inversions` in their order, or None:
    what `first_unsafe_inversion` must return without listing them."""
    periods = PeriodIndex(run, bound)
    for inv in inversions:
        if not periods.safe(inv):
            return inv, period_report(run, inv, bound)
    return None


def list_coverage_classes(run: Run, inversions: list[Inversion]
                          ) -> list[CoverageClass]:
    """Coverage classes from the run's inversion list, keeping for each
    interval its first inversion and sweeping the intervals in (start,
    -end) order: what `coverage_classes` must return without listing
    them."""
    if not inversions:
        return []
    intervals: dict[tuple[int, int], Inversion] = {}
    for inv in inversions:
        key = (run.index_of(inv.first.anchor),
               run.index_of(inv.second.anchor))
        intervals.setdefault(key, inv)
    maximal: list[tuple[tuple[int, int], Inversion]] = []
    reach = -1
    for s, e in sorted(intervals, key=lambda iv: (iv[0], -iv[1])):
        if e > reach:
            maximal.append(((s, e), intervals[(s, e)]))
            reach = e
    anchors_all = sorted({s for s, _ in intervals} | {e for _, e in intervals})
    classes = []
    i = 0
    while i < len(maximal):
        (s, e), inv = maximal[i]
        chain = [inv]
        j = i + 1
        while j < len(maximal):
            (s2, e2), inv2 = maximal[j]
            if s2 > e:
                break
            if e2 > e:
                chain.append(inv2)
                e = e2
            j += 1
        anchor_locs = tuple(run.locations[a] for a in anchors_all[
            bisect_left(anchors_all, s):bisect_right(anchors_all, e)])
        classes.append(CoverageClass(s, e, tuple(chain), anchor_locs))
        i = j
    return classes


def brute_coverage_classes(run: Run) -> list[CoverageClass]:
    """Coverage classes with the maximal intervals found by testing every
    pair of intervals for containment."""
    inversions = brute_inversions(run, INVERSION)
    intervals: dict[tuple[int, int], Inversion] = {}
    for inv in inversions:
        key = (run.index_of(inv.first.anchor),
               run.index_of(inv.second.anchor))
        intervals.setdefault(key, inv)
    items = sorted(intervals.items())
    maximal = [((s, e), inv) for (s, e), inv in items
               if not any(s2 <= s and e <= e2 and (s2, e2) != (s, e)
                          for (s2, e2), _ in items)]
    anchors = {run.index_of(inv.first.anchor) for inv in inversions} \
        | {run.index_of(inv.second.anchor) for inv in inversions}
    classes = []
    i = 0
    while i < len(maximal):
        (s, e), inv = maximal[i]
        chain = [inv]
        j = i + 1
        while j < len(maximal) and maximal[j][0][0] <= e:
            (_, e2), inv2 = maximal[j]
            if e2 > e:
                chain.append(inv2)
                e = e2
            j += 1
        classes.append(CoverageClass(
            s, e, tuple(chain),
            tuple(run.locations[a] for a in sorted(anchors) if s <= a <= e)))
        i = j
    return classes


def brute_k_inversions(run: Run, k: int, *, cap: int = 10**6):
    """Alternating chains by depth-first search that tries every member at
    every depth, over the all-pairs member lists: the order and the cap
    point `enumerate_k_inversions` must reproduce."""
    if k < 1:
        raise ValueError("k must be positive")
    anchored = anchored_components(
        run, enumerate_loops(run, idempotent_only=True))
    members_by_kind = {
        INVERSION: brute_inversions(run, INVERSION, anchored),
        CO_INVERSION: brute_inversions(run, CO_INVERSION, anchored),
    }
    count = 0

    def rec(i: int, chain: list[Inversion]):
        nonlocal count
        if i == k:
            count += 1
            if count > cap:
                raise CapExceeded(f"k-inversion cap {cap} exceeded")
            yield KInversion(tuple(chain))
            return
        kind = INVERSION if i % 2 == 0 else CO_INVERSION
        for inv in members_by_kind[kind]:
            if chain:
                prev_end = run.index_of(chain[-1].second.anchor)
                if run.index_of(inv.first.anchor) < prev_end:
                    continue
            chain.append(inv)
            yield from rec(i + 1, chain)
            chain.pop()

    yield from rec(0, [])


def effect_power(e, n: int):
    """e ⊙ e ⊙ ... (n times, n >= 1), by binary exponentiation."""
    assert n >= 1
    result = None
    base = e
    while n:
        if n & 1:
            result = base if result is None else effect_product(result, base)
        base = effect_product(base, base)
        n >>= 1
    return result


def component_factor_pattern(comp: Component) -> tuple[int, bool]:
    """Check the k*LL, 1*LR, k*RR run-order pattern (mirrored when
    right-to-left); returns (k, ok)."""
    kinds = [f.kind for f in sorted(comp.factors, key=lambda f: f.step_range)]
    first, cross, last = ("LL", "LR", "RR") if comp.left_to_right else \
        ("RR", "RL", "LL")
    k2, rest = 0, list(kinds)
    while rest and rest[0] == first:
        k2 += 1
        rest.pop(0)
    ok = (len(rest) == k2 + 1 and rest[0] == cross
          and all(kind == last for kind in rest[1:]))
    return k2, ok


def predicted_pump_output(run: Run, loop: Loop,
                          comps: list[Component], m: int) -> str:
    """Trace-based prediction of the pumped output for an idempotent loop.

    Iterating the loop m extra times iterates each component's trace m times
    at its anchor: the output is out(p0) tr1^m out(p1) ... trk^m out(pk),
    where the p's are the anchor-delimited pieces of the original run.
    """
    assert loop.idempotent
    if m < 0:
        raise ValueError("m must be non-negative")
    idx = [run.index_of(c.anchor) for c in comps]
    assert idx == sorted(idx), "components must be listed in anchor order"
    parts = [run.output_upto(idx[0]) if comps else run.output]
    for i, comp in enumerate(comps):
        parts.append(trace_of(run, comp) * m)
        nxt = idx[i + 1] if i + 1 < len(comps) else len(run.steps)
        parts.append(run.output_between(idx[i], nxt))
    return "".join(parts)


def subloops(run: Run, loop: Loop) -> list[Loop]:
    """Idempotent loops strictly contained in `loop`."""
    return [l for l in enumerate_loops(run, idempotent_only=True)
            if loop.contains(l) and l.interval != loop.interval]


def is_output_minimal(run: Run, loop: Loop, comp: Component) -> bool:
    """No strictly smaller idempotent loop has a component with non-empty
    trace output and a factor nested inside one of this component's factors.
    """
    spans = [f.step_range for f in comp.factors]
    for inner in subloops(run, loop):
        for ic in components_of(run, inner):
            if not trace_of(run, ic):
                continue
            for f in ic.factors:
                i, k = f.step_range
                if any(a <= i and k <= b for a, b in spans):
                    return False
    return True


def validate_decomposition(run: Run, d: Decomposition) -> bool:
    """Full independent re-check of tiling, ordering and piece predicates."""
    if not d.pieces:
        return False
    if d.pieces[0].start != run.locations[0]:
        return False
    if d.pieces[-1].end != run.locations[-1]:
        return False
    for p, q in zip(d.pieces, d.pieces[1:]):
        if p.end != q.start:
            return False
    xs = [p.start[0] for p in d.pieces] + [d.pieces[-1].end[0]]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        return False
    for p in d.pieces:
        if run.index_of(p.start) > run.index_of(p.end):
            return False
        if p.kind == DIAGONAL:
            ok, _ = is_diagonal(run, p.start, p.end, d.bound)
        elif p.kind == BLOCK:
            ok, _ = is_block(run, p.start, p.end, d.bound)
        else:
            return False
        if not ok:
            return False
    return True
