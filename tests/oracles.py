"""Independent oracles the tests check the library against.

These deliberately avoid the library's own search and bookkeeping: the run
oracle walks raw configurations and filters afterwards, the DFS oracle
searches each word on its own, from scratch, the period oracle tries every
shift, the dividing-period oracle tries each common divisor of the two trace
lengths on the built word where the library compares the traces' primitive
roots, the factor oracle scans every step of the run where the library reads
the visits to the two borders, the subrun oracle filters steps one by one,
the flow oracle joins four clauses of edge relations where the library
follows each path, the inversion oracle tests every pair of anchored
components, the chain oracle tries every member at every depth, and the
decider oracle scans every run of every word and judges each chain member
on its built word.  The prefix-sharing oracle is the canonical
DFS over partial runs, cut at input prefixes, that the library's search
over crossing sequences replaced; the per-run search oracle is the
deciders' scan over its runs, without their skeleton set and early stop.
The located replay and the location-map pump walk locations, step by step,
where the library files each move under its cell and walks the cells.

The list versions of the periodicity check and the coverage classes scan
the run's inversion list, pair by pair, where the library answers from
per-component aggregates without listing the pairs.

The helpers at the end serve the tests where the library has no use for
them: `words_upto` lists the words the shared enumeration visits, in its
order, `runs_upto` builds a `Run` from each arrival of that enumeration, and
the others check properties of the library's objects:
powers of an effect, the factor pattern of a loop component, the
trace-based prediction of a pumped output, output-minimality, and a full
re-check of a decomposition.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice, product
from typing import Iterator, NamedTuple, Optional

from untwist.bounds import PeriodBound, bound_admits
from untwist.decomposition import (BLOCK, DIAGONAL, CoverageClass,
                                   Decomposition, is_block, is_diagonal)
from untwist.effects import BOTTOM, Edge, Flow, effect_product
from untwist.inversions import (CO_INVERSION, INVERSION, AnchoredComponent,
                                Inversion, PeriodReport, _pair_matches,
                                _side, _sides_safe, anchored_components,
                                enumerate_k_inversions, inversion_word,
                                inversions_of, k_inversion_safe,
                                period_report)
from untwist.loops import (Component, Loop, components_of, enumerate_loops,
                           trace_of)
from untwist.oneway import _check_functional
from untwist.runs import (CapExceeded, DelimitedInput, Factor,
                          InternalInconsistencyError, Location, Run, Step,
                          _advance, _read_index, arrivals_upto)
from untwist.transducer import (LEFT_END, RIGHT, RIGHT_END, Transducer,
                                Transition)


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
    which the run cap fires, which `enumerate_runs` and `arrivals_upto` must
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


def has_dividing_period(word, len1: int, len2: int,
                        bound: PeriodBound) -> Optional[int]:
    """Smallest period of `word` dividing gcd(len1, len2) and <= bound, by
    trying each divisor in turn: the library's `inversion_safe` decides the
    same from the traces' root lengths."""
    if len1 < 1 or len2 < 1:
        raise ValueError("both trace lengths must be positive")
    g = math.gcd(len1, len2)
    for p in range(1, g + 1):
        if g % p == 0 and bound_admits(bound, p) \
                and (p >= len(word) or word[p:] == word[:-p]):
            return p
    return None


def word_safe(run: Run, inv: Inversion, bound: PeriodBound) -> bool:
    """Whether the inversion's built word has a dividing period."""
    return has_dividing_period(
        inversion_word(run, inv), len(inv.first.trace_output),
        len(inv.second.trace_output), bound) is not None


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


def _compose(a: frozenset, b: frozenset) -> frozenset:
    by_src: dict[int, list[int]] = {}
    for y, z in b:
        by_src.setdefault(y, []).append(z)
    return frozenset((y, w) for y, z in a for w in by_src.get(z, ()))


def _star(edges: frozenset, universe: int) -> frozenset:
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


def counted_flow_is_valid(h1: int, h2: int, edges: frozenset) -> bool:
    """The flow degree discipline, by counting each level's in- and
    out-edges."""
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


def _edge_kind(edge: Edge) -> str:
    y, z = edge
    if y % 2 == 0:
        return "LR" if z % 2 == 0 else "LL"
    return "RR" if z % 2 == 0 else "RL"


def flow_partition(f: Flow) -> dict[str, frozenset[Edge]]:
    """The flow's edges by kind: LL, LR, RL and RR, for the border each
    edge leaves from and the border it reaches."""
    parts: dict[str, set[Edge]] = {"LL": set(), "LR": set(),
                                   "RL": set(), "RR": set()}
    for e in f.edges:
        parts[_edge_kind(e)].add(e)
    return {k: frozenset(v) for k, v in parts.items()}


def four_clause_flow_product(f, g):
    """F∘G from the LL/LR/RL/RR edge classes: relation products, with the
    zig-zags across the shared border closed by reflexive-transitive star,
    joined in the four composition clauses."""
    if f is BOTTOM or g is BOTTOM or f.h2 != g.h1:
        return BOTTOM
    universe = max(f.h1, f.h2, g.h1, g.h2)
    fp, gp = flow_partition(f), flow_partition(g)
    left_turns = _star(_compose(gp["LL"], fp["RR"]), universe)
    right_turns = _star(_compose(fp["RR"], gp["LL"]), universe)
    lr = _compose(_compose(fp["LR"], left_turns), gp["LR"])
    rl = _compose(_compose(gp["RL"], right_turns), fp["RL"])
    ll = fp["LL"] | _compose(
        _compose(_compose(fp["LR"], left_turns), gp["LL"]), fp["RL"])
    rr = gp["RR"] | _compose(
        _compose(_compose(gp["RL"], right_turns), fp["RR"]), gp["LR"])
    edges = frozenset(lr | rl | ll | rr)
    if not counted_flow_is_valid(f.h1, g.h2, edges):
        return BOTTOM
    return Flow(f.h1, g.h2, edges)


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
    what `first_unsafe_inversion` must return without listing them.  Each
    pair is judged as `inversion_safe` judges it, from the two members'
    sides, and each side is computed once."""
    sides: dict[int, tuple] = {}    # `inversions` keeps every member alive

    def side(a: AnchoredComponent) -> tuple:
        s = sides.get(id(a))
        if s is None:
            s = sides[id(a)] = _side(run, a)
        return s

    for inv in inversions:
        if not _sides_safe(run, bound, side(inv.first), side(inv.second)):
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
            yield tuple(chain)
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


def brute_decide(t: Transducer, k: int, max_len: int, bound: PeriodBound):
    """The first chain of k members that are all unsafe, over the runs of
    every word up to max_len in `words_upto` order, with its input and the
    search counters; (None, None, counters) when there is none.

    Each word's runs come from `brute_runs`, each run's chains from
    `brute_k_inversions`, and each member is judged on its built word by
    `has_dividing_period`: what the deciders must find, and count, without
    building a word.  The counters are named as the deciders name them."""
    counter = "inversions" if k == 1 else "chains"
    searched = {"inputs": 0, "runs": 0, counter: 0}
    for raw in words_upto(t, max_len):
        searched["inputs"] += 1
        for run in brute_runs(t, raw):
            searched["runs"] += 1
            for chain in brute_k_inversions(run, k):
                searched[counter] += 1
                if not any(word_safe(run, inv, bound) for inv in chain):
                    return chain, raw, searched
    return None, None, searched


def per_run_first_unsafe_run(t: Transducer, max_len: int, cap_runs: int,
                             k: int, bound: PeriodBound, cap_chains: float,
                             counter: str):
    """`oneway._first_unsafe_run` without its shortcuts, on the runs of
    the `_PrefixSearch` oracle: it counts every input one by one, builds a
    `Run` and searches its chains for every flagged arrival, skeletons
    seen chain-free before included, and after a refutation or a chain-cap
    CapExceeded it checks the functionality of every later input up to
    max_len, on deterministic machines too."""
    stats = {"inputs": 0, "runs": 0, counter: 0}
    found = held = None
    for raw, arrivals in prefix_arrivals_upto(t, max_len, cap_runs=cap_runs):
        _check_functional(t, raw, arrivals)
        if found is not None or held is not None:
            continue
        stats["inputs"] += 1
        for arrival in arrivals:
            stats["runs"] += 1
            if not arrival.may_invert:
                continue
            run = Run(t, DelimitedInput.of(raw), arrival.steps)
            try:
                for chain in enumerate_k_inversions(run, k, cap=cap_chains):
                    stats[counter] += 1
                    if not k_inversion_safe(run, bound, chain):
                        found = raw, run, chain
                        break
            except CapExceeded as exc:
                held = exc
            if found is not None or held is not None:
                break
    if held is not None:
        raise held
    return found, stats


def words_upto(t: Transducer, max_len: int) -> Iterator[str]:
    """Every encoded input word of length <= max_len, in the order
    `arrivals_upto` gives them: shorter words first, words of one length in
    lexicographic order of their encoded symbols."""
    alphabet = sorted(t.table.encode_symbol(s) for s in t.input_symbols)
    for n in range(max_len + 1):
        for tup in product(alphabet, repeat=n):
            yield "".join(tup)


def runs_upto(t: Transducer, max_len: int, *, cap_runs: int = 10**5
              ) -> Iterator[tuple[str, list[Run]]]:
    """Every word of `words_upto(t, max_len)`, in that order, with a `Run`
    built from each of its `arrivals_upto` arrivals: the runs
    `enumerate_runs` gives, or the CapExceeded it raises.  A dead prefix's
    words, which `arrivals_upto` stands for by one item, come with no
    runs."""
    words = words_upto(t, max_len)
    for raw, arrivals, count in arrivals_upto(t, max_len, cap_runs=cap_runs):
        for word in islice(words, count):
            assert word.startswith(raw) and (count == 1 or not arrivals)
            yield word, [Run(t, DelimitedInput.of(word), a.steps)
                         for a in arrivals]


# -- replay and pumping by locations ----------------------------------------

def located_replay(t: Transducer, raw: str,
                   transitions: list[Transition]) -> Run:
    """`replay` by walking locations: each transition must be a move of `t`
    from the current state on the letter under the head, and its target is
    the next free level at the cut it crosses.  Raises ValueError, with
    `replay`'s messages, if the sequence is not a successful run of `t` on
    |-raw-|."""
    word = DelimitedInput.of(raw)
    padded = word.padded
    levels = [0] * (word.omega + 1)
    levels[0] = 1
    loc: Location = (0, 0)
    state = t.initial
    steps: list[Step] = []
    for tr in transitions:
        ri = _read_index(loc)
        if not (0 <= ri < word.omega):
            raise ValueError(f"step {len(steps)}: head out of range")
        out_enc = dict(t.moves(state, padded[ri])).get(tr)
        if out_enc is None:
            raise ValueError(f"step {len(steps)}: the machine has no such "
                             f"move in state {state!r} reading index {ri}")
        x2 = _advance(loc, tr.direction)
        if x2 < 0 or x2 > word.omega:
            raise ValueError(f"step {len(steps)}: move out of range")
        target = (x2, levels[x2])
        levels[x2] += 1
        steps.append(Step(loc, target, tr, ri, out_enc))
        loc, state = target, tr.target
    if loc[0] != word.omega:
        raise ValueError("run does not end past the right delimiter")
    if state not in t.finals:
        raise ValueError("run does not end in a final state")
    return Run(t, word, steps)


def location_map_pump(t: Transducer, run: Run, loop: Loop, copies: int
                      ) -> tuple[str, Run]:
    """`pump` by a location map: from each location (x, y) the pumped run
    makes the move the original makes from (phi(x), y).  phi is the
    identity up to x1, shifts x left by the (copies-1)(x2-x1) cuts added
    right of the last copy, and inside a copy reduces x modulo the loop; an
    inner copy border maps to x1 on an even level (the next move reads into
    a copy) and to x2 on an odd one.  The walk's transitions are replayed
    by `located_replay`, after a check that it made each step that reads
    inside the loop once per copy."""
    x1, x2 = loop.x1, loop.x2
    if copies < 1:
        raise ValueError("pump multiplicity must be at least 1")
    if not 1 <= x1 < x2 < run.word.omega \
            or run.crossing(x1) != run.crossing(x2):
        raise ValueError(f"{loop} is not a loop of the run: its borders are "
                         f"not inner cuts with equal crossings")
    width, shift = x2 - x1, (copies - 1) * (x2 - x1)
    end = run.word.omega + shift
    total = len(run.steps) + (copies - 1) * sum(
        x1 <= s.read_index < x2 for s in run.steps)
    levels = [1] + [0] * end
    x, y, out = 0, 0, []
    while x != end and len(out) <= total:
        if x1 < x < x2 + shift:     # strictly inside the copies
            r = (x - x1) % width
            fx = x1 + r if r else (x1 if y % 2 == 0 else x2)
        else:
            fx = x if x <= x1 else x - shift
        out.append(run.steps[run.index_of((fx, y))].transition)
        x = _advance((x, y), out[-1].direction)
        y = levels[x]
        levels[x] += 1
    if len(out) != total:
        raise InternalInconsistencyError(
            f"pumping {loop} {copies} times took {len(out)} steps, not {total}")
    raw, a, b = run.word.raw, x1 - 1, x2 - 1   # cut x cuts raw at x-1
    word = raw[:a] + raw[a:b] * copies + raw[b:]
    return word, located_replay(t, word, out)


# -- the prefix-sharing DFS oracle -----------------------------------------

class PrefixArrival(NamedTuple):
    """A run as `_PrefixSearch` finds it."""

    steps: list[Step]
    may_invert: bool    # by (state, level parity) masks, which may over-flag

    @property
    def output(self) -> str:
        return "".join(s.output for s in self.steps)


class _PrefixSearch:
    """The canonical DFS over normalized runs, cut at input prefixes.

    The head crosses one cut per step (Shepherdson's crossing-sequence
    picture), so until a partial run first reaches cut n it has read only
    the padded prefix of length n, and its DFS subtree up to there is the
    same on every word with that prefix.  The DFS on a word visits the
    frontier entries of each prefix in order and, between two of them, only
    nodes left of the prefix's cut; the runs of a word are therefore the
    runs grown from each entry in turn, in the order of a DFS over the whole
    word, and the run cap fires at the same run.

    The frontier of a padded prefix p is the tuple of the partial runs on p
    that have just reached cut |p| for the first time, in canonical DFS
    order.  An entry is (state, steps, levels, seen): levels[x] is the next
    free level at cut x and seen[x] the bitmask of the (state, level parity)
    pairs there.
    """

    def __init__(self, t: Transducer, cap_runs: int):
        if cap_runs < 0:
            raise ValueError(f"run cap {cap_runs} is negative")
        self.t = t
        self.cap_runs = cap_runs
        names = sorted({*t.states, t.initial,
                        *(tr.target for tr in t.transitions)})
        self.bits = {q: (1 << 2 * i, 2 << 2 * i) for i, q in enumerate(names)}
        # The frontier of the empty prefix: the initial location (0, 0).
        self.start = ((t.initial, [], [1], [self.bits[t.initial][0]]),)

    def extend(self, frontier: tuple, padded: str) -> Optional[tuple]:
        """The frontier of padded, grown from the frontier of a shorter
        prefix of it; None when no run on any extension of padded exists."""
        entries = []
        bits = self.bits

        def arrive(state, steps, levels, seen):
            levels, seen = levels.copy(), seen.copy()
            levels[-1], seen[-1] = 1, bits[state][0]
            entries.append((state, steps, levels, seen))
        self._walk(frontier, padded, arrive)
        return tuple(entries) or None

    def close(self, frontier: tuple, padded: str) -> list[PrefixArrival]:
        """The runs on padded, grown from the frontier of a prefix of it.

        An arrival may invert when two inner cuts 1 <= x < omega have a
        crossing of length >= 3 with the same (state, level parity) pairs.
        Every inversion needs two such cuts with one crossing sequence (the
        single-pass lemma in `inversions.multi_pass_components`); a cut's
        visits set distinct bits of its mask, which therefore also fixes the
        length."""
        t, cap_runs = self.t, self.cap_runs
        n = len(padded)
        arrivals: list[PrefixArrival] = []

        def arrive(state, steps, levels, seen):
            if state in t.finals:
                if len(arrivals) >= cap_runs:
                    raise CapExceeded(f"run cap {cap_runs} exceeded")
                masks = [s for c, s in zip(levels[1:n], seen[1:n]) if c >= 3]
                arrivals.append(PrefixArrival(
                    steps, len(set(masks)) < len(masks)))
        self._walk(frontier, padded, arrive)
        return arrivals

    def _walk(self, frontier: tuple, padded: str, arrive) -> None:
        """Continue each entry's DFS over padded until its branches first
        reach cut n = len(padded); each arrival there is passed to `arrive`
        in DFS order.

        The search prunes any extension that would repeat a (state, level
        parity) pair at one position, which both enforces normalization and
        bounds the depth, so it always terminates: once a cut has a visit
        for every bit of its mask, each arrival there is pruned."""
        n = len(padded)
        moves, bits = self.t.moves, self.bits
        for state, steps, levels, seen in frontier:
            m = len(levels) - 1     # the entry sits at (m, 0)
            steps = steps.copy()
            levels = levels + [0] * (n - m)
            seen = seen + [0] * (n - m)
            # Each frame is (location, iterator over moves, read index).
            stack = [((m, 0), iter(moves(state, padded[m])), m)]
            while stack:
                loc, it, ri = stack[-1]
                for tr, out_enc in it:
                    x2 = _advance(loc, tr.direction)
                    if x2 < 0:
                        continue
                    y2 = levels[x2]
                    parity = y2 % 2
                    # Rightward steps land on even levels, leftward on odd.
                    if parity != (0 if tr.direction == RIGHT else 1):
                        raise InternalInconsistencyError(
                            f"a step in direction {tr.direction} lands on "
                            f"level {y2} at cut {x2}")
                    bit = bits[tr.target][parity]
                    if seen[x2] & bit:
                        continue    # normalization pruning
                    target = (x2, y2)
                    step = Step(loc, target, tr, ri, out_enc)
                    if x2 == n:
                        arrive(tr.target, steps + [step], levels, seen)
                        continue
                    steps.append(step)
                    levels[x2] += 1
                    seen[x2] |= bit
                    ri2 = x2 if parity == 0 else x2 - 1
                    stack.append((target, iter(moves(tr.target, padded[ri2])),
                                  ri2))
                    break
                else:
                    stack.pop()
                    if stack:
                        s = steps.pop()
                        x, y = s.target
                        levels[x] -= 1
                        seen[x] ^= bits[s.transition.target][y % 2]


def prefix_arrivals_upto(t: Transducer, max_len: int, *,
                         cap_runs: int = 10**5
                         ) -> Iterator[tuple[str, list[PrefixArrival]]]:
    """Every word of `words_upto(t, max_len)`, in that order, with the
    arrivals of its runs in canonical DFS order, or the CapExceeded that
    the DFS raises.

    The words of each length are visited depth first, so only the frontiers
    of the current word's proper prefixes are held.  Each is grown from its
    parent's once for each length of the words that extend it, and each
    word's runs are grown from its parent's frontier; a prefix no partial
    run survives (None) is not extended, and its extensions have no runs."""
    search = _PrefixSearch(t, cap_runs)
    alphabet = sorted(t.table.encode_symbol(s) for s in t.input_symbols)

    def extensions(u: str, frontier: Optional[tuple], n: int):
        """The words of length n > len(u) that extend u, given the frontier
        of LEFT_END + u."""
        for a in alphabet:
            w = u + a
            if len(w) == n:
                yield w, (search.close(frontier, LEFT_END + w + RIGHT_END)
                          if frontier else [])
            else:
                yield from extensions(
                    w, frontier and search.extend(frontier, LEFT_END + w), n)

    if max_len < 0:
        return
    root = search.extend(search.start, LEFT_END)
    yield "", search.close(root, LEFT_END + RIGHT_END) if root else []
    for n in range(1, max_len + 1):
        yield from extensions("", root, n)


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
