"""Run enumeration and anatomy: locations, crossing sequences, factors.

A run is stored as the sequence of its located steps.  Geometry follows the
crossing-sequence picture: locations are (cut position, level) pairs, a
rightward step over the symbol between cuts x and x+1 arrives at (x+1, even
level), a leftward step over that symbol arrives at (x, odd level).  A step's
"read index" is the 0-based position of the symbol it consumes in the padded
word.  Level y at cut x is the run's visit number y to cut x, so the run-order
list of the visits to each cut indexes every location on it.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from .transducer import (LEFT, LEFT_END, RIGHT, RIGHT_END, Transducer,
                         Transition, words_upto)

Location = tuple[int, int]


class CapExceeded(Exception):
    """A configured resource cap was hit; never a silent truncation."""


class InternalInconsistencyError(Exception):
    """A consequence of the theory failed to hold; always a bug."""


class DelimitedInput(NamedTuple):
    raw: str        # encoded word over the input alphabet
    padded: str     # LEFT_END + raw + RIGHT_END
    omega: int      # number of padded letters; positions range over 0..omega

    @staticmethod
    def of(raw: str) -> "DelimitedInput":
        padded = LEFT_END + raw + RIGHT_END
        return DelimitedInput(raw, padded, len(padded))


class Step(NamedTuple):
    source: Location
    target: Location
    transition: Transition
    read_index: int
    output: str     # encoded


class Factor(NamedTuple):
    """A maximal run fragment intercepted by a position interval."""

    kind: str               # "LL" | "LR" | "RL" | "RR"
    interval: tuple[int, int]
    start: Location
    end: Location
    step_range: tuple[int, int]   # half-open range of step indices

    @property
    def edge(self) -> tuple[int, int]:
        return (self.start[1], self.end[1])


class Run:
    """A successful (normalized, unless built by pumping) two-way run."""

    def __init__(self, transducer: Transducer, word: DelimitedInput,
                 steps: list[Step]):
        self.transducer = transducer
        self.word = word
        self.steps = tuple(steps)
        self.locations = ((0, 0), *[s.target for s in self.steps])
        self.states_at = (transducer.initial,
                          *[s.transition.target for s in self.steps])
        # visits[x]: the run-order indices of the locations at cut x.  Level
        # y at cut x is visit number y there, so visits[x][y] indexes (x, y)
        # and the states at visits[x] are the crossing sequence at x.
        crossings: list[list[str]] = [[] for _ in range(word.omega + 1)]
        visits: list[list[int]] = [[] for _ in range(word.omega + 1)]
        for i, ((x, _), state) in enumerate(zip(self.locations,
                                                self.states_at)):
            crossings[x].append(state)
            visits[x].append(i)
        self._crossings = tuple(map(tuple, crossings))
        self.visits = tuple(map(tuple, visits))
        outputs = [s.output for s in self.steps]
        self.output = "".join(outputs)
        self.out_prefix = (0, *accumulate(map(len, outputs)))

    # -- basic queries ------------------------------------------------------

    def index_of(self, loc: Location) -> int:
        """The run-order index of location loc."""
        return self.visits[loc[0]][loc[1]]

    def state_at(self, loc: Location) -> str:
        return self.states_at[self.index_of(loc)]

    def crossing(self, x: int) -> tuple[str, ...]:
        return self._crossings[x]

    def output_between(self, i: int, j: int) -> str:
        """Output of the steps between location indices i and j (i <= j)."""
        return self.output[self.out_prefix[i]:self.out_prefix[j]]

    def output_upto(self, i: int) -> str:
        return self.output[:self.out_prefix[i]]

    def render_output(self) -> str:
        return self.transducer.table.render(self.output)

    # -- factors and subruns -------------------------------------------------

    def intercepted_factors(self, x1: int, x2: int) -> list[Factor]:
        """Maximal fragments whose steps all read symbols in [x1, x2).

        The head crosses one cut per step, so between two consecutive visits
        to the borders x1 and x2 the run stays strictly inside the interval
        or strictly outside it; the fragment is a factor when its first step
        reads inside.  A step that reaches a border from inside lands on the
        level parity whose next step reads outside, so factors never join."""
        assert 0 <= x1 < x2 <= self.word.omega
        borders = sorted(self.visits[x1] + self.visits[x2])
        return [self.factor(x1, x2, i, j) for i, j in zip(borders, borders[1:])
                if x1 <= self.steps[i].read_index < x2]

    def factor(self, x1: int, x2: int, i: int, j: int) -> Factor:
        """The factor of [x1, x2] that leaves the border visit at location
        index i and next reaches a border at location index j."""
        start, end = self.locations[i], self.locations[j]
        kind = ("L" if start[0] == x1 else "R") + \
               ("L" if end[0] == x1 else "R")
        return Factor(kind, (x1, x2), start, end, (i, j))

    def factor_output(self, f: Factor) -> str:
        return self.output_between(f.step_range[0], f.step_range[1])

    def subrun_output(self, lo: int, hi: int, x1: int, x2: int) -> str:
        """Concatenated outputs, in run order, of the steps between location
        indices lo and hi whose endpoints both lie at cuts in [x1, x2]."""
        return "".join(s.output for s in self.steps[lo:hi]
                       if x1 <= s.source[0] <= x2 and x1 <= s.target[0] <= x2)

    def __repr__(self) -> str:
        return (f"Run({self.transducer.name!r}, "
                f"input={self.transducer.table.render(self.word.raw)!r}, "
                f"{len(self.steps)} steps)")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _read_index(loc: Location) -> int:
    x, y = loc
    return x if y % 2 == 0 else x - 1


def _advance(loc: Location, direction: str) -> int:
    """Position of the cut crossed by a move from loc in `direction`."""
    x, y = loc
    if y % 2 == 0:
        return x + 1 if direction == RIGHT else x
    return x if direction == RIGHT else x - 1


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
        self.state_cap = 2 * len(t.states)
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

    def close(self, frontier: tuple, word: DelimitedInput) -> list[Run]:
        """The runs on word, grown from the frontier of a prefix of
        word.padded."""
        t, cap_runs = self.t, self.cap_runs
        runs: list[Run] = []

        def arrive(state, steps, levels, seen):
            if state in t.finals:
                if len(runs) >= cap_runs:
                    raise CapExceeded(f"run cap {cap_runs} exceeded")
                runs.append(Run(t, word, steps))
        self._walk(frontier, word.padded, arrive)
        return runs

    def _walk(self, frontier: tuple, padded: str, arrive) -> None:
        """Continue each entry's DFS over padded until its branches first
        reach cut n = len(padded); each arrival there is passed to `arrive`
        in DFS order.

        The search prunes any extension that would repeat a (state, level
        parity) pair at one position, which both enforces normalization and
        bounds the depth, so it always terminates."""
        n = len(padded)
        moves, bits = self.t.moves, self.bits
        state_cap = self.state_cap
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
                    if y2 >= state_cap:
                        continue
                    parity = y2 % 2
                    # Rightward steps land on even levels, leftward on odd.
                    assert parity == (0 if tr.direction == RIGHT else 1)
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


def enumerate_runs(t: Transducer, raw: str, *,
                   cap_runs: int = 10**5) -> list[Run]:
    """All normalized successful runs on |-raw-|, in canonical DFS order."""
    search = _PrefixSearch(t, cap_runs)
    return search.close(search.start, DelimitedInput.of(raw))


# The most frontiers `runs_upto` keeps for one prefix length.
_KEPT_FRONTIERS = 256


def runs_upto(t: Transducer, max_len: int, *, cap_runs: int = 10**5
              ) -> Iterator[tuple[str, list[Run]]]:
    """Every word of `words_upto(t, max_len)`, in that order, with its runs
    as `enumerate_runs` gives them, or the CapExceeded it raises.

    The partial runs on a prefix are grown at most once for each length of
    the words that extend it, and shared by those words; a prefix no run
    survives is not extended, and its extensions come with no runs.
    Frontiers are kept for the prefixes up to the longest length that has
    at most _KEPT_FRONTIERS words; a longer prefix's frontier is held only
    while the words that follow it in order share it, which bounds memory."""
    search = _PrefixSearch(t, cap_runs)
    letters = len(t.input_symbols)
    depth = 0
    while depth + 1 < max_len and letters ** (depth + 1) <= _KEPT_FRONTIERS:
        depth += 1
    kept: dict[str, tuple] = {}     # live frontiers up to depth letters
    path: list[tuple[str, Optional[tuple]]] = []   # longer, by length

    def grow(u: str) -> Optional[tuple]:
        if not u:
            return search.extend(search.start, LEFT_END)
        parent = frontier_of(u[:-1])
        return parent and search.extend(parent, LEFT_END + u)

    def frontier_of(u: str) -> Optional[tuple]:
        """The frontier of a prefix shorter than the current word."""
        if len(u) <= depth:
            return kept.get(u)
        i = len(u) - depth - 1
        if i < len(path) and path[i][0] == u:
            return path[i][1]
        frontier = grow(u)
        del path[i:]
        path.append((u, frontier))
        return frontier

    for raw in words_upto(t, max_len):
        if len(raw) <= depth:
            frontier = grow(raw)
            if frontier is not None:
                kept[raw] = frontier
        else:
            # No later word reads this frontier, so the runs are grown
            # straight from the parent's.
            frontier = frontier_of(raw[:-1])
        if frontier is None:
            yield raw, []
            continue
        yield raw, search.close(frontier, DelimitedInput.of(raw))


def replay(t: Transducer, raw: str,
           transitions: list[Transition]) -> Run:
    """Materialize a run from a transition sequence, deriving all locations.

    Raises ValueError if the sequence is not a successful run on |-raw-|.
    """
    word = DelimitedInput.of(raw)
    padded = word.padded
    levels = [0] * (word.omega + 1)
    levels[0] = 1
    loc: Location = (0, 0)
    state = t.initial
    steps: list[Step] = []
    for tr in transitions:
        if tr.source != state:
            raise ValueError(f"step {len(steps)}: expected state {state!r}, "
                             f"transition leaves {tr.source!r}")
        ri = _read_index(loc)
        if not (0 <= ri < word.omega):
            raise ValueError(f"step {len(steps)}: head out of range")
        if t.table.encode_symbol(tr.symbol) != padded[ri]:
            raise ValueError(f"step {len(steps)}: symbol mismatch")
        x2 = _advance(loc, tr.direction)
        if x2 < 0 or x2 > word.omega:
            raise ValueError(f"step {len(steps)}: move out of range")
        target = (x2, levels[x2])
        levels[x2] += 1
        steps.append(Step(loc, target, tr, ri, t.table.encode(tr.output)))
        loc, state = target, tr.target
    if loc[0] != word.omega:
        raise ValueError("run does not end past the right delimiter")
    if state not in t.finals:
        raise ValueError("run does not end in a final state")
    return Run(t, word, steps)


def validate_run(t: Transducer, raw: str, run: Run, *,
                 require_normalized: bool = True) -> bool:
    """Independent replay check that `run` is a successful run on |-raw-|."""
    word = DelimitedInput.of(raw)
    if run.word.padded != word.padded:
        return False
    if run.locations[0] != (0, 0):
        return False
    levels = [0] * (word.omega + 1)
    levels[0] = 1
    seen: list[set] = [set() for _ in range(word.omega + 1)]
    seen[0].add((t.initial, 0))
    state = t.initial
    loc: Location = (0, 0)
    delta = set(t.transitions)
    for s in run.steps:
        tr = s.transition
        if s.source != loc or tr.source != state or tr not in delta:
            return False
        ri = _read_index(loc)
        if s.read_index != ri or not (0 <= ri < word.omega):
            return False
        if t.table.encode_symbol(tr.symbol) != word.padded[ri]:
            return False
        if s.output != t.table.encode(tr.output):
            return False
        x2 = _advance(loc, tr.direction)
        if x2 < 0 or x2 > word.omega:
            return False
        if s.target != (x2, levels[x2]):
            return False
        parity = levels[x2] % 2
        if parity != (0 if tr.direction == RIGHT else 1):
            return False
        key = (tr.target, parity)
        if require_normalized and key in seen[x2]:
            return False
        seen[x2].add(key)
        levels[x2] += 1
        loc, state = s.target, tr.target
    if loc[0] != word.omega or state not in t.finals:
        return False
    if require_normalized:
        # Successful runs cross every position an odd number of times and
        # stay within the crossing-sequence bound.
        h_max = 2 * len(t.states) - 1
        for x in range(word.omega + 1):
            if levels[x] % 2 == 0 or levels[x] > h_max:
                return False
    return True


def dump_run(run: Run) -> str:
    """Stable text dump, one step per line plus the output line."""
    table = run.transducer.table
    lines = []
    for i, s in enumerate(run.steps):
        sym = s.transition.symbol
        out = table.render(s.output)
        lines.append(
            f"step {i}: ({s.source[0]},{s.source[1]}) "
            f"-{sym},{s.transition.direction}/\"{out}\"-> "
            f"({s.target[0]},{s.target[1]}) state {s.transition.target}")
    lines.append(f'output: "{run.render_output()}"')
    return "\n".join(lines) + "\n"


def parse_run_dump(t: Transducer, raw: str, text: str) -> Run:
    """Rebuild a run from its dump, resolving transitions against `t`."""
    return replay(t, raw, dump_transitions(t, text))


def dump_transitions(t: Transducer, text: str) -> list[Transition]:
    """The transitions of `t` named by a run dump's step lines, in order.

    Raises ValueError on a line that does not parse or names no transition
    of `t`; whether they form a run is left to `replay`."""
    transitions: list[Transition] = []
    by_desc = {}
    for tr in t.transitions:
        key = (tr.source, tr.symbol, tr.direction, tr.target,
               t.table.render(t.table.encode(tr.output)))
        by_desc[key] = tr
    state = t.initial
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("step "):
            continue
        _, rest = line.split(": ", 1)
        left, right = rest.split("-> ")
        src_txt, move_txt = left.split(" -", 1)
        move_txt = move_txt.rstrip()
        sym, tail = move_txt.split(",", 1)
        direction, out_q = tail.split("/", 1)
        out = out_q.strip()[1:-1]
        tgt_txt, state_txt = right.split(" state ")
        key = (state, sym, direction, state_txt.strip(), out)
        if key not in by_desc:
            raise ValueError(f"no transition matches dump line: {line!r}")
        transitions.append(by_desc[key])
        state = state_txt.strip()
    return transitions
