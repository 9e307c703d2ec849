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

from .transducer import LEFT_END, RIGHT, RIGHT_END, Transducer, Transition

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


class Arrival(NamedTuple):
    """A run as the search finds it, before its anatomy is built."""

    steps: list[Step]
    may_invert: bool    # see `_PrefixSearch.close`

    @property
    def output(self) -> str:
        return "".join(s.output for s in self.steps)

    @property
    def skeleton(self) -> tuple:
        """The (location, state, output length) reached by each step."""
        return tuple((s.target, s.transition.target, len(s.output))
                     for s in self.steps)


class Run:
    """A successful two-way run; enumeration and pumping build normalized
    ones, and `validate_run` tells whether a replayed one is."""

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
        if not 0 <= x1 < x2 <= self.word.omega:
            raise ValueError(f"[{x1}, {x2}] is not an interval of cuts")
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

    def close(self, frontier: tuple, padded: str) -> list[Arrival]:
        """The runs on padded, grown from the frontier of a prefix of it.

        An arrival may invert when two inner cuts 1 <= x < omega have a
        crossing of length >= 3 with the same (state, level parity) pairs.
        Every inversion needs two such cuts with one crossing sequence (the
        single-pass lemma in `inversions.multi_pass_components`); a cut's
        visits set distinct bits of its mask, which therefore also fixes the
        length."""
        t, cap_runs = self.t, self.cap_runs
        n = len(padded)
        arrivals: list[Arrival] = []

        def arrive(state, steps, levels, seen):
            if state in t.finals:
                if len(arrivals) >= cap_runs:
                    raise CapExceeded(f"run cap {cap_runs} exceeded")
                masks = [s for c, s in zip(levels[1:n], seen[1:n]) if c >= 3]
                arrivals.append(Arrival(steps, len(set(masks)) < len(masks)))
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


def enumerate_runs(t: Transducer, raw: str, *,
                   cap_runs: int = 10**5) -> list[Run]:
    """All normalized successful runs on |-raw-|, in canonical DFS order."""
    word = DelimitedInput.of(raw)
    search = _PrefixSearch(t, cap_runs)
    return [Run(t, word, a.steps)
            for a in search.close(search.start, word.padded)]


def arrivals_upto(t: Transducer, max_len: int, *, cap_runs: int = 10**5
                  ) -> Iterator[tuple[str, list[Arrival]]]:
    """Every word of `words_upto(t, max_len)`, in that order, with the
    arrivals of its runs in the order `enumerate_runs` gives the runs, or
    the CapExceeded it raises.

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


def output_conflict(runs) -> Optional[tuple[str, str]]:
    """The first two distinct outputs, in run order, of one word's runs or
    arrivals; None when they agree, as a lone run always does."""
    if len(runs) < 2:
        return None
    outputs = list(dict.fromkeys(r.output for r in runs))
    return (outputs[0], outputs[1]) if len(outputs) > 1 else None


def replay(t: Transducer, raw: str,
           transitions: list[Transition]) -> Run:
    """Materialize a run from a transition sequence, deriving all locations.

    Each transition must be a move of `t` from the current state on the
    letter under the head.  Raises ValueError if the sequence is not a
    successful run of `t` on |-raw-|.
    """
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


def validate_run(t: Transducer, raw: str, run: Run) -> bool:
    """Whether `run` is a normalized successful run of `t` on |-raw-|.

    It is when `replay` of its transitions on raw gives its word and its
    steps, and the replayed run `is_normalized`.
    """
    try:
        again = replay(t, raw, [s.transition for s in run.steps])
    except ValueError:
        return False
    return again.word == run.word and again.steps == run.steps \
        and is_normalized(again)


def is_normalized(run: Run) -> bool:
    """Whether no cut of the run is visited twice in one state at levels of
    one parity.

    Nothing else needs checking: the run starts on cut 0 and crosses one
    cut per step, so its visits to a cut alternate between arrivals from
    the left (even levels) and the right (odd levels); a successful run
    ends right of every cut, so it visits each cut an odd number of times;
    if normalized, at most 2|Q| times, hence at most h_max = 2|Q| - 1 times
    when the states it names are the |Q| of its machine.
    """
    return all(len({(q, y % 2) for y, q in enumerate(c)}) == len(c)
               for c in map(run.crossing, range(run.word.omega + 1)))


def _move(t: Transducer, tr: Transition) -> str:
    """How a dump line writes a step's transition between its locations."""
    out = t.table.render(t.table.encode(tr.output))
    return f'-{tr.symbol},{tr.direction}/"{out}"->'


def _is_location(text: str) -> bool:
    """Whether `dump_run` prints some location as text."""
    x, _, y = text[1:-1].partition(",")
    return x.isdecimal() and y.isdecimal() and text == f"({int(x)},{int(y)})"


def dump_run(run: Run) -> str:
    """Stable text dump, one step per line plus the output line."""
    lines = [f"step {i}: ({s.source[0]},{s.source[1]}) "
             f"{_move(run.transducer, s.transition)} "
             f"({s.target[0]},{s.target[1]}) state {s.transition.target}"
             for i, s in enumerate(run.steps)]
    lines.append(f'output: "{run.render_output()}"')
    return "\n".join(lines) + "\n"


def parse_run_dump(t: Transducer, raw: str, text: str) -> Run:
    """Rebuild a run from its dump, resolving transitions against `t`."""
    return replay(t, raw, dump_transitions(t, text))


def dump_transitions(t: Transducer, text: str) -> list[Transition]:
    """The transitions of `t` named by a run dump's step lines, in order.

    Each line i before the closing output line must read `step i: (a,b)
    <move> (c,d) state q`, with locations as `dump_run` prints them, or
    ValueError names it malformed; and its move must be the one `dump_run`
    writes for a transition of `t` from the previous line's state to q, or
    ValueError says no transition matches it.  Whether the locations and
    output are the run's own is left to comparing the text with `dump_run`
    of the run, and whether the transitions form a run to `replay`."""
    by_move = {(tr.source, _move(t, tr), tr.target): tr
               for tr in t.transitions}
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] or not lines[-2].startswith("output: "):
        raise ValueError("run dump does not end with its output line")
    transitions: list[Transition] = []
    state = t.initial
    for i, line in enumerate(lines[:-2]):
        words = line.split(" ")
        if not (len(words) == 7 and words[:2] == ["step", f"{i}:"]
                and words[5] == "state" and _is_location(words[2])
                and _is_location(words[4])):
            raise ValueError(f"malformed run dump line: {line!r}")
        key = (state, words[3], words[6])
        if key not in by_move:
            raise ValueError(f"no transition matches dump line: {line!r}")
        transitions.append(by_move[key])
        state = key[2]
    return transitions
