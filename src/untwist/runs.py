"""Run enumeration and anatomy: locations, crossing sequences, factors.

A run is stored as the sequence of its located steps.  Geometry follows the
crossing-sequence picture: locations are (cut position, level) pairs, a
rightward step over the symbol between cuts x and x+1 arrives at (x+1, even
level), a leftward step over that symbol arrives at (x, odd level).  A step's
"read index" is the 0-based position of the symbol it consumes in the padded
word.  Level y at cut x is the run's visit number y to cut x, so the run-order
list of the visits to each cut indexes every location on it.  Enumeration
follows Shepherdson (1959): a run is a path of interned crossing sequences,
one per cut, each adjacent pair consistent with the letter between, and its
steps are rebuilt from the path only where they are needed.
"""
from __future__ import annotations

from functools import lru_cache
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
    """A run as the search finds it: the last link of its path (see
    `_CrossingSearch._link`) and its steps if the search built them, else
    None; `steps` builds them when asked for."""

    search: "_CrossingSearch"
    path: tuple
    walked: Optional[list[Step]] = None

    # Whether two inner cuts share a crossing of length >= 3, which every
    # inversion needs (the single-pass lemma in
    # `inversions.multi_pass_components`).
    may_invert = property(lambda self: self.path[5])
    # An id, equal for two runs of one search exactly when they reach the
    # same (location, state, output length) at each step: both fix the
    # letter-free fragment of each cell (its two crossings and the
    # direction and output length of each move).
    skeleton = property(lambda self: self.path[3])

    @property
    def steps(self) -> list[Step]:
        if self.walked is None:
            return self.search.walk(self.path)
        return self.walked

    @property
    def output(self) -> str:
        return "".join(s.output for s in self.steps)


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


@lru_cache(maxsize=8)
def _relation(t: Transducer) -> tuple:
    """A machine's crossing ids (both ways) and the memos of its consistency
    relation: (id, letter) -> {id: pairings}, (ids, letter) -> (ids,
    predecessors), (ids, letter) -> the paths over two cuts and -|, and its
    fragment ids.  They grow only up to the machine's crossings, and the
    searches on the machine in one process share them."""
    return {(t.initial,): 0}, [(t.initial,)], {}, {}, {}, {}


class _CrossingSearch:
    """Normalized runs as paths of crossing sequences (Shepherdson 1959).

    The crossing at cut x lists the states of a run's visits there by
    level; even levels enter cell x, odd ones cell x - 1.  Crossings c at x
    and r at x + 1 are consistent over the letter of cell x when the cell's
    entries (c's even levels, r's odd ones) pair off in order with its exits
    (r's even levels, c's odd ones) by moves on the letter: c[0] enters
    first, and after an exit to r[j] or c[i] the next entry is r[j + 1] or
    c[i + 1].  A path of consistent crossings, with a pairing per cell, is
    one run: each location but (omega, 0) enters one cell, whose pairing
    gives its step; by induction the walk from (0, 0) meets each cut's
    levels in order, and it ends after the last pairing of cell omega - 1,
    which follows all others there, and so on leftwards, so it visits every
    location.  Every normalized run is such a path, normalization being
    local: no crossing repeats a (state, level parity).

    The stack holds, for each cut of the current prefix, the ids of the
    crossings that some path from (0, 0) reaches (memoized on the cut before
    and the letter), each one's predecessors, and the paths traced so far.
    A word's runs are traced back from its final crossings, never into a
    dead end.  The canonical DFS order is the lexicographic order of the
    runs' move indices in `Transducer.moves`, as no run extends another,
    and so of their transitions: where two runs part, both move from one
    state on one letter, and `moves` lists those in transition order.
    `close` sorts by it where a word has two runs or more, after counting
    them, so the run cap fires on the word where that DFS meets run cap + 1.
    """

    def __init__(self, t: Transducer, cap_runs: int):
        if cap_runs < 0:
            raise ValueError(f"run cap {cap_runs} is negative")
        self.t, self.cap_runs = t, cap_runs
        # A run crosses a cut leftwards in the target of a left move.
        self.returns = sorted({tr.target for tr in t.transitions
                               if tr.direction != RIGHT})
        (self.ids, self.crossings, self.edges, self.steps, self.ends,
         self.fragments) = _relation(t)
        self.skeletons: dict = {}   # (skeleton, fragment) -> skeleton
        self.stack = [(frozenset({0}), {},
                       {0: [(None, 0, None, 0, frozenset(), False)]})]

    def _edges(self, c: int, letter: str) -> dict[int, list]:
        """The ids consistent with c over letter, each with its pairings:
        (the (transition, output) moves from the cell's entries in order,
        fragment id).  Past -|, the crossing is one final state."""
        key = (c, letter)
        if key in self.edges:
            return self.edges[key]
        cut, last = self.crossings[c], letter == RIGHT_END
        moves, finals = self.t.moves, self.t.finals
        found: dict[tuple[str, ...], list] = {}

        def pair(q, i, right, done):
            # q enters; cut[:i] and right are paired off by `done` so far.
            for move in moves(q, letter):
                tr = move[0]
                if tr.direction == RIGHT and tr.target not in right[::2]:
                    r = right + (tr.target,)
                    if i == len(cut) and (not last or tr.target in finals):
                        found.setdefault(r, []).append(done + (move,))
                    for q2 in () if last else self.returns:
                        if q2 not in r[1::2]:
                            pair(q2, i, r + (q2,), done + (move,))
                elif tr.direction != RIGHT and i + 1 < len(cut) \
                        and cut[i] == tr.target:
                    pair(cut[i + 1], i + 2, right, done + (move,))
        pair(cut[0], 1, (), ())
        edges = self.edges[key] = {}
        for right, pairings in found.items():
            r = self.ids.setdefault(right, len(self.crossings))
            if r == len(self.crossings):
                self.crossings.append(right)
            edges[r] = [(m, self.fragments.setdefault(
                (c, r, tuple((tr.direction, len(out)) for tr, out in m)),
                len(self.fragments))) for m in pairings]
        return edges

    def _step(self, live: frozenset, letter: str) -> tuple[frozenset, dict]:
        """The ids live at the next cut, given those live at this one and
        the letter between, with each one's (id, pairing) predecessors."""
        key = (live, letter)
        if key not in self.steps:
            back: dict[int, list] = {}
            for c in sorted(live):
                for r, pairings in self._edges(c, letter).items():
                    back.setdefault(r, []).extend((c, m) for m in pairings)
            self.steps[key] = (frozenset(back), back)
        return self.steps[key]

    def push(self, letter: str) -> None:
        self.stack.append((*self._step(self.stack[-1][0], letter), {}))

    def pop(self) -> None:
        del self.stack[-1]

    def close(self, letter: str) -> list[Arrival]:
        """The runs on the current prefix, letter and -|, in canonical DFS
        order."""
        key = (self.stack[-1][0], letter)
        if key not in self.ends:
            # Each (q, m, p, m2, r): ids at this cut, the next and the last,
            # with the pairings between.
            live, back = self._step(key[0], letter)
            final, last = self._step(live, RIGHT_END)
            self.ends[key] = [(q, m, p, m2, r) for r in sorted(final)
                              for p, m2 in last[r] for q, m in back[p]]
        k, memo, link = len(self.stack) - 1, self.stack[-1][2], self._link
        paths = [link(link(before, p, m), r, m2)
                 for q, m, p, m2, r in self.ends[key]
                 for before in memo.get(q) or self._paths(k, q)]
        if len(paths) > self.cap_runs:
            raise CapExceeded(f"run cap {self.cap_runs} exceeded")
        if len(paths) == 1:
            return [Arrival(self, paths[0])]
        runs = [Arrival(self, path, self.walk(path)) for path in paths]
        return sorted(runs, key=lambda a: [s.transition for s in a.walked])

    def _link(self, link: tuple, c: int, pairing: tuple) -> tuple:
        """A path grown by one cell: (the path before, the id c it reaches,
        the cell's pairing, skeleton id, the ids of length >= 3 on it,
        whether one of those repeats)."""
        key = (link[3], pairing[1])
        skeleton = self.skeletons.setdefault(key, len(self.skeletons) + 1)
        if len(self.crossings[c]) < 3:
            return (link, c, pairing, skeleton, link[4], link[5])
        return (link, c, pairing, skeleton, link[4] | {c},
                link[5] or c in link[4])

    def _paths(self, k: int, c: int) -> list[tuple]:
        """The paths from cut 0 to id c at cut k of the current prefix, each
        memoized until its prefix is popped.  A path traced back from a
        final crossing is part of a run, so more than the run cap of them
        exceed it."""
        todo = [(k, c)]
        while todo:
            j, r = todo.pop()
            memo, prev = self.stack[j][2], self.stack[j - 1][2]
            preds = self.stack[j][1][r]
            missing = [(j - 1, p) for p, _ in preds if p not in prev]
            if missing:
                todo += [(j, r), *missing]
            elif r not in memo:
                memo[r] = [self._link(link, r, pairing)
                           for p, pairing in preds for link in prev[p]]
                if len(memo[r]) > self.cap_runs:
                    raise CapExceeded(f"run cap {self.cap_runs} exceeded")
        return self.stack[k][2][c]

    def walk(self, path: tuple) -> list[Step]:
        """The steps of a path: the walk from (0, 0) makes, on its k-th
        entry into a cell, the cell's k-th move."""
        links = []
        while path is not None:
            links.append(path)
            path = path[0]
        links.reverse()
        levels = [1] + [0] * (len(links) - 1)
        entries = [0] * len(links)
        steps: list[Step] = []
        loc: Location = (0, 0)
        while loc[0] < len(links) - 1:
            ri = _read_index(loc)
            tr, out = links[ri + 1][2][0][entries[ri]]
            entries[ri] += 1
            x2 = _advance(loc, tr.direction)
            y2 = levels[x2]
            # Rightward steps land on even levels, leftward on odd.
            if y2 % 2 != (tr.direction != RIGHT):
                raise InternalInconsistencyError(
                    f"a step in direction {tr.direction} lands on "
                    f"level {y2} at cut {x2}")
            levels[x2] += 1
            steps.append(Step(loc, (x2, y2), tr, ri, out))
            loc = (x2, y2)
        if levels != [len(self.crossings[link[1]]) for link in links]:
            raise InternalInconsistencyError(
                "a walk missed a location of its crossings")
        return steps


def enumerate_runs(t: Transducer, raw: str, *,
                   cap_runs: int = 10**5) -> list[Run]:
    """All normalized successful runs on |-raw-|, in canonical DFS order."""
    word = DelimitedInput.of(raw)
    search = _CrossingSearch(t, cap_runs)
    for letter in word.padded[:-2]:
        search.push(letter)
    return [Run(t, word, a.steps) for a in search.close(word.padded[-2])]


def arrivals_upto(t: Transducer, max_len: int, *, cap_runs: int = 10**5
                  ) -> Iterator[tuple[str, list[Arrival], int]]:
    """Each encoded input word of length <= max_len, shorter words first,
    words of one length in lexicographic order of their encoded symbols, as
    (word, the arrivals of its runs in the order `enumerate_runs` gives the
    runs, 1), or the CapExceeded it raises; a prefix u at whose cut no
    crossing is live stands for its extensions of each length n, which have
    no run, as one (u, [], |Σ|^(n - |u|)).  The prefixes of each length are
    visited depth first, each pushed on its parent."""
    search = _CrossingSearch(t, cap_runs)
    alphabet = sorted(t.table.encode_symbol(s) for s in t.input_symbols)

    def words(u: str, n: int):
        if not search.stack[-1][0]:
            yield u, [], len(alphabet) ** (n - len(u))
        elif len(u) == n - 1:
            for a in alphabet:
                yield u + a, search.close(a), 1
        else:
            for a in alphabet:
                search.push(a)
                yield from words(u + a, n)
                search.pop()

    if max_len >= 0:
        yield "", search.close(LEFT_END), 1
    search.push(LEFT_END)
    for n in range(1, max_len + 1):
        yield from words("", n)


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
