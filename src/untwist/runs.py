"""Run enumeration and anatomy: locations, crossing sequences, factors.

A run is stored as the sequence of its located steps.  Geometry follows the
crossing-sequence picture: locations are (cut position, level) pairs, a
rightward step over the symbol between cuts x and x+1 arrives at (x+1, even
level), a leftward step over that symbol arrives at (x, odd level).  A step's
"read index" is the 0-based position of the symbol it consumes in the padded
word; factor interception reduces to a range condition on read indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .transducer import (LEFT, LEFT_END, RIGHT, RIGHT_END, Transducer,
                         Transition)

Location = tuple[int, int]


class CapExceeded(Exception):
    """A configured resource cap was hit; never a silent truncation."""


@dataclass(frozen=True)
class DelimitedInput:
    raw: str        # encoded word over the input alphabet
    padded: str     # LEFT_END + raw + RIGHT_END
    omega: int      # number of padded letters; positions range over 0..omega

    @staticmethod
    def of(raw: str) -> "DelimitedInput":
        padded = LEFT_END + raw + RIGHT_END
        return DelimitedInput(raw, padded, len(padded))


@dataclass(frozen=True)
class Step:
    source: Location
    target: Location
    transition: Transition
    read_index: int
    output: str     # encoded


@dataclass(frozen=True)
class Factor:
    """A maximal run fragment intercepted by a position interval."""

    kind: str               # "LL" | "LR" | "RL" | "RR"
    interval: tuple[int, int]
    start: Location
    end: Location
    step_range: tuple[int, int]   # half-open range of step indices

    @property
    def edge(self) -> tuple[int, int]:
        return (self.start[1], self.end[1])


@dataclass(frozen=True)
class LocationSet:
    """Z = K ∩ (I × N) for a location interval K and position interval I."""

    loc_range: tuple[int, int]    # inclusive run-order index range of K
    interval: tuple[int, int]     # inclusive position interval I


class Run:
    """A successful (normalized, unless built by pumping) two-way run."""

    def __init__(self, transducer: Transducer, word: DelimitedInput,
                 steps: list[Step]):
        self.transducer = transducer
        self.word = word
        self.steps = tuple(steps)
        locs = [(0, 0)]
        states = [transducer.initial]
        for s in self.steps:
            locs.append(s.target)
            states.append(s.transition.target)
        self.locations = tuple(locs)
        self.states_at = tuple(states)
        self.loc_index = {loc: i for i, loc in enumerate(self.locations)}
        crossings: list[list[str]] = [[] for _ in range(word.omega + 1)]
        crossings[0].append(transducer.initial)
        for s in self.steps:
            crossings[s.target[0]].append(s.transition.target)
        self._crossings = tuple(tuple(c) for c in crossings)
        prefix = [0]
        chunks = []
        for s in self.steps:
            chunks.append(s.output)
            prefix.append(prefix[-1] + len(s.output))
        self.output = "".join(chunks)
        self.out_prefix = tuple(prefix)
        self._interval_effects = None   # lazy cache, filled by effects module

    # -- basic queries ------------------------------------------------------

    def state_at(self, loc: Location) -> str:
        return self.states_at[self.loc_index[loc]]

    def crossing(self, x: int) -> tuple[str, ...]:
        return self._crossings[x]

    def final_location(self) -> Location:
        return self.locations[-1]

    def output_between(self, i: int, j: int) -> str:
        """Output of the steps between location indices i and j (i <= j)."""
        return self.output[self.out_prefix[i]:self.out_prefix[j]]

    def output_upto(self, i: int) -> str:
        return self.output[:self.out_prefix[i]]

    def render_output(self) -> str:
        return self.transducer.table.render(self.output)

    # -- factors and subruns -------------------------------------------------

    def intercepted_factors(self, x1: int, x2: int) -> list[Factor]:
        """Maximal fragments whose steps all read symbols in [x1, x2)."""
        assert 0 <= x1 < x2 <= self.word.omega
        factors = []
        i, n = 0, len(self.steps)
        while i < n:
            if x1 <= self.steps[i].read_index < x2:
                j = i
                while j < n and x1 <= self.steps[j].read_index < x2:
                    j += 1
                start, end = self.steps[i].source, self.steps[j - 1].target
                kind = ("L" if start[0] == x1 else "R") + \
                       ("L" if end[0] == x1 else "R")
                # Fragment borders always sit on the interval borders.
                assert start[0] in (x1, x2) and end[0] in (x1, x2)
                factors.append(Factor(kind, (x1, x2), start, end, (i, j)))
                i = j
            else:
                i += 1
        return factors

    def factor_output(self, f: Factor) -> str:
        return self.output_between(f.step_range[0], f.step_range[1])

    def subrun_output(self, z: LocationSet) -> str:
        """Concatenated outputs of steps with both endpoints in Z, run order."""
        lo, hi = z.loc_range
        x1, x2 = z.interval
        parts = []
        for i in range(lo, hi):
            s = self.steps[i]
            # Step i joins location index i to i+1; both must lie in K.
            if i + 1 > hi:
                break
            if x1 <= s.source[0] <= x2 and x1 <= s.target[0] <= x2:
                parts.append(s.output)
        return "".join(parts)

    def location_set(self, l1: Location, l2: Location,
                     x1: int, x2: int) -> LocationSet:
        return LocationSet((self.loc_index[l1], self.loc_index[l2]), (x1, x2))

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


def enumerate_runs(t: Transducer, raw: str, *, cap_runs: int = 10**5,
                   cap_steps: Optional[int] = None) -> list[Run]:
    """All normalized successful runs on |-raw-|, in canonical DFS order.

    The search prunes any extension that would repeat a (state, level parity)
    pair at one position, which both enforces normalization and bounds the
    depth, so it always terminates.
    """
    word = DelimitedInput.of(raw)
    omega = word.omega
    padded = word.padded
    state_cap = 2 * len(t.states)
    if cap_steps is None:
        cap_steps = 10 * (2 * len(t.states) - 1) * (omega + 1)

    levels = [0] * (omega + 1)      # next free level per position
    seen: list[set] = [set() for _ in range(omega + 1)]
    levels[0] = 1
    seen[0].add((t.initial, 0))

    runs: list[Run] = []
    steps: list[Step] = []

    # Iterative DFS; each frame is (location, state, iterator over moves).
    def moves_at(loc: Location, state: str):
        ri = _read_index(loc)
        return t.moves(state, padded[ri]), ri

    stack: list = []
    initial_moves, ri0 = moves_at((0, 0), t.initial)
    stack.append([(0, 0), t.initial, iter(initial_moves), ri0])

    while stack:
        loc, state, it, ri = stack[-1]
        advanced = False
        for tr, out_enc in it:
            x2 = _advance(loc, tr.direction)
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
            if len(steps) >= cap_steps:
                raise CapExceeded(
                    f"run length cap {cap_steps} exceeded during enumeration")
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
               "".join(tr.output) if all(len(o) == 1 for o in tr.output)
               else ",".join(tr.output))
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
