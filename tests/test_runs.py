from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

import untwist.runs
from untwist.oneway import decide_oneway_bounded
from untwist.runs import (CapExceeded, DelimitedInput,
                          InternalInconsistencyError, Run, _CrossingSearch,
                          arrivals_upto, dump_run, enumerate_runs,
                          parse_run_dump, replay, validate_run)
from untwist.transducer import (LEFT_END, check_functional_bounded,
                                parse_transducer, validate)

from .conftest import CORE_NAMES, FIXTURE_NAMES, domain_words, load_fixture
from .oracles import (brute_intercepted_factors, brute_runs,
                      brute_subrun_output, naive_runs, prefix_arrivals_upto,
                      run_signature, runs_upto, words_upto)
from .test_transducer import transducers

# Nine-state machine reproducing the crossing-sequence presentation figure:
# right, right, left, left, then right to the end on a two-letter input.
FIG_RUN = parse_transducer("""
transducer FIG_RUN
input a b
output a b
states q0 q1 q2 q3 q4 q5 q6 q7 q8
initial q0
final q8
t q0 |- R q1 ""
t q1 a R q2 ""
t q2 b L q3 ""
t q3 a L q4 ""
t q4 |- R q5 ""
t q5 a R q6 ""
t q6 b R q7 ""
t q7 -| R q8 ""
""")


def test_t_id_single_run_four_steps(t_id):
    runs = enumerate_runs(t_id, t_id.parse_input_text("ab"))
    assert len(runs) == 1
    run = runs[0]
    assert len(run.steps) == 4
    assert [s.transition.symbol for s in run.steps] == ["|-", "a", "b", "-|"]
    assert run.render_output() == "ab"


def test_empty_result_outside_domain(t_copy_abc):
    assert enumerate_runs(t_copy_abc, t_copy_abc.parse_input_text("ab")) == []


def test_copy_abc_output(t_copy_abc):
    runs = enumerate_runs(t_copy_abc, t_copy_abc.parse_input_text("abc"))
    assert any(r.render_output() == "abcabc" for r in runs)


def test_mirror_output(t_mirror):
    runs = enumerate_runs(t_mirror, t_mirror.parse_input_text("ab"))
    assert [r.render_output() for r in runs] == ["abba"]


def test_all_epsilon_run_output(t_id):
    runs = enumerate_runs(t_id, "")
    assert runs and runs[0].output == ""


def test_crossing_sequences_one_way(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("abba"))[0]
    for x in range(run.word.omega + 1):
        assert len(run.crossing(x)) == 1


def test_crossing_sequence_inside_rewound_region(t_copy_abc):
    run = enumerate_runs(t_copy_abc, t_copy_abc.parse_input_text("abc"))[0]
    for x in range(1, run.word.omega - 1):
        assert len(run.crossing(x)) == 3


def test_figure_run_crossing_column():
    runs = enumerate_runs(FIG_RUN, FIG_RUN.parse_input_text("ab"))
    assert len(runs) == 1
    run = runs[0]
    assert run.crossing(1) == ("q1", "q4", "q5")
    assert run.crossing(2) == ("q2", "q3", "q6")
    assert run.locations[-1] == (4, 0)


def test_whole_interval_single_lr_factor(t_mirror):
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text("ab"))[0]
    fs = run.intercepted_factors(0, run.word.omega)
    assert len(fs) == 1
    assert fs[0].kind == "LR"
    assert fs[0].step_range == (0, len(run.steps))


def test_one_way_proper_interval_single_lr(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("abab"))[0]
    fs = run.intercepted_factors(2, 4)
    assert [f.kind for f in fs] == ["LR"]


def test_intercepted_factor_kinds_figure(t_zigzag):
    run = enumerate_runs(t_zigzag, t_zigzag.parse_input_text("m"))[0]
    fs = run.intercepted_factors(1, 2)
    assert [f.kind for f in fs] == ["LL", "LR", "RL", "LR", "RR"]
    assert [f.edge for f in fs] == [(0, 1), (2, 0), (1, 3), (4, 2), (3, 4)]


def test_factors_partition_inside_steps(t_zigzag, t_copy_ab):
    for t, word in ((t_zigzag, "mm"), (t_copy_ab, "ab")):
        run = enumerate_runs(t, t.parse_input_text(word))[0]
        omega = run.word.omega
        for x1 in range(omega):
            for x2 in range(x1 + 1, omega + 1):
                fs = run.intercepted_factors(x1, x2)
                seen = set()
                for f in fs:
                    rng = set(range(*f.step_range))
                    assert not (seen & rng)
                    seen |= rng
                inside = {i for i, s in enumerate(run.steps)
                          if x1 <= s.read_index < x2}
                assert seen == inside


def _assert_factors_match_step_scan(run):
    """Every location's index, and the factors of every interval, agree
    with a scan over all of the run's steps."""
    for i, loc in enumerate(run.locations):
        assert run.index_of(loc) == i
    omega = run.word.omega
    for x1 in range(omega):
        for x2 in range(x1 + 1, omega + 1):
            assert run.intercepted_factors(x1, x2) == \
                brute_intercepted_factors(run, x1, x2), (run, x1, x2)


def test_factors_match_step_scan_on_fixtures(fixtures):
    runs = 0
    for name in FIXTURE_NAMES:
        t = fixtures[name]
        for _, word_runs in domain_words(t, 5 if name == "T_RUNNING" else 6):
            for run in word_runs:
                _assert_factors_match_step_scan(run)
                runs += 1
    assert runs == 1763


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_factors_match_step_scan_random(t):
    assume(validate(t).ok)
    for _, runs in runs_upto(t, 4):
        for run in runs:
            _assert_factors_match_step_scan(run)


def test_subrun_output_trivial_cases(t_mirror):
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text("ab"))[0]
    omega = run.word.omega
    assert run.subrun_output(0, len(run.steps), 0, omega) == run.output
    assert run.subrun_output(2, 2, 0, omega) == ""


def test_subrun_output_matches_filter_oracle(t_copy_abc):
    run = enumerate_runs(t_copy_abc, t_copy_abc.parse_input_text("abc"))[0]
    n = len(run.steps)
    for lo, hi, x1, x2 in [(0, n, 1, 2), (0, n, 0, 2), (3, 9, 1, 3),
                           (2, n - 1, 2, 4)]:
        got = run.subrun_output(lo, hi, x1, x2)
        assert got == brute_subrun_output(run, lo, hi, x1, x2)


def test_subrun_on_location_interval_equals_factor_output(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    omega = run.word.omega
    n = len(run.steps)
    for i in range(n):
        for j in range(i, n + 1):
            assert run.subrun_output(i, j, 0, omega) == \
                run.output_between(i, j)


def test_validate_run_accepts_enumerated(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        word = {"T_ID": "ab", "T_COPY_ABC": "abc", "T_COPY_AB": "ab",
                "T_MIRROR": "ab", "T_RUNNING": "abc"}[name]
        raw = t.parse_input_text(word)
        for run in enumerate_runs(t, raw):
            assert validate_run(t, raw, run)


def test_validate_run_rejects_foreign_output(t_id):
    raw = t_id.parse_input_text("ab")
    run = enumerate_runs(t_id, raw)[0]
    assert validate_run(t_id, raw, run)
    steps = list(run.steps)
    steps[1] = steps[1]._replace(output="zz")
    assert not validate_run(t_id, raw, Run(t_id, run.word, steps))


def test_validate_run_rejects_wrong_word(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("ab"))[0]
    assert not validate_run(t_id, t_id.parse_input_text("ba"), run)


# On `a`, p may step left onto |- and s step back, revisiting (p, even
# level) at cut 1 before p moves on to f; the only normalized run goes
# straight through.
REVISIT = parse_transducer("""
transducer REVISIT
input a
output x
states q0 p s f
initial q0
final f
t q0 |- R p ""
t p a L s ""
t s |- R p ""
t p a R f "x"
t f -| R f ""
""")


def _revisit_moves(*path):
    by_ends = {(tr.source, tr.target): tr for tr in REVISIT.transitions}
    return [by_ends[ends] for ends in zip(path, path[1:])]


def test_replay_rejects_a_move_the_machine_lacks():
    raw = REVISIT.parse_input_text("a")
    moves = _revisit_moves("q0", "p", "f", "f")
    assert replay(REVISIT, raw, moves).output == "x"
    moves[1] = moves[1]._replace(output=("x", "x"))
    with pytest.raises(ValueError, match="step 1: the machine has no such "
                                         "move in state 'p'"):
        replay(REVISIT, raw, moves)


def test_validate_run_rejects_a_run_that_is_not_normalized():
    raw = REVISIT.parse_input_text("a")
    [straight] = enumerate_runs(REVISIT, raw)
    assert validate_run(REVISIT, raw, straight)
    run = replay(REVISIT, raw, _revisit_moves("q0", "p", "s", "p", "f", "f"))
    assert run.locations == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (3, 0))
    assert run.crossing(1) == ("p", "s", "p")
    assert not validate_run(REVISIT, raw, run)


def _assert_run_invariants(t, max_len):
    """Every run up to max_len starts at (0, 0), ends past -|, is normalized
    and crosses each cut an odd number of times, at most h_max = 2|Q| - 1;
    so it has fewer than h_max steps per cut, which bounds every search."""
    h_max = 2 * len(t.states) - 1
    for raw, runs in runs_upto(t, max_len):
        for run in runs:
            assert run.locations[0] == (0, 0)
            assert run.locations[-1][0] == run.word.omega
            assert len(run.steps) < h_max * (run.word.omega + 1)
            seen = set()
            for x in range(run.word.omega + 1):
                c = run.crossing(x)
                assert len(c) % 2 == 1 and len(c) <= h_max
            for i, loc in enumerate(run.locations):
                parity = loc[1] % 2
                key = (loc[0], run.states_at[i], parity)
                assert key not in seen    # normalization
                seen.add(key)
            for s in run.steps:
                expected = 0 if s.transition.direction == "R" else 1
                assert s.target[1] % 2 == expected


def test_run_invariants_small_inputs(fixtures):
    for name in CORE_NAMES:
        _assert_run_invariants(fixtures[name], 4)


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_run_invariants_random(t):
    assume(validate(t).ok)
    _assert_run_invariants(t, 4)


def test_dump_roundtrip(t_mirror):
    raw = t_mirror.parse_input_text("ab")
    run = enumerate_runs(t_mirror, raw)[0]
    text = dump_run(run)
    back = parse_run_dump(t_mirror, raw, text)
    assert run_signature(back) == run_signature(run)
    assert validate_run(t_mirror, raw, back)


def test_enumeration_matches_naive_oracle_on_fixture(t_mirror):
    raw = t_mirror.parse_input_text("aba")
    got = {run_signature(r) for r in enumerate_runs(t_mirror, raw)}
    assert got == naive_runs(t_mirror, raw)


def test_dump_format_lines(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("a"))[0]
    lines = dump_run(run).splitlines()
    assert lines[0] == 'step 0: (0,0) -|-,R/""-> (1,0) state q0'
    assert lines[-1] == 'output: "a"'


# -- shared enumeration against the per-word DFS ---------------------------

def _per_word(t, max_len, enumerate_word, **caps):
    """(word, run dumps) for every word up to max_len, enumerated one word
    at a time; the first word whose enumeration raises CapExceeded ends the
    list with (word, message)."""
    out = []
    for raw in words_upto(t, max_len):
        try:
            dumps = [dump_run(r) for r in enumerate_word(t, raw, **caps)]
        except CapExceeded as exc:
            out.append((raw, str(exc)))
            break
        out.append((raw, dumps))
    return out


def _shared(t, max_len, **caps):
    """The same list, drawn from one `arrivals_upto` pass."""
    out = []
    words = words_upto(t, max_len)
    try:
        for raw, runs in runs_upto(t, max_len, **caps):
            assert raw == next(words)
            out.append((raw, [dump_run(r) for r in runs]))
    except CapExceeded as exc:
        out.append((next(words), str(exc)))
    return out


def _assert_same_as_brute(t, max_len, **caps):
    expected = _per_word(t, max_len, brute_runs, **caps)
    assert _per_word(t, max_len, enumerate_runs, **caps) == expected
    assert _shared(t, max_len, **caps) == expected
    return expected


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shared_enumeration_matches_per_word_dfs(name):
    t = load_fixture(name)
    expected = _assert_same_as_brute(t, 5 if name == "T_RUNNING" else 6)
    assert any(dumps for _, dumps in expected)


@pytest.mark.parametrize("max_len", [-1, 0, 1])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shared_enumeration_at_short_bounds(name, max_len):
    # No word at all below 0, and the empty word alone at 0.
    _assert_same_as_brute(load_fixture(name), max_len)


# Twelve transitions give about one machine in six a run on a short word.
@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_shared_enumeration_matches_per_word_dfs_random(t):
    _assert_same_as_brute(t, 4)


def _calls_by_rule(t, max_len) -> tuple[int, int]:
    """(pushes, closes) of one drained `arrivals_upto` pass, by its rule:
    the empty prefix is pushed once; a prefix whose parent is live is
    pushed once for each longer length; and a word is closed when its
    parent prefix is live, the empty word always.  A prefix is live when
    some crossing is live at its cut, found here by a search over the
    whole prefix from the start."""
    def live(u):
        search = _CrossingSearch(t, 10**5)
        for letter in LEFT_END + u:
            search.push(letter)
        return bool(search.stack[-1][0])
    alphabet = list(words_upto(t, 1))[1:]
    parents = [""] if live("") else []      # the live prefixes of length k-1
    pushes, closes = 1, 1
    for k in range(1, max_len + 1):
        children = [u + a for u in parents for a in alphabet]
        closes += len(children)
        pushes += len(children) * (max_len - k)
        parents = [u for u in children if live(u)]
    return pushes, closes


@pytest.mark.parametrize("name,max_len,calls", [
    ("T_RUNNING", 6, (1813, 5461)), ("T_ID", 9, (1005, 1023)),
    ("T_COPY_ABC", 9, (109, 28)), ("T_THREECOMP", 8, (29, 9)),
])
def test_prefix_frontiers_are_shared(monkeypatch, name, max_len, calls):
    # Only the current word's prefixes are on the search's stack, so a
    # prefix is pushed again for each length of the words that extend it,
    # never once per word, and a dead prefix is never extended.
    t = load_fixture(name)
    assert _calls_by_rule(t, max_len) == calls
    counts = {"push": 0, "close": 0}
    for method in counts:
        def counted(self, *args, _orig=getattr(_CrossingSearch, method),
                    _method=method):
            counts[_method] += 1
            return _orig(self, *args)
        monkeypatch.setattr(_CrossingSearch, method, counted)
    for _ in arrivals_upto(t, max_len):
        pass
    assert (counts["push"], counts["close"]) == calls


@pytest.mark.parametrize("name,max_len,items", [
    ("T_COPY_ABC", 9, 100), ("T_RUNNING", 6, 5461), ("T_ID", 9, 1023)])
def test_dead_prefixes_stand_for_their_words(name, max_len, items):
    # A prefix at whose cut no crossing is live has no run on any
    # extension: it comes once for all its extensions of a length, which
    # the one-way decider counts at once, and exactly.
    t = load_fixture(name)
    got = list(arrivals_upto(t, max_len))
    words = len(list(words_upto(t, max_len)))
    assert len(got) == items
    assert sum(count for _, _, count in got) == words
    assert all(not arrivals for _, arrivals, count in got if count > 1)
    assert decide_oneway_bounded(t, max_len).searched["inputs"] == words


# Two paths leave |-. q may switch to r at any letter, which gives a word
# one run per switch point. z steps back over its first letter to |- and
# then goes on as q, so its runs grow from a later frontier entry than q's
# and come after them.
TWO_PATHS = parse_transducer("""
transducer TWO_PATHS
input a
output x y
states p q r z z2 z3 f
initial p
final f
t p |- R q ""
t p |- R z ""
t q a R q "x"
t q a R r "y"
t r a R r ""
t q -| R f ""
t r -| R f ""
t z a L z2 ""
t z2 |- R z3 ""
t z3 a R q ""
""")


@pytest.mark.parametrize("caps,word,message", [
    ({"cap_runs": 1}, "a", "run cap 1 exceeded"),
    ({"cap_runs": 2}, "a", "run cap 2 exceeded"),
])
def test_caps_fire_at_their_dfs_position(caps, word, message):
    # The run cap fires where the per-word DFS meets it: on "a", q's two
    # runs come before z's run.
    expected = _assert_same_as_brute(TWO_PATHS, 3, **caps)
    assert expected[-1] == (word, message)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("caps", [{"cap_runs": 0}, {"cap_runs": 1},
                                  {"cap_runs": 2}])
def test_caps_fire_at_the_same_input(name, caps):
    _assert_same_as_brute(load_fixture(name), 4, **caps)


@pytest.mark.parametrize("caps", [{"cap_runs": -1}])
def test_negative_caps_are_rejected(caps):
    # A negative cap is an argument error, not a cap that fires.
    t = load_fixture("T_COPY_AB")
    with pytest.raises(ValueError, match="is negative"):
        enumerate_runs(t, "ab", **caps)
    with pytest.raises(ValueError, match="is negative"):
        next(runs_upto(t, 2, **caps))


def test_level_parity_break_raises(t_id, monkeypatch):
    # A rightward step must land on an even level.  A stub that keeps every
    # move on its own cut lands the first step, from (0, 0), on level 1, and
    # the search raises; it is no assert, so it also fires under python -O.
    monkeypatch.setattr(untwist.runs, "_advance", lambda loc, direction: loc[0])
    with pytest.raises(InternalInconsistencyError, match="level 1 at cut 0"):
        enumerate_runs(t_id, "a")
    with pytest.raises(InternalInconsistencyError, match="level 1 at cut 0"):
        next(runs_upto(t_id, 1))


@given(transducers(max_transitions=12),
       st.sampled_from([{"cap_runs": 0}, {"cap_runs": 1}, {"cap_runs": 2}]))
@settings(max_examples=60, deadline=None)
def test_caps_fire_at_the_same_input_random(t, caps):
    _assert_same_as_brute(t, 4, **caps)


# -- the inversion filter against crossing sequences ------------------------

def _has_repeated_crossing(run: Run) -> bool:
    """Whether two inner cuts 1 <= x < omega share a crossing sequence of
    length >= 3, which every inversion needs."""
    multi = [run.crossing(x) for x in range(1, run.word.omega)
             if len(run.crossing(x)) >= 3]
    return len(set(multi)) < len(multi)


def _filter_census(t, max_len) -> tuple[int, int, int]:
    """(runs, arrivals that may invert, runs with a repeated crossing) up to
    max_len; an arrival is flagged exactly when its run has a repeated
    crossing, so no run's inversions are dropped unseen and no run without
    one is analysed.  Two arrivals have one skeleton id exactly when they
    reach the same (location, state, output length) at each step."""
    runs = flagged = repeated = 0
    skeletons: dict[int, tuple] = {}
    for raw, arrivals, _ in arrivals_upto(t, max_len):
        word = DelimitedInput.of(raw)
        for arrival in arrivals:
            run = Run(t, word, arrival.steps)
            has_repeat = _has_repeated_crossing(run)
            assert arrival.may_invert == has_repeat, (raw, run.steps)
            assert arrival.output == run.output
            reached = tuple((s.target, s.transition.target, len(s.output))
                            for s in run.steps)
            assert skeletons.setdefault(arrival.skeleton, reached) == reached
            runs += 1
            flagged += arrival.may_invert
            repeated += has_repeat
    assert len(set(skeletons.values())) == len(skeletons)
    return runs, flagged, repeated


@pytest.mark.parametrize("name,counts", [
    ("T_ID", (127, 0, 0)), ("T_COPY_ABC", (3, 2, 2)),
    ("T_COPY_AB", (127, 126, 126)), ("T_MIRROR", (127, 126, 126)),
    ("T_RUNNING", (1365, 211, 211)), ("T_ZIGZAG", (7, 6, 6)),
    ("T_THREECOMP", (7, 6, 6)),
])
def test_filter_flags_every_repeated_crossing(name, counts):
    t = load_fixture(name)
    assert _filter_census(t, 5 if name == "T_RUNNING" else 6) == counts


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_filter_flags_every_repeated_crossing_random(t):
    _filter_census(t, 4)


# -- the crossing-id search against the prefix-sharing DFS -------------------

# Two ways to rewind after the first copy pass: one copies the word again,
# the other reads it silently.  Every word has two runs, each run of a
# non-empty word repeats a crossing, and every word but the empty one has
# two outputs.
COPY_OR_NOT = parse_transducer("""
transducer COPY_OR_NOT
input a b
output a b
states p1 rw p2 rw2 q2 fin
initial p1
final fin
t p1 |- R p1 ""
t p1 a R p1 "a"
t p1 b R p1 "b"
t p1 -| L rw ""
t p1 -| L rw2 ""
t rw a L rw ""
t rw b L rw ""
t rw |- R p2 ""
t rw2 a L rw2 ""
t rw2 b L rw2 ""
t rw2 |- R q2 ""
t p2 a R p2 "a"
t p2 b R p2 "b"
t p2 -| R fin ""
t q2 a R q2 ""
t q2 b R q2 ""
t q2 -| R fin ""
""")


def _by_word(t, max_len, items) -> list[tuple]:
    """(word, [(steps, flag), ...]) for each word of `words_upto(t,
    max_len)` that `items`, (word or dead prefix, arrivals, words it stands
    for) triples, reach, ending with (word, message) at a CapExceeded."""
    out, words = [], words_upto(t, max_len)
    try:
        for _, arrivals, count in items:
            for word in islice(words, count):
                out.append((word, [(a.steps, a.may_invert) for a in arrivals]))
    except CapExceeded as exc:
        out.append((next(words), str(exc)))
    return out


def _assert_same_as_prefix_search(t, max_len, **caps):
    """The arrivals of each word, their steps and order, and the word at
    which the run cap fires, against the `_PrefixSearch` oracle; its flag
    reads (state, level parity) masks and so may be set where ours, which
    is exact, is not."""
    ours = _by_word(t, max_len, arrivals_upto(t, max_len, **caps))
    oracle = _by_word(t, max_len, (
        (raw, arrivals, 1)
        for raw, arrivals in prefix_arrivals_upto(t, max_len, **caps)))
    assert len(ours) == len(oracle)
    for (word, got), (word2, expected) in zip(ours, oracle):
        assert word == word2
        if isinstance(got, str) or isinstance(expected, str):
            assert got == expected, word
            continue
        assert [steps for steps, _ in got] == [steps for steps, _ in expected]
        for (steps, flag), (_, mask) in zip(got, expected):
            run = Run(t, DelimitedInput.of(word), steps)
            assert flag == _has_repeated_crossing(run) and (mask or not flag)
    return ours


_CAPS = [{}, {"cap_runs": 0}, {"cap_runs": 1}, {"cap_runs": 2}]


@pytest.mark.parametrize("caps", _CAPS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_crossing_search_matches_prefix_search(name, caps):
    _assert_same_as_prefix_search(
        load_fixture(name), 6 if name == "T_RUNNING" else 8, **caps)


@pytest.mark.parametrize("caps", _CAPS)
def test_crossing_search_matches_prefix_search_named(caps):
    for t in (TWO_PATHS, COPY_OR_NOT):
        _assert_same_as_prefix_search(t, 6, **caps)


@given(transducers(max_transitions=12), st.sampled_from(_CAPS))
@settings(max_examples=60, deadline=None)
def test_crossing_search_matches_prefix_search_random(t, caps):
    _assert_same_as_prefix_search(t, 4, **caps)


def test_census_of_a_machine_with_two_runs_per_word():
    # The fixtures are deterministic; this machine is not, nor functional.
    t = COPY_OR_NOT
    assert not t.deterministic
    assert _filter_census(t, 6) == (254, 252, 252)
    assert check_functional_bounded(t, 6) == ("witness", "a", "aa", "a")
    assert _assert_same_as_prefix_search(t, 6, cap_runs=1)[-1] == \
        ("", "run cap 1 exceeded")
