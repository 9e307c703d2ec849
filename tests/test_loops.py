from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings

from untwist.effects import effect_product
from untwist.loops import Loop, components_of, enumerate_loops, pump, \
    trace_of
from untwist.runs import InternalInconsistencyError, Run, \
    enumerate_runs, validate_run
from untwist.transducer import validate

from .conftest import CORE_NAMES, FIXTURE_NAMES, domain_words
from .oracles import (brute_intercepted_factors, component_factor_pattern,
                      is_output_minimal, predicted_pump_output, runs_upto,
                      subloops)
from .test_runs import FIG_RUN
from .test_transducer import transducers


def test_t_id_loops_all_idempotent(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("aaaa"))[0]
    loops = enumerate_loops(run)
    omega = run.word.omega
    # Every interior interval has equal length-1 crossing sequences here.
    expected = {(x1, x2) for x1 in range(1, omega)
                for x2 in range(x1 + 1, omega)}
    assert {(l.x1, l.x2) for l in loops} == expected
    assert all(l.idempotent for l in loops)


def test_distinct_crossing_sequences_no_loops():
    run = enumerate_runs(FIG_RUN, FIG_RUN.parse_input_text("ab"))[0]
    assert enumerate_loops(run) == []


def test_zigzag_single_not_doubled_idempotent(t_zigzag):
    run = enumerate_runs(t_zigzag, t_zigzag.parse_input_text("mm"))[0]
    by_iv = {(l.x1, l.x2): l for l in enumerate_loops(run)}
    assert not by_iv[(1, 2)].idempotent
    assert not by_iv[(2, 3)].idempotent
    assert by_iv[(1, 3)].idempotent
    assert effect_product(by_iv[(1, 2)].effect, by_iv[(1, 2)].effect) \
        == by_iv[(1, 3)].effect


def test_three_component_loop_traces(t_threecomp):
    run = enumerate_runs(t_threecomp, t_threecomp.parse_input_text("m"))[0]
    [loop] = enumerate_loops(run, idempotent_only=True)
    comps = components_of(run, loop)
    assert [c.nodes for c in comps] == [(0, 1, 2), (3, 4, 5), (6,)]
    assert [c.left_to_right for c in comps] == [True, False, True]
    assert [c.anchor for c in comps] == [(1, 2), (2, 5), (1, 6)]
    traces = [trace_of(run, c) for c in comps]
    assert traces == ["jik", "qpr", "g"]


def test_one_way_loop_single_component(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("ab"))[0]
    loops = enumerate_loops(run, idempotent_only=True)
    assert loops
    for loop in loops:
        comps = components_of(run, loop)
        assert len(comps) == 1
        assert comps[0].nodes == (0,)
        k, ok = component_factor_pattern(comps[0])
        assert (k, ok) == (0, True)


def test_component_shapes_on_fixtures(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 4):
            for run in runs:
                for loop in enumerate_loops(run, idempotent_only=True):
                    for comp in components_of(run, loop):
                        nodes = comp.nodes
                        assert nodes == tuple(range(nodes[0], nodes[-1] + 1))
                        _, ok = component_factor_pattern(comp)
                        assert ok, (name, raw, loop, comp)


def _assert_components_match_step_scan(run) -> int:
    """Check each idempotent loop's components against the step scan: the
    components' factors together are the loop's factors, and each component
    holds the factors that start on its nodes, in cycle order from its
    anchor.  Returns the number of loops checked."""
    loops = enumerate_loops(run, idempotent_only=True)
    for loop in loops:
        scanned = brute_intercepted_factors(run, loop.x1, loop.x2)
        comps = components_of(run, loop)
        assert sorted((f for c in comps for f in c.factors),
                      key=lambda f: f.step_range) == scanned, (run, loop)
        for comp in comps:
            factors = comp.factors
            assert set(factors) == \
                {f for f in scanned if f.start[1] in comp.nodes}
            assert factors[0].start == comp.anchor
            for a, b in zip(factors, factors[1:] + factors[:1]):
                assert a.end[1] == b.start[1], (run, loop, comp)
    return len(loops)


def test_components_match_step_scan_on_fixtures(fixtures):
    loops = 0
    for name in FIXTURE_NAMES:
        t = fixtures[name]
        for _, word_runs in domain_words(t, 5 if name == "T_RUNNING" else 6):
            for run in word_runs:
                loops += _assert_components_match_step_scan(run)
    assert loops == 11290


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_components_match_step_scan_random(t):
    assume(validate(t).ok)
    for _, runs in runs_upto(t, 4):
        for run in runs:
            _assert_components_match_step_scan(run)


def test_component_top_level_balance(t_threecomp, t_copy_ab):
    # The top node of a component is the first level above its bottom at
    # which equally many LL- and RR-factors have been intercepted between
    # the bottom's start border and the candidate's end border.
    for t, word in ((t_threecomp, "m"), (t_copy_ab, "ab")):
        run = enumerate_runs(t, t.parse_input_text(word))[0]
        for loop in enumerate_loops(run, idempotent_only=True):
            factors = run.intercepted_factors(loop.x1, loop.x2)
            for comp in components_of(run, loop):
                lo, hi = comp.min_node, comp.max_node
                start = (loop.x1 if comp.left_to_right else loop.x2, lo)
                lo_idx = run.index_of(start)

                def balanced(y: int) -> bool:
                    end = (loop.x2 if comp.left_to_right else loop.x1, y)
                    if y >= len(run.visits[end[0]]):
                        return False
                    hi_idx = run.index_of(end)
                    counts = {"LL": 0, "RR": 0}
                    for f in factors:
                        if f.kind in counts \
                                and lo_idx <= run.index_of(f.start) \
                                and run.index_of(f.end) <= hi_idx:
                            counts[f.kind] += 1
                    return counts["LL"] == counts["RR"]

                assert balanced(hi)
                assert all(not balanced(y) for y in range(lo, hi))


def test_adjacent_equal_effect_loops_share_components(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    by_iv = {(l.x1, l.x2): l for l in enumerate_loops(run,
                                                      idempotent_only=True)}
    l1, l2 = by_iv[(1, 2)], by_iv[(2, 3)]
    assert l1.effect == l2.effect
    # Factors adjacent at the shared border belong to matching components.
    comps1 = components_of(run, l1)
    comps2 = components_of(run, l2)
    for c1 in comps1:
        for f1 in c1.factors:
            if f1.end[0] != 2:
                continue
            for c2 in comps2:
                for f2 in c2.factors:
                    if f2.start == f1.end:
                        assert c1.nodes == c2.nodes


# -- pumping -------------------------------------------------------------------

def test_pump_multiplicity_one_is_identity(t_copy_ab):
    raw = t_copy_ab.parse_input_text("ab")
    run = enumerate_runs(t_copy_ab, raw)[0]
    loop = enumerate_loops(run, idempotent_only=True)[0]
    word, pumped = pump(t_copy_ab, run, loop, 1)
    assert word == raw
    assert [s.transition for s in pumped.steps] == \
        [s.transition for s in run.steps]


def test_pump_multiplicity_zero_rejected(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    loop = enumerate_loops(run, idempotent_only=True)[0]
    with pytest.raises(ValueError):
        pump(t_copy_ab, run, loop, 0)


def test_pump_copy_abc_block(t_copy_abc):
    raw = t_copy_abc.parse_input_text("abcabc")
    run = enumerate_runs(t_copy_abc, raw)[0]
    by_iv = {(l.x1, l.x2): l for l in enumerate_loops(run,
                                                      idempotent_only=True)}
    loop = by_iv[(1, 4)]    # one abc block
    word, pumped = pump(t_copy_abc, run, loop, 2)
    assert t_copy_abc.table.render(word) == "abcabcabc"
    assert pumped.render_output() == "abcabcabc" * 2


def test_pump_word_length_arithmetic(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 4):
            run = runs[0]
            for loop in enumerate_loops(run):
                for copies in (1, 2, 3):
                    word, _ = pump(t, run, loop, copies)
                    assert len(word) == len(raw) + \
                        (copies - 1) * (loop.x2 - loop.x1)


def test_pump_structural_validity_and_prediction(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 4):
            for run in runs:
                for loop in enumerate_loops(run, idempotent_only=True):
                    comps = components_of(run, loop)
                    for m in (0, 1, 2):
                        word, pumped = pump(t, run, loop, m + 1)
                        assert validate_run(t, word, pumped)
                        assert pumped.output == predicted_pump_output(
                            run, loop, comps, m)


def test_pump_nonidempotent_loop_still_valid(t_zigzag):
    raw = t_zigzag.parse_input_text("mm")
    run = enumerate_runs(t_zigzag, raw)[0]
    by_iv = {(l.x1, l.x2): l for l in enumerate_loops(run)}
    loop = by_iv[(1, 2)]
    assert not loop.idempotent
    word, pumped = pump(t_zigzag, run, loop, 2)
    assert validate_run(t_zigzag, word, pumped)
    # Doubling the non-idempotent cell behaves like the doubled loop.
    doubled, pumped2 = pump(t_zigzag, run, by_iv[(1, 3)], 1)
    assert doubled == raw and word == t_zigzag.parse_input_text("mmm")


def _pumped_cut(loop: Loop, copies: int, x: int) -> int:
    """The cut of the original word whose crossing a run pumped by
    repeating `loop` `copies` times has at cut x: borders of copies map to
    x1, which carries the crossing of x2."""
    width = loop.x2 - loop.x1
    if x <= loop.x1:
        return x
    if x >= loop.x2 + (copies - 1) * width:
        return x - (copies - 1) * width
    return loop.x1 + (x - loop.x1) % width


def _assert_pumping_laws(t, run) -> int:
    """Pump every loop of the run, idempotent or not, 1 to 3 times: the
    pumped run is a normalized run on the pumped word, each of its cuts has
    the crossing of its image, and each step that reads inside the loop is
    made once per copy.  Returns the pumps made."""
    pumps = 0
    for loop in enumerate_loops(run):
        inside = sum(loop.x1 <= s.read_index < loop.x2 for s in run.steps)
        for copies in (1, 2, 3):
            word, pumped = pump(t, run, loop, copies)
            assert validate_run(t, word, pumped), (run, loop, copies)
            assert [pumped.crossing(x)
                    for x in range(pumped.word.omega + 1)] == \
                [run.crossing(_pumped_cut(loop, copies, x))
                 for x in range(pumped.word.omega + 1)], (run, loop, copies)
            assert len(pumped.steps) == \
                len(run.steps) + (copies - 1) * inside, (run, loop, copies)
            pumps += 1
    return pumps


def test_pumping_laws_on_fixtures(fixtures):
    pumps = 0
    for name in FIXTURE_NAMES:
        t = fixtures[name]
        for _, runs in domain_words(t, 4 if name == "T_RUNNING" else 5):
            for run in runs:
                pumps += _assert_pumping_laws(t, run)
    assert pumps == 8838


@given(transducers(max_transitions=12))
@settings(max_examples=200, deadline=None)
def test_pumping_laws_random(t):
    assume(validate(t).ok)
    for _, runs in runs_upto(t, 4):
        for run in runs:
            _assert_pumping_laws(t, run)


@pytest.mark.parametrize("word,x1,x2", [
    ("ab", 1, 2),    # the two borders have distinct crossings
    ("ab", 0, 2),    # the left border is the left end
    ("ab", 1, 4),    # the right border is past the right delimiter
])
def test_pump_rejects_a_non_loop(word, x1, x2):
    run = enumerate_runs(FIG_RUN, FIG_RUN.parse_input_text(word))[0]
    with pytest.raises(ValueError, match=rf"loop\[{x1},{x2}\] .* not inner "
                                         "cuts with equal crossings"):
        pump(FIG_RUN, run, Loop(x1, x2, None, False), 2)


@pytest.mark.parametrize("read_index,message", [
    (-1, "took 17 steps, not 16"),    # no step reads inside the loop
    (1, "took 19 steps, not 32"),     # every step does
])
def test_pump_step_count_check_raises(t_copy_ab, read_index, message):
    # A run whose steps misstate what they read: the walk passes or falls
    # short of the step count.  Raised, not asserted, so the check also
    # holds under python -O.
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    loop = next(l for l in enumerate_loops(run) if l.interval == (1, 2))
    wrong = Run(t_copy_ab, run.word,
                [s._replace(read_index=read_index) for s in run.steps])
    with pytest.raises(InternalInconsistencyError, match=message):
        pump(t_copy_ab, wrong, loop, 2)


def test_component_interval_check_raises():
    # A flow whose cycle {0, 2} skips level 1 is no loop effect.
    flow = SimpleNamespace(edges=frozenset({(0, 2), (1, 1), (2, 0)}))
    loop = Loop(1, 2, SimpleNamespace(flow=flow), True)
    with pytest.raises(InternalInconsistencyError,
                       match=r"component nodes \(0, 2\) .* not an interval"):
        components_of(None, loop)


def test_predicted_pump_output_m0(t_mirror):
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text("ab"))[0]
    for loop in enumerate_loops(run, idempotent_only=True):
        comps = components_of(run, loop)
        assert predicted_pump_output(run, loop, comps, 0) == run.output


def test_trace_output_is_sum_of_factor_outputs(t_threecomp):
    run = enumerate_runs(t_threecomp, t_threecomp.parse_input_text("mm"))[0]
    for loop in enumerate_loops(run, idempotent_only=True):
        for comp in components_of(run, loop):
            assert len(trace_of(run, comp)) == sum(
                len(run.factor_output(f))
                for f in brute_intercepted_factors(run, loop.x1, loop.x2)
                if f.start[1] in comp.nodes)


def test_trace_of_checks_raise(t_threecomp):
    # Raised, not asserted, so the checks also hold under python -O.
    run = enumerate_runs(t_threecomp, t_threecomp.parse_input_text("m"))[0]
    comp = next(c for l in enumerate_loops(run, idempotent_only=True)
                for c in components_of(run, l) if len(c.factors) > 1)
    with pytest.raises(InternalInconsistencyError, match="crossing factor"):
        trace_of(run, comp._replace(anchor=(0, 0)))
    # The crossing factor now ends on a level no other factor starts on.
    factors = tuple(f._replace(end=(f.end[0], f.end[1] + 7))
                    if f.start == comp.anchor else f for f in comp.factors)
    with pytest.raises(InternalInconsistencyError, match="concatenate"):
        trace_of(run, comp._replace(factors=factors))

# -- output minimality ---------------------------------------------------------

def test_minimal_width_loop_is_output_minimal(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    by_iv = {(l.x1, l.x2): l for l in enumerate_loops(run,
                                                      idempotent_only=True)}
    loop = by_iv[(1, 2)]
    assert subloops(run, loop) == []
    for comp in components_of(run, loop):
        assert is_output_minimal(run, loop, comp)


def test_wide_loop_pairs_not_output_minimal(t_copy_ab):
    # The shape from the overlap counterexample: an inversion whose pairs
    # contain strictly smaller loops with non-empty traces.
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    by_iv = {(l.x1, l.x2): l for l in enumerate_loops(run,
                                                      idempotent_only=True)}
    wide = by_iv[(1, 3)]
    comps = components_of(run, wide)
    copying = [c for c in comps
               if trace_of(run, c)]
    assert copying
    for comp in copying:
        assert not is_output_minimal(run, wide, comp)


def test_output_minimal_trace_within_achieved_bound(fixtures):
    from untwist.forest import build_forest
    for name in CORE_NAMES:
        t = fixtures[name]
        c_max = max((len(tr.output) for tr in t.transitions), default=0)
        h_max = 2 * len(t.states) - 1
        for raw, runs in domain_words(t, 4):
            for run in runs:
                positions = tuple(range(run.word.omega + 1))
                height = build_forest(run, positions).height
                achieved = c_max * h_max * ((1 << height) + 4)
                for loop in enumerate_loops(run, idempotent_only=True):
                    for comp in components_of(run, loop):
                        if is_output_minimal(run, loop, comp):
                            assert len(trace_of(run, comp)) <= achieved
