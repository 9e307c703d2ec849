import pytest

from untwist import inversions
from untwist.bounds import BoundFactored
from untwist.decomposition import (BLOCK, DIAGONAL, Decomposition, Piece,
                                   block_interval, build_decomposition,
                                   coverage_classes, is_block, is_diagonal)
from untwist.inversions import (inversions_of, multi_pass_components,
                                smallest_period)
from untwist.runs import enumerate_runs
from untwist.transducer import constants

from .conftest import CORE_NAMES, domain_words, spy
from .oracles import has_dividing_period, validate_decomposition

SYM = BoundFactored(1, 1, 10 ** 6)


def bound_of(t):
    return constants(t).bound_factored


def test_build_decomposition_derives_once(t_copy_abc, monkeypatch):
    # One anchored list serves the periodicity check and the coverage
    # classes, and neither lists the inversions.
    calls = {name: spy(monkeypatch, inversions, name)
             for name in ("anchored_components", "enumerate_inversions")}
    run = enumerate_runs(t_copy_abc, t_copy_abc.parse_input_text("abc" * 6))[0]
    outcome = build_decomposition(run, bound_of(t_copy_abc))
    assert outcome.decomposition is not None
    assert {name: len(c) for name, c in calls.items()} == \
        {"anchored_components": 1, "enumerate_inversions": 0}


def test_no_inversions_no_classes(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("abab"))[0]
    assert coverage_classes(run, multi_pass_components(run)) == []


def test_two_disjoint_classes(t_running):
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    classes = coverage_classes(run, multi_pass_components(run))
    assert len(classes) == 2
    first, second = classes
    assert first.end < second.start
    assert first.anchor_positions[0] < first.anchor_positions[-1]


def test_chain_condition(t_running, t_copy_ab):
    for t, text in ((t_running, "b#abcabc#ca#abcabc"), (t_copy_ab, "abab")):
        run = enumerate_runs(t, t.parse_input_text(text))[0]
        for cls in coverage_classes(run, multi_pass_components(run)):
            idx = run.index_of
            chain = cls.chain
            assert idx(chain[0].first.anchor) == cls.start
            reach = idx(chain[0].second.anchor)
            for prev, nxt in zip(chain, chain[1:]):
                assert idx(prev.first.anchor) <= idx(nxt.first.anchor)
                assert idx(nxt.first.anchor) <= idx(prev.second.anchor)
                assert idx(prev.second.anchor) <= idx(nxt.second.anchor)
                reach = idx(nxt.second.anchor)
            assert reach == cls.end


def test_every_covered_location_in_a_class(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    classes = coverage_classes(run, multi_pass_components(run))
    covered = set()
    for inv in inversions_of(run):
        covered.update(range(run.index_of(inv.first.anchor),
                             run.index_of(inv.second.anchor) + 1))
    in_classes = set()
    for cls in classes:
        in_classes.update(range(cls.start, cls.end + 1))
    assert covered == in_classes


def test_block_interval_collapsed_case(t_copy_ab):
    # A class whose anchors all sit at one position: the widening stays at
    # that position, latest-before and earliest-after.
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("a"))[0]
    classes = coverage_classes(run, multi_pass_components(run))
    assert classes
    cls = classes[0]
    assert cls.anchor_positions == (1,)
    l1, l2 = block_interval(run, cls)
    assert l1[0] == l2[0] == 1
    assert run.index_of(l1) <= cls.start
    assert run.index_of(l2) >= cls.end


def test_block_interval_passes_is_block(t_running):
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    for cls in coverage_classes(run, multi_pass_components(run)):
        l1, l2 = block_interval(run, cls)
        ok, data = is_block(run, l1, l2, bound_of(t_running))
        assert ok
        assert data.period <= 3


def test_one_way_factor_is_diagonal(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("abab"))[0]
    ok, witness = is_diagonal(run, run.locations[0], run.locations[-1],
                              bound_of(t_id))
    assert ok
    assert [w[0] for w in witness] == list(range(run.word.omega + 1))
    # One-way: the witness maps are single locations with silent sides.
    for x, loc in enumerate(witness):
        assert loc == (x, 0)


def test_diagonal_failure_reports_position(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    # With a zero bound, position 2 is the first whose every candidate
    # location has output on some side; it is reported as the failure.
    ok, failing_x = is_diagonal(run, run.locations[0], run.locations[-1], 0)
    assert not ok
    assert failing_x == 2


def test_diagonal_zigzag_shape_with_symbolic_bound(t_zigzag):
    run = enumerate_runs(t_zigzag, t_zigzag.parse_input_text("mm"))[0]
    ok, witness = is_diagonal(run, run.locations[0], run.locations[-1],
                              bound_of(t_zigzag))
    assert ok
    idx = [run.index_of(w) for w in witness]
    assert idx == sorted(idx)


def test_block_on_empty_output_piece(t_mirror):
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text("ab"))[0]
    # The silent return pass: from the start of the third pass to the end.
    start = next(loc for loc in run.locations if loc[1] == 2)
    ok, data = is_block(run, start, run.locations[-1], bound_of(t_mirror))
    assert ok
    assert (data.head, data.mid, data.tail) == ("", "", "")


def test_block_canonical_split_matches_brute_force(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    l1, l2 = run.locations[2], run.locations[-2]
    bound = 3
    ok, data = is_block(run, l1, l2, bound)
    if ok:
        w = run.output_between(run.index_of(l1), run.index_of(l2))
        best = None
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                if i <= bound and len(w) - j <= bound and \
                        (i == j or smallest_period(w[i:j]) <= bound):
                    cand = (-(j - i), i)
                    if best is None or cand < best[0]:
                        best = (cand, (i, j))
        assert best is not None
        i, j = best[1]
        assert (data.head, data.mid, data.tail) == (w[:i], w[i:j], w[j:])


def test_build_t_id_single_diagonal(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("ab"))[0]
    out = build_decomposition(run, bound_of(t_id))
    assert out.unsafe is None
    d = out.decomposition
    assert [p.kind for p in d.pieces] == [DIAGONAL]
    assert validate_decomposition(run, d)


def test_build_running_figure_shape(t_running):
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    out = build_decomposition(run, bound_of(t_running))
    d = out.decomposition
    assert [p.kind for p in d.pieces] == [DIAGONAL, BLOCK, DIAGONAL, BLOCK]
    assert d.pieces[0].start == run.locations[0]
    assert d.pieces[-1].end == run.locations[-1]
    assert validate_decomposition(run, d)


def test_build_copy_ab_refuses_with_unsafe_inversion(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    out = build_decomposition(run, bound_of(t_copy_ab))
    assert out.decomposition is None
    inv, rep = out.unsafe
    assert rep.found_period is None


def test_validate_rejects_swapped_pieces(t_running):
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    d = build_decomposition(run, bound_of(t_running)).decomposition
    swapped = Decomposition((d.pieces[1], d.pieces[0]) + d.pieces[2:],
                            d.bound)
    assert not validate_decomposition(run, swapped)


def test_validate_retagged_piece_on_merits(t_running):
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    d = build_decomposition(run, bound_of(t_running)).decomposition
    # Retag the first block as a diagonal: with the symbolic bound this
    # still passes on its own merits, with a tiny finite bound it fails.
    retagged = Decomposition(
        tuple(Piece(DIAGONAL, p.start, p.end) if i == 1 else p
              for i, p in enumerate(d.pieces)), d.bound)
    assert validate_decomposition(run, retagged)
    small = Decomposition(retagged.pieces, 0)
    assert not validate_decomposition(run, small)


def test_round_trip_on_fixture_runs(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        bound = bound_of(t)
        for raw, runs in domain_words(t, 4):
            for run in runs:
                out = build_decomposition(run, bound)
                if out.decomposition is not None:
                    assert validate_decomposition(run, out.decomposition)


def test_blocks_strictly_increasing_positions(t_running):
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    d = build_decomposition(run, bound_of(t_running)).decomposition
    xs = [p.start[0] for p in d.pieces] + [d.pieces[-1].end[0]]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)


def test_covered_locations_inside_blocks_or_flat(t_running, t_copy_abc):
    # Locations covered by an inversion whose class spans two or more
    # positions always land inside an emitted block piece.
    for t, text in ((t_running, "b#abcabc#ca#abcabc"),
                    (t_copy_abc, "abcabc")):
        run = enumerate_runs(t, t.parse_input_text(text))[0]
        d = build_decomposition(run, bound_of(t)).decomposition
        block_ranges = [(run.index_of(p.start), run.index_of(p.end))
                        for p in d.pieces if p.kind == BLOCK]
        for cls in coverage_classes(run, multi_pass_components(run)):
            if cls.anchor_positions[0] == cls.anchor_positions[-1]:
                continue
            assert any(lo <= cls.start and cls.end <= hi
                       for lo, hi in block_ranges)


def test_block_periodicity_chain_invariant(t_running):
    # On runs passing the periodicity condition, the output across a class
    # extended by the final covering trace output has period dividing that
    # trace output's length.
    text = "b#abcabc#ca#abcabc"
    run = enumerate_runs(t_running, t_running.parse_input_text(text))[0]
    for cls in coverage_classes(run, multi_pass_components(run)):
        final = cls.chain[-1]
        v = final.second.trace_output
        w = run.output_between(cls.start, cls.end) + v
        assert len(v) % smallest_period(w) == 0


# Raised, not asserted, so the checks also hold under python -O.
@pytest.mark.parametrize("call", [
    lambda run: run.intercepted_factors(2, 2),
    lambda run: run.intercepted_factors(1, 5),
    lambda run: is_diagonal(run, (2, 0), (1, 1), SYM),
    lambda run: is_diagonal(run, (2, 1), (2, 0), SYM),
    lambda run: is_block(run, (2, 0), (1, 1), SYM),
    lambda run: has_dividing_period("abab", 0, 2, SYM),
], ids=["empty interval", "past the end", "diagonal crossed",
        "diagonal reversed", "block crossed", "no trace length"])
def test_bad_arguments_raise_value_error(t_copy_ab, call):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    with pytest.raises(ValueError):
        call(run)
