import itertools
import random

from untwist.effects import effect_of_interval, effect_product, is_idempotent
from untwist.forest import (FactorizationForest, Node, build_forest,
                            ramsey_extract, verify_forest)
from untwist.loops import components_of, enumerate_loops, pump, trace_of
from untwist.runs import enumerate_runs

from .conftest import CORE_NAMES, domain_words


def test_two_positions_single_leaf(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("ab"))[0]
    forest = build_forest(run, (1, 3))
    assert forest.root.is_leaf
    assert forest.height == 1
    assert verify_forest(run, forest)


def test_equal_idempotent_leaves_merge_flat(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("aaaa"))[0]
    xs = (1, 2, 3, 4, 5)
    forest = build_forest(run, xs)
    assert forest.height == 2
    assert len(forest.root.children) == len(xs) - 1
    assert all(c.is_leaf for c in forest.root.children)
    assert verify_forest(run, forest)


def test_build_and_verify_all_small_position_sets(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 3):
            for run in runs:
                omega = run.word.omega
                positions = range(omega + 1)
                for size in range(2, min(omega + 1, 6) + 1):
                    for xs in itertools.combinations(positions, size):
                        forest = build_forest(run, xs)
                        assert verify_forest(run, forest)
                        assert forest.height <= 3 * forest.closure_size


def test_verify_rejects_mutated_effect(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    forest = build_forest(run, tuple(range(run.word.omega + 1)))

    def first_internal(n: Node):
        if not n.is_leaf:
            return n
        return None

    node = forest.root
    assert not node.is_leaf
    bad_effect = effect_of_interval(run, 0, 1)
    mutated = Node(node.interval, bad_effect, node.children, node.height)
    assert bad_effect != node.effect
    bad = FactorizationForest(forest.positions, mutated, forest.closure_size)
    assert not verify_forest(run, bad)


def test_verify_rejects_non_minimal_leaf(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("aa"))[0]
    leaf = Node((1, 3), effect_of_interval(run, 1, 3), (), 1)
    forest = FactorizationForest((1, 2, 3), leaf, 1)
    assert not verify_forest(run, forest)


def test_hand_built_binary_forest(t_mirror):
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text("ab"))[0]
    xs = (0, 2, 4)
    l1 = Node((0, 2), effect_of_interval(run, 0, 2), (), 1)
    l2 = Node((2, 4), effect_of_interval(run, 2, 4), (), 1)
    root = Node((0, 4), effect_product(l1.effect, l2.effect), (l1, l2), 2)
    assert verify_forest(run, FactorizationForest(xs, root, 0))


def test_random_position_sets(fixtures):
    rng = random.Random(1312)
    words = {"T_ID": "abab", "T_COPY_ABC": "abcabc", "T_COPY_AB": "abab",
             "T_MIRROR": "abab", "T_RUNNING": "abc#ab"}
    for name in CORE_NAMES:
        t = fixtures[name]
        run = enumerate_runs(t, t.parse_input_text(words[name]))[0]
        omega = run.word.omega
        for _ in range(60):
            size = rng.randint(2, omega + 1)
            xs = tuple(sorted(rng.sample(range(omega + 1), size)))
            forest = build_forest(run, xs)
            assert verify_forest(run, forest)
            assert forest.height <= 3 * forest.closure_size


# -- extraction -----------------------------------------------------------------

def test_extract_not_found_on_silent_run(t_mirror):
    # The return pass of the mirror produces no output at level 2.
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text("abab"))[0]
    silent = parse_silent = None
    res = ramsey_extract(run, (0, run.word.omega), run.locations[-2],
                         run.locations[-1])
    assert res.witness is None


def test_extract_witness_on_pumped_copy_run(t_copy_ab):
    base = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    loop = [l for l in enumerate_loops(base, idempotent_only=True)
            if (l.x1, l.x2) == (1, 3)][0]
    _, run = pump(t_copy_ab, base, loop, 12)
    res = ramsey_extract(run, (0, run.word.omega), run.locations[0],
                         run.locations[-1])
    assert res.witness is not None
    w = res.witness
    x1, x2 = 0, run.word.omega
    lo, hi = run.index_of(run.locations[0]), run.index_of(run.locations[-1])
    # The three guarantees, re-checked by independent predicates.
    assert x1 < w.loop.x1 < w.loop.x2 < x2
    assert lo < run.index_of(w.anchor) < hi
    assert w.trace_output != ""
    assert run.crossing(w.loop.x1) == run.crossing(w.loop.x2)
    e = effect_of_interval(run, w.loop.x1, w.loop.x2)
    assert is_idempotent(e)
    comp = next(c for c in components_of(run, w.loop)
                if c.nodes == w.component.nodes)
    assert comp.anchor == w.anchor
    assert trace_of(run, comp) == w.trace_output


def test_extraction_completeness_on_pumped_runs(t_copy_ab):
    # Whenever the subrun output exceeds the bound from the achieved forest
    # height, extraction must succeed.
    base = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    loop = [l for l in enumerate_loops(base, idempotent_only=True)
            if (l.x1, l.x2) == (1, 3)][0]
    for copies in (2, 6, 10, 16, 24):
        _, run = pump(t_copy_ab, base, loop, copies)
        lo_loc, hi_loc = run.locations[0], run.locations[-1]
        res = ramsey_extract(run, (0, run.word.omega), lo_loc, hi_loc)
        if res.achieved_bound is not None \
                and len(run.output) > res.achieved_bound:
            assert res.witness is not None, copies


def test_extract_threshold_free_small_run(t_copy_ab):
    # Extraction succeeds on modest runs too; it never waits for the
    # astronomically large theoretical threshold.
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("aaaa"))[0]
    res = ramsey_extract(run, (0, run.word.omega), run.locations[0],
                         run.locations[-1])
    assert res.witness is not None
    assert res.witness.trace_output != ""
