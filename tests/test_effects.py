import itertools
import math
import random

from untwist.effects import (BOTTOM, Effect, Flow, effect_of_interval,
                             effect_product, flow_is_valid, flow_of_interval,
                             flow_product, interval_effect_closure,
                             is_idempotent)
from untwist.runs import enumerate_runs
from untwist.transducer import constants

from .conftest import CORE_NAMES, domain_words
from .oracles import (counted_flow_is_valid, effect_power, flow_partition,
                      four_clause_flow_product)


def zigzag_flow(t_zigzag):
    run = enumerate_runs(t_zigzag, t_zigzag.parse_input_text("m"))[0]
    return flow_of_interval(run, 1, 2)


def test_worked_square_example(t_zigzag):
    f = zigzag_flow(t_zigzag)
    assert f.edges == {(0, 1), (2, 0), (1, 3), (4, 2), (3, 4)}
    ff = flow_product(f, f)
    parts = flow_partition(ff)
    assert parts["LL"] == {(0, 1), (2, 3)}
    assert parts["RR"] == {(1, 2), (3, 4)}
    assert parts["LR"] == {(4, 0)}
    assert parts["RL"] == frozenset()


def test_one_way_flow_idempotent(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("aa"))[0]
    f = flow_of_interval(run, 1, 2)
    assert f.edges == {(0, 0)}
    assert flow_product(f, f) == f
    e = effect_of_interval(run, 1, 2)
    assert is_idempotent(e)
    assert e.c1 == e.c2


def test_edge_count_equals_factor_count(t_copy_ab, t_zigzag):
    for t, word in ((t_copy_ab, "abab"), (t_zigzag, "mm")):
        run = enumerate_runs(t, t.parse_input_text(word))[0]
        omega = run.word.omega
        for x1 in range(omega):
            for x2 in range(x1 + 1, omega + 1):
                flow = flow_of_interval(run, x1, x2)
                assert len(flow.edges) == len(run.intercepted_factors(x1, x2))


def test_flow_degree_and_parity_invariants(t_running):
    run = enumerate_runs(t_running, t_running.parse_input_text("abc#ab"))[0]
    omega = run.word.omega
    for x1 in range(omega):
        for x2 in range(x1 + 1, omega + 1):
            f = flow_of_interval(run, x1, x2)
            assert flow_is_valid(f.h1, f.h2, f.edges)
            for (y, z), kind in ((e, k) for k, es in flow_partition(f).items()
                                 for e in es):
                src_even, dst_even = y % 2 == 0, z % 2 == 0
                assert {"LL": (True, False), "LR": (True, True),
                        "RL": (False, False), "RR": (False, True)}[kind] == \
                    (src_even, dst_even)


def test_effect_product_mismatch_is_bottom(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    e1 = effect_of_interval(run, 1, 2)
    e_last = effect_of_interval(run, run.word.omega - 1, run.word.omega)
    assert e_last.c2 != e1.c1    # final border differs from an inner one
    assert effect_product(e_last, e1) is BOTTOM


def test_bottom_absorbs(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("a"))[0]
    e = effect_of_interval(run, 0, 1)
    assert effect_product(e, BOTTOM) is BOTTOM
    assert effect_product(BOTTOM, e) is BOTTOM
    assert flow_product(BOTTOM, e.flow) is BOTTOM
    assert not is_idempotent(BOTTOM)


def test_homomorphism_exhaustive_small(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 4):
            for run in runs:
                omega = run.word.omega
                for x1 in range(omega + 1):
                    for x2 in range(x1 + 1, omega + 1):
                        for x3 in range(x2 + 1, omega + 1):
                            lhs = effect_of_interval(run, x1, x3)
                            rhs = effect_product(
                                effect_of_interval(run, x1, x2),
                                effect_of_interval(run, x2, x3))
                            assert lhs == rhs


def test_closure_size_within_bound(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        c = constants(t)
        word = {"T_ID": "abab", "T_COPY_ABC": "abcabc", "T_COPY_AB": "abab",
                "T_MIRROR": "abba", "T_RUNNING": "abc#ab"}[name]
        run = enumerate_runs(t, t.parse_input_text(word))[0]
        closure = interval_effect_closure(run)
        assert BOTTOM not in closure
        assert len(closure) <= c.e_max


def test_factorial_power_idempotent(t_copy_ab, t_zigzag):
    # In the effect semigroup extended with the absorbing dummy, the
    # k!-th power of any element is an idempotent (possibly the dummy,
    # when the element's borders do not chain with themselves).
    for t, word in ((t_copy_ab, "abab"), (t_zigzag, "mmm")):
        run = enumerate_runs(t, t.parse_input_text(word))[0]
        closure = interval_effect_closure(run)
        k = len(closure)
        for e in closure:
            p = effect_power(e, math.factorial(k))
            assert effect_product(p, p) == p
        loopable = [e for e in closure if e.c1 == e.c2]
        assert loopable, "expected some self-chaining effects"
        for e in loopable:
            assert is_idempotent(effect_power(e, math.factorial(k)))


# -- random valid flows: associativity and bottom propagation -----------------

def random_flow(rng: random.Random, h1: int, h2: int):
    """Sample a valid flow for border lengths (h1, h2) or return None.

    Sources (even < h1, odd < h2) are matched to targets (odd < h1,
    even < h2) under the parity typing via a random greedy matching.
    """
    n = max(h1, h2)
    sources = [y for y in range(n) if (y % 2 == 0 and y < h1)
               or (y % 2 == 1 and y < h2)]
    targets = [y for y in range(n) if (y % 2 == 1 and y < h1)
               or (y % 2 == 0 and y < h2)]
    if len(sources) != len(targets):
        return None
    for _ in range(200):
        rng.shuffle(targets)
        edges = frozenset(zip(sources, targets))
        if flow_is_valid(h1, h2, edges):
            return Flow(h1, h2, edges)
    return None


def test_flow_associativity_on_random_composable_triples():
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        h = [rng.choice([1, 3, 5]) for _ in range(4)]
        f = random_flow(rng, h[0], h[1])
        g = random_flow(rng, h[1], h[2])
        k = random_flow(rng, h[2], h[3])
        if None in (f, g, k):
            continue
        lhs = flow_product(flow_product(f, g), k)
        rhs = flow_product(f, flow_product(g, k))
        assert lhs == rhs
        checked += 1


def test_flow_product_border_mismatch_is_bottom():
    rng = random.Random(7)
    f = random_flow(rng, 1, 3)
    g = random_flow(rng, 1, 1)
    assert f is not None and g is not None
    assert flow_product(f, g) is BOTTOM
    assert flow_product(flow_product(f, g), g) is BOTTOM


def test_make_flow_rejects_bad_degrees():
    assert not flow_is_valid(1, 1, frozenset({(0, 0), (0, 1)}))
    assert not flow_is_valid(3, 3, frozenset({(0, 0)}))


# -- path-following product against the four-clause product -------------------

def all_flows(max_border: int) -> list[Flow]:
    """Every valid flow with both borders in 0..max_border."""
    flows = []
    for h1 in range(max_border + 1):
        for h2 in range(max_border + 1):
            levels = range(max(h1, h2))
            sources = [y for y in levels if y < (h1, h2)[y % 2]]
            targets = [z for z in levels if z < (h2, h1)[z % 2]]
            if len(sources) == len(targets):
                flows += [Flow(h1, h2, frozenset(zip(sources, perm)))
                          for perm in itertools.permutations(targets)]
    return flows


def test_flow_is_valid_matches_degree_counts():
    rng = random.Random(5)
    for _ in range(20000):
        h1, h2 = rng.randrange(6), rng.randrange(6)
        n = max(h1, h2)
        edges = frozenset((rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
                          for _ in range(rng.randrange(n + 2)))
        assert flow_is_valid(h1, h2, edges) == \
            counted_flow_is_valid(h1, h2, edges)
    for f in all_flows(5):
        assert counted_flow_is_valid(*f)
        for e in f.edges:
            assert not flow_is_valid(f.h1, f.h2, f.edges - {e})


def test_flow_product_matches_four_clauses_on_all_small_pairs():
    flows = all_flows(5)
    assert len(flows) == 236
    for f in flows:
        for g in flows:
            assert flow_product(f, g) == four_clause_flow_product(f, g)


def test_flow_product_matches_four_clauses_on_random_pairs():
    rng = random.Random(20261019)
    for _ in range(20000):
        h = [rng.choice([1, 3, 5, 7, 9]) for _ in range(3)]
        f, g = random_flow(rng, h[0], h[1]), random_flow(rng, h[1], h[2])
        assert flow_product(f, g) == four_clause_flow_product(f, g)


def test_flow_product_skips_unreachable_shared_cycle():
    # F's edge (1, 2) and G's edge (2, 1) close a cycle on the shared
    # border that no path from an outer level enters.
    f = Flow(1, 3, frozenset({(0, 0), (1, 2)}))
    g = Flow(3, 1, frozenset({(0, 0), (2, 1)}))
    assert flow_is_valid(*f) and flow_is_valid(*g)
    assert flow_product(f, g) == Flow(1, 1, frozenset({(0, 0)}))
    assert four_clause_flow_product(f, g) == flow_product(f, g)


def test_flow_product_of_invalid_flows_is_bottom():
    g = Flow(1, 1, frozenset({(0, 0)}))
    assert flow_product(Flow(1, 1, frozenset()), g) is BOTTOM
    assert flow_product(g, Flow(1, 1, frozenset())) is BOTTOM
    # Level 2 has two in-edges in F, so the path from level 0 runs
    # 0 -> 2 -> 1 -> 2 -> ... across the shared border without end.
    f = Flow(1, 3, frozenset({(0, 2), (1, 2)}))
    assert flow_product(f, Flow(3, 1, frozenset({(0, 0), (2, 1)}))) is BOTTOM


def test_equal_intervals_of_two_runs_give_equal_effects(t_id):
    run1 = enumerate_runs(t_id, t_id.parse_input_text("aa"))[0]
    run2 = enumerate_runs(t_id, t_id.parse_input_text("ab"))[0]
    e1, e2 = effect_of_interval(run1, 1, 2), effect_of_interval(run2, 1, 2)
    assert e1 == e2 and hash(e1) == hash(e2)
    assert e1 == Effect(e1.flow, e1.c1, e1.c2)
    assert effect_product(e1, e1) == effect_product(e2, e2)
