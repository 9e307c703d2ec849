import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from untwist import effects, inversions, loops
from untwist.bounds import BoundFactored
from untwist.decomposition import coverage_classes
from untwist.inversions import (CO_INVERSION, INVERSION, FineWilfPrecondition,
                                anchored_components, enumerate_inversions,
                                enumerate_k_inversions, fine_wilf_check,
                                first_unsafe_inversion, has_period,
                                inversion_safe, inversion_word, inversions_of,
                                k_inversion_safe, multi_pass_components,
                                period_report, smallest_period)
from untwist.loops import enumerate_loops
from untwist.oneway import decide_oneway_bounded, decide_sweeping_bounded
from untwist.runs import CapExceeded, enumerate_runs
from untwist.transducer import constants

from .conftest import (CORE_NAMES, FIXTURE_NAMES, domain_words, load_fixture,
                       spy)
from .oracles import (brute_coverage_classes, brute_inversions,
                      brute_k_inversions, brute_smallest_period, check_p2,
                      has_dividing_period)

SYM = BoundFactored(1, 1, 10 ** 6)    # effectively unbounded at desk scale


def test_one_way_runs_have_no_inversions(t_id):
    for word in ("", "a", "ab", "abba"):
        run = enumerate_runs(t_id, t_id.parse_input_text(word))[0]
        assert inversions_of(run) == []


def test_all_epsilon_traces_no_inversions(t_mirror):
    # The return pass produces output only on the first two passes; a run
    # of the identity never yields anchored components at all on epsilon.
    run = enumerate_runs(t_mirror, t_mirror.parse_input_text(""))[0]
    assert inversions_of(run) == []


def test_copy_ab_has_figure_shaped_inversion(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    invs = inversions_of(run)
    assert invs
    separated = [i for i in invs if i.first.loop != i.second.loop]
    assert separated
    inv = separated[0]
    # First anchor later in position, earlier in the run.
    assert inv.first.anchor[0] >= inv.second.anchor[0]
    assert run.index_of(inv.first.anchor) < run.index_of(inv.second.anchor)


def test_inversion_bullets_recheck(fixtures):
    from untwist.effects import effect_product
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 4):
            for run in runs:
                for inv in inversions_of(run):
                    for side in (inv.first, inv.second):
                        e = side.loop.effect
                        assert effect_product(e, e) == e
                        assert side.trace_output != ""
                        assert run.crossing(side.loop.x1) == \
                            run.crossing(side.loop.x2)
                    assert run.index_of(inv.first.anchor) < \
                        run.index_of(inv.second.anchor)
                    assert inv.first.anchor[0] >= inv.second.anchor[0]
                    a, b = inv.first.loop, inv.second.loop
                    assert a == b or b.x2 <= a.x1


def test_inversion_word_concatenation(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    for inv in inversions_of(run):
        w = inversion_word(run, inv)
        i = run.index_of(inv.first.anchor)
        j = run.index_of(inv.second.anchor)
        assert w == inv.first.trace_output + run.output_between(i, j) \
            + inv.second.trace_output
        assert len(w) == len(inv.first.trace_output) \
            + (run.out_prefix[j] - run.out_prefix[i]) \
            + len(inv.second.trace_output)


# -- the sweep against the all-pairs filter ------------------------------------

def _assert_matches_brute_force(run):
    anchored = anchored_components(
        run, enumerate_loops(run, idempotent_only=True))
    for kind in (INVERSION, CO_INVERSION):
        assert enumerate_inversions(run, kind, anchored) == \
            brute_inversions(run, kind, anchored)
    assert coverage_classes(run, multi_pass_components(run)) == \
        brute_coverage_classes(run)


def test_sweep_matches_brute_force_exhaustive(fixtures):
    for name in FIXTURE_NAMES:
        for raw, runs in domain_words(fixtures[name], 5):
            for run in runs:
                _assert_matches_brute_force(run)


@st.composite
def fixture_words(draw):
    name = draw(st.sampled_from(FIXTURE_NAMES))
    t = load_fixture(name)
    if name == "T_COPY_ABC":        # its domain is (abc)*
        word = "abc" * draw(st.integers(0, 8))
    else:
        alphabet = sorted(t.table.encode_symbol(s) for s in t.input_symbols)
        word = "".join(draw(st.lists(st.sampled_from(alphabet),
                                     max_size=24)))
    return t, word


@given(fixture_words())
@settings(max_examples=120, deadline=None)
def test_sweep_matches_brute_force_random(case):
    t, word = case
    for run in enumerate_runs(t, word):
        _assert_matches_brute_force(run)


# -- single-pass loops are in no inversion -------------------------------------

def _assert_pruning_keeps_inversions(run):
    pruned = inversions_of(run)
    assert pruned == enumerate_inversions(
        run, INVERSION,
        anchored_components(run, enumerate_loops(run, idempotent_only=True)))
    assert pruned == brute_inversions(run, INVERSION)


def test_pruned_inversions_match_exhaustive(fixtures):
    found = 0
    for name in FIXTURE_NAMES:
        longest = 5 if name == "T_RUNNING" else 6
        for raw, runs in domain_words(fixtures[name], longest):
            for run in runs:
                _assert_pruning_keeps_inversions(run)
                found += len(brute_inversions(run, INVERSION))
    assert found > 0


@given(fixture_words())
@settings(max_examples=120, deadline=None)
def test_pruned_inversions_match_random(case):
    t, word = case
    for run in enumerate_runs(t, word):
        _assert_pruning_keeps_inversions(run)


def test_inversion_members_sit_on_multi_pass_loops(fixtures):
    # The single-pass lemma, checked against every inversion of the full
    # anchored list; the filter keeps exactly the loops crossed twice or more.
    members = 0
    for name in FIXTURE_NAMES:
        for raw, runs in domain_words(fixtures[name], 5):
            for run in runs:
                full = enumerate_loops(run, idempotent_only=True)
                kept = enumerate_loops(run, idempotent_only=True,
                                       skip_single_pass=True)
                assert kept == [l for l in full
                                if len(run.crossing(l.x1)) >= 2]
                for inv in brute_inversions(run, INVERSION):
                    for side in (inv.first, inv.second):
                        assert len(run.crossing(side.loop.x1)) >= 2
                        assert side.loop in kept
                        members += 1
    assert members > 0


def test_decide_oneway_derives_only_multi_pass_loops(fixtures, monkeypatch):
    # T_ID crosses every cut once, so the decider derives no loop at all;
    # on T_COPY_ABC it derives each loop crossed twice or more exactly once.
    t_id, t_abc = fixtures["T_ID"], fixtures["T_COPY_ABC"]
    expected = {"effect_of_interval": 0, "components_of": 0}
    for raw, runs in domain_words(t_abc, 6):
        for run in runs:
            groups = {}
            for x in range(1, run.word.omega):
                groups.setdefault(run.crossing(x), []).append(x)
            expected["effect_of_interval"] += sum(
                len(g) * (len(g) - 1) // 2
                for c, g in groups.items() if len(c) >= 2)
            expected["components_of"] += sum(
                1 for l in enumerate_loops(run, idempotent_only=True)
                if len(run.crossing(l.x1)) >= 2)
    assert expected["components_of"] > 0
    calls = {"effect_of_interval": spy(monkeypatch, effects,
                                       "effect_of_interval"),
             "components_of": spy(monkeypatch, loops, "components_of")}
    assert decide_oneway_bounded(t_id, 6).kind == "no-counterexample"
    assert {name: len(c) for name, c in calls.items()} == \
        {"effect_of_interval": 0, "components_of": 0}
    assert decide_oneway_bounded(t_abc, 6).kind == "no-counterexample"
    assert {name: len(c) for name, c in calls.items()} == expected


def test_one_pass_sweeping_derives_only_multi_pass_loops(fixtures,
                                                         monkeypatch):
    # With k = 1 a chain is one inversion, so the sweeping decider skips
    # single-pass loops as the one-way decider does, and builds no
    # co-inversions.
    calls = {"effect_of_interval": spy(monkeypatch, effects,
                                       "effect_of_interval"),
             "co-inversions": []}
    orig = inversions.enumerate_inversions

    def recorded(run, kind, anchored):
        if kind == CO_INVERSION:
            calls["co-inversions"].append(run)
        return orig(run, kind, anchored)
    monkeypatch.setattr(inversions, "enumerate_inversions", recorded)
    v = decide_sweeping_bounded(fixtures["T_ID"], 1, 6)
    assert v.kind == "no-counterexample"
    assert v.searched == {"inputs": 127, "runs": 127, "chains": 0}
    assert {name: len(c) for name, c in calls.items()} == \
        {"effect_of_interval": 0, "co-inversions": 0}
    assert decide_sweeping_bounded(fixtures["T_COPY_ABC"], 1, 6).kind == \
        "no-counterexample"
    assert calls["co-inversions"] == []


def test_sweeping_derives_one_anchored_list_per_run(t_copy_ab, monkeypatch):
    # At k >= 2 both kinds of member come from one anchored list per run
    # analysed.  The run on the empty word has one inner cut, so it cannot
    # hold an inversion and is never built; the run on b has the skeleton
    # of the chain-free run on a, so it is not analysed again.
    anchored = spy(monkeypatch, inversions, "anchored_components")
    enumerated = spy(monkeypatch, inversions, "enumerate_inversions")
    v = decide_sweeping_bounded(t_copy_ab, 2, 5)
    assert v.kind == "refuted"
    runs = [args[0] for args in anchored]
    assert [run.word.raw for run in runs] == ["a", "aa", "ab"]
    assert v.searched["runs"] == 5
    assert len({id(run) for run in runs}) == len(runs)
    assert [(args[0], args[1]) for args in enumerated] == \
        [(run, kind) for run in runs for kind in (INVERSION, CO_INVERSION)]
    for inv_args, co_args in zip(enumerated[::2], enumerated[1::2]):
        assert inv_args[2] is co_args[2]


# -- periods -------------------------------------------------------------------

def test_smallest_period_examples():
    assert smallest_period("abcabcab") == 3
    assert smallest_period("aaaa") == 1
    assert smallest_period("abca") == 3
    assert smallest_period("ab") == 2
    with pytest.raises(ValueError):
        smallest_period("")


@given(st.text(alphabet="ab", min_size=1, max_size=14))
@settings(max_examples=300, deadline=None)
def test_smallest_period_matches_brute_force(w):
    assert smallest_period(w) == brute_smallest_period(w)


def test_has_dividing_period_examples():
    assert has_dividing_period("ababab", 2, 4, SYM) == 2
    assert has_dividing_period("abcab", 2, 3, SYM) is None
    assert has_dividing_period("", 5, 10, SYM) == 1
    assert has_dividing_period("abab", 2, 2, 1) is None   # finite bound bites


def test_p2_reports(t_copy_abc, t_copy_ab):
    bound = constants(t_copy_abc).bound_factored
    for i in range(1, 4):
        word = "abc" * i
        for run in enumerate_runs(t_copy_abc,
                                  t_copy_abc.parse_input_text(word)):
            reports = check_p2(run, bound)
            assert all(rep.safe for _, rep in reports)
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    res = first_unsafe_inversion(run, constants(t_copy_ab).bound_factored,
                                 multi_pass_components(run))
    assert res is not None
    inv, rep = res
    assert rep.found_period is None
    assert rep.gcd == math.gcd(rep.len1, rep.len2)


def test_p2_vacuous_without_inversions(t_id):
    run = enumerate_runs(t_id, t_id.parse_input_text("abab"))[0]
    assert check_p2(run, constants(t_id).bound_factored) == []


# -- the word-free safety check against the reports -----------------------------

def _assert_index_matches_reports(run, bounds):
    invs = inversions_of(run)
    for bound in bounds:
        for inv in invs:
            rep = period_report(run, inv, bound)
            assert rep.found_period == has_dividing_period(
                inversion_word(run, inv), rep.len1, rep.len2, bound), \
                (inv, bound)
    return len(invs)


def test_period_index_matches_reports_exhaustive(fixtures):
    checked = 0
    for name in FIXTURE_NAMES:
        t = fixtures[name]
        bounds = (constants(t).bound_factored, 1, 2, 3, 4)
        longest = 5 if name == "T_RUNNING" else 6
        for raw, runs in domain_words(t, longest):
            for run in runs:
                checked += _assert_index_matches_reports(run, bounds)
    assert checked > 0


@given(fixture_words(), st.sampled_from([None, 1, 2, 3, 4]))
@settings(max_examples=120, deadline=None)
def test_period_index_matches_reports_random(case, bound):
    t, word = case
    bounds = (constants(t).bound_factored if bound is None else bound,)
    for run in enumerate_runs(t, word):
        _assert_index_matches_reports(run, bounds)


def test_period_index_matches_reports_long_copy(t_copy_abc):
    run = enumerate_runs(t_copy_abc, "abc" * 18)[0]
    assert _assert_index_matches_reports(
        run, (constants(t_copy_abc).bound_factored, 3)) == 35514


@pytest.mark.parametrize("tr1,out,s,e,tr2,bound,safe", [
    ("ab", "xababay", 1, 6, "ab", SYM, False),   # only the right junction
    ("ab", "xbababy", 1, 6, "ab", SYM, False),   # only the left junction
    ("abab", "ababab", 0, 6, "ab", SYM, True),   # both junctions hold
    ("abab", "ababab", 0, 6, "ab", 1, False),    # ... but the bound bites
    ("ababab", "xaxbab", 2, 4, "abab", SYM, False),  # only the middle breaks
    ("abc", "ab", 0, 2, "cab", SYM, True),       # e - s < p, window periodic
    ("abc", "ab", 0, 2, "abc", SYM, False),      # e - s < p, window aperiodic
    ("abc", "ab", 1, 1, "abc", SYM, True),       # e = s, equal roots
    ("abc", "ab", 1, 1, "bca", SYM, False),      # e = s, rotated roots
    ("aa", "aaaa", 1, 3, "aaaa", SYM, True),     # root length 1
    ("aa", "aaaa", 1, 3, "abab", SYM, False),    # root lengths differ
    ("abab", "ab", 0, 2, "abababab", 2, True),   # e - s == p
])
def test_period_index_unit_cases(tr1, out, s, e, tr2, bound, safe):
    """`inversion_safe` on a stub run whose k-th location sits at output
    offset k, for the word tr1 · out[s:e] · tr2."""
    assert (has_dividing_period(tr1 + out[s:e] + tr2, len(tr1), len(tr2),
                                bound) is not None) == safe
    run = SimpleNamespace(output=out, out_prefix=range(len(out) + 1),
                          index_of={(k, 0): k
                                    for k in range(len(out) + 1)}.__getitem__)
    inv = SimpleNamespace(
        first=SimpleNamespace(trace_output=tr1, anchor=(s, 0)),
        second=SimpleNamespace(trace_output=tr2, anchor=(e, 0)))
    assert inversion_safe(run, bound, inv) == safe


# -- Fine and Wilf ---------------------------------------------------------------

def test_fine_wilf_single_letter():
    assert fine_wilf_check("aaa", 1, "aa", 1, (1, 0, 2)) is True


def test_fine_wilf_precondition_reported():
    with pytest.raises(FineWilfPrecondition):
        fine_wilf_check("ab", 1, "ab", 1, (0, 0, 2))   # "ab" lacks period 1
    with pytest.raises(FineWilfPrecondition):
        fine_wilf_check("aaaa", 2, "aaaa", 3, (0, 0, 2))   # overlap too short


def test_fine_wilf_known_boundary_counterexample():
    # Classic tightness: periods 2 and 3 with a common factor one letter
    # shorter than the 2+3-1 threshold need not force period 1.
    w1 = "abab"    # period 2
    w2 = "babb"    # period 3
    # overlap "bab": w1[1:4] == w2[0:3], length 3 == 2+3-1-1
    assert w1[1:4] == w2[0:3]
    g = math.gcd(2, 3)
    assert len("bab") == 2 + 3 - g - 1
    assert not (has_period(w1, g) and has_period(w2, g))


def test_fine_wilf_sweep_small():
    # All suffix/prefix alignments for words up to length 7: every
    # hypothesis-met case concludes; short-by-one overlaps can fail.
    words = [""]
    for _ in range(7):
        words = words + [w + c for w in words if len(w) < 7 for c in "ab"]
    words = [w for w in words if w]
    periods = {w: [p for p in range(1, len(w) + 1) if has_period(w, p)]
               for w in words}
    boundary_failures = 0
    for w1 in words:
        for w2 in words:
            max_l = min(len(w1), len(w2))
            for length in range(1, max_l + 1):
                if w1[len(w1) - length:] != w2[:length]:
                    continue
                for p1 in periods[w1]:
                    for p2 in periods[w2]:
                        g = math.gcd(p1, p2)
                        need = p1 + p2 - g
                        if length >= need:
                            assert fine_wilf_check(
                                w1, p1, w2, p2,
                                (len(w1) - length, 0, length))
                        elif length == need - 1:
                            w3 = w1[:len(w1) - length] + w2
                            if not (has_period(w1, g) and has_period(w2, g)
                                    and has_period(w3, g)):
                                boundary_failures += 1
    assert boundary_failures > 0


# -- k-inversions -----------------------------------------------------------------

def test_k1_collapses_to_inversions(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("ab"))[0]
    bound = constants(t_copy_ab).bound_factored
    singles = list(enumerate_k_inversions(run, 1))
    invs = inversions_of(run)
    assert singles == [(inv,) for inv in invs]
    for chain in singles:
        assert k_inversion_safe(run, bound, chain) == \
            period_report(run, chain[0], bound).safe


def test_chain_anchor_ordering(t_copy_ab):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    for first, second in enumerate_k_inversions(run, 2):
        assert first.kind == INVERSION
        assert second.kind == CO_INVERSION
        assert run.index_of(first.second.anchor) <= \
            run.index_of(second.first.anchor)


def test_safety_monotone_under_safe_extension(t_copy_abc):
    run = enumerate_runs(t_copy_abc, t_copy_abc.parse_input_text("abcabc"))[0]
    bound = constants(t_copy_abc).bound_factored
    chains2 = list(enumerate_k_inversions(run, 2))
    for chain in chains2:
        if k_inversion_safe(run, bound, chain[:1]):
            assert k_inversion_safe(run, bound, chain)


# -- the chain search against the exhaustive depth-first search --------------------

def _triples(chains):
    return [[(m.kind, m.first, m.second) for m in chain] for chain in chains]


def test_chains_match_brute_force_exhaustive(fixtures):
    for name in FIXTURE_NAMES:
        for raw, runs in domain_words(fixtures[name], 5):
            for run in runs:
                for k in range(1, 5):
                    assert _triples(enumerate_k_inversions(run, k)) == \
                        _triples(brute_k_inversions(run, k)), (name, raw, k)


# Longest random word per fixture for k = 2 and k = 3: the oracle tries
# every member at every depth, so these keep it under about a second.
CHAIN_WORD_MAX = {"T_ID": (20, 20), "T_COPY_ABC": (15, 12),
                  "T_COPY_AB": (8, 6), "T_MIRROR": (9, 9),
                  "T_RUNNING": (20, 20), "T_ZIGZAG": (20, 20),
                  "T_THREECOMP": (7, 5)}


@st.composite
def chain_cases(draw):
    name = draw(st.sampled_from(FIXTURE_NAMES))
    k = draw(st.sampled_from((2, 3)))
    t = load_fixture(name)
    longest = CHAIN_WORD_MAX[name][k - 2]
    if name == "T_COPY_ABC":        # its domain is (abc)*
        word = "abc" * draw(st.integers(0, longest // 3))
    else:
        alphabet = sorted(t.table.encode_symbol(s) for s in t.input_symbols)
        word = "".join(draw(st.lists(st.sampled_from(alphabet),
                                     max_size=longest)))
    return t, word, k


@given(chain_cases())
@settings(max_examples=60, deadline=None)
def test_chains_match_brute_force_random(case):
    t, word, k = case
    for run in enumerate_runs(t, word):
        assert _triples(enumerate_k_inversions(run, k)) == \
            _triples(brute_k_inversions(run, k))


def _until_cap(chains):
    got = []
    with pytest.raises(CapExceeded):
        for chain in chains:
            got.append(chain)
    return _triples(got)


@pytest.mark.parametrize("k,cap", [(1, 0), (1, 5), (2, 7), (2, 100)])
def test_chain_cap_raises_at_the_same_chain(t_copy_ab, k, cap):
    run = enumerate_runs(t_copy_ab, t_copy_ab.parse_input_text("abab"))[0]
    assert len(list(brute_k_inversions(run, k))) > cap
    got = _until_cap(enumerate_k_inversions(run, k, cap=cap))
    assert len(got) == cap
    assert got == _until_cap(brute_k_inversions(run, k, cap=cap))
