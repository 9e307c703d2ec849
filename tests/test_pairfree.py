"""The pair-free periodicity check and coverage classes against the list
versions in `tests/oracles.py`, which scan the run's inversion list pair by
pair: the same first unsafe inversion, the same report, and the same
classes with their chains and anchors."""
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from untwist.decomposition import coverage_classes
from untwist.inversions import (INVERSION, AnchoredComponent, Inversion,
                                first_unsafe_inversion, inversions_of,
                                multi_pass_components, period_report)
from untwist.loops import Loop
from untwist.runs import enumerate_runs
from untwist.transducer import constants

from .conftest import FIXTURE_DIR, FIXTURE_NAMES, domain_words
from .oracles import (brute_inversions, list_coverage_classes,
                      list_first_unsafe_inversion)
from .test_inversions import fixture_words

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _assert_matches_lists(run, bounds) -> int:
    anchored = multi_pass_components(run)
    invs = inversions_of(run)
    assert coverage_classes(run, anchored) == list_coverage_classes(run, invs)
    for bound in bounds:
        assert first_unsafe_inversion(run, bound, anchored) == \
            list_first_unsafe_inversion(run, bound, invs), bound
    return len(invs)


def test_matches_lists_exhaustive(fixtures):
    pairs = runs = 0
    for name in FIXTURE_NAMES:
        t = fixtures[name]
        bounds = (constants(t).bound_factored, 1, 2, 3, 4)
        for raw, word_runs in domain_words(t, 5 if name == "T_RUNNING" else 6):
            for run in word_runs:
                pairs += _assert_matches_lists(run, bounds)
                runs += 1
    assert runs == 1763 and pairs > 0


@given(fixture_words(), st.sampled_from([None, 1, 2, 3, 4]))
@settings(max_examples=120, deadline=None)
def test_matches_lists_random(case, bound):
    t, word = case
    bounds = (constants(t).bound_factored if bound is None else bound,)
    for run in enumerate_runs(t, word):
        _assert_matches_lists(run, bounds)


def test_matches_lists_on_copies(t_copy_abc):
    bounds = (constants(t_copy_abc).bound_factored, 1, 2, 3, 4)
    for n in range(1, 33):
        run = enumerate_runs(t_copy_abc, "abc" * n)[0]
        assert _assert_matches_lists(run, bounds) > 0


# -- branches that only hand-made runs reach -----------------------------------

class StubRun:
    """The parts of a run the checks read, for anchors given in run order;
    the k-th anchor sits at output offset offsets[k]."""

    def __init__(self, output, anchors, offsets, omega=8):
        self.output = output
        self.locations = list(anchors)
        self.index_of = {loc: k for k, loc in enumerate(anchors)}.__getitem__
        self.out_prefix = list(offsets)
        self.word = type("Word", (), {"omega": omega})

    def output_between(self, i, j):
        return self.output[self.out_prefix[i]:self.out_prefix[j]]


def component(x1, x2, anchor, trace):
    comp = type("Comp", (), {"anchor": anchor})
    return AnchoredComponent(Loop(x1, x2, None, True), comp, trace)


def _check(run, anchored, unsafe):
    """The first unsafe pair is `unsafe` (positions, or None), as the list
    version finds it, and the classes match the list version's."""
    invs = brute_inversions(run, INVERSION, anchored)
    got = first_unsafe_inversion(run, 10 ** 6, anchored)
    assert got == list_first_unsafe_inversion(run, 10 ** 6, invs)
    if unsafe is None:
        assert got is None
    else:
        i, j = unsafe
        inv = Inversion(INVERSION, anchored[i], anchored[j])
        assert got == (inv, period_report(run, inv, 10 ** 6))
    classes = coverage_classes(run, anchored)
    assert classes == list_coverage_classes(run, invs)
    return classes


@pytest.mark.parametrize("output,trace_b,unsafe", [
    # "abc" + "a" + "abc" lacks period 3.
    ("abcabc", "abc", (0, 1)),
    # "abc" + "a" + "bca" has it.  b's root does not end at its anchor, and
    # in the second output a's root does not start at its own: only a long
    # window needs either.
    ("abcabc", "bca", None),
    ("axcabc", "bca", None),
])
def test_short_window_partner(output, trace_b, unsafe):
    # b's anchor is 1 < 3 output letters after a's: a short window.
    run = StubRun(output, [(3, 0), (2, 1)], [0, 1])
    anchored = [component(3, 5, (3, 0), "abc"),
                component(1, 2, (2, 1), trace_b)]
    (cls,) = _check(run, anchored, unsafe)
    assert (cls.start, cls.end, cls.anchors) == (0, 1, ((3, 0), (2, 1)))


@pytest.mark.parametrize("anchors,unsafe", [
    (((4, 1), (2, 2)), (0, 1)),     # xb <= xa: partners on one loop
    (((2, 0), (4, 1)), None),       # xb > xa: not partners
])
def test_same_loop_partner(anchors, unsafe):
    run = StubRun("abcabc", anchors, [0, 3])
    anchored = [component(2, 4, anchors[0], "ab"),
                component(2, 4, anchors[1], "abc")]
    classes = _check(run, anchored, unsafe)
    if unsafe is None:
        assert classes == []
    else:
        (cls,) = classes
        assert (cls.start, cls.end, cls.anchors) == (0, 1, anchors)
        assert cls.chain == (Inversion(INVERSION, *anchored),)


def test_same_loop_partner_reaches_farthest():
    # a's separated partner is at index 1, its partner on its own loop at
    # index 2: the class reaches 2 through the latter.
    run = StubRun("abcabcabc", [(4, 1), (1, 0), (2, 2)], [0, 3, 6])
    anchored = [component(2, 4, (4, 1), "abc"),
                component(1, 2, (1, 0), "abc"),
                component(2, 4, (2, 2), "abc")]
    (cls,) = _check(run, anchored, None)
    assert (cls.start, cls.end) == (0, 2)
    assert cls.chain == (Inversion(INVERSION, anchored[0], anchored[2]),)


# -- long words ----------------------------------------------------------------

def test_long_copy_runs_in_bounded_memory():
    # |u| = 192: 6.1 M inversion pairs, which no longer get listed.
    # The peak is the child's own VmHWM: getrusage's ru_maxrss keeps the
    # parent's peak across fork and exec, so it would read pytest's memory.
    machine = str(FIXTURE_DIR / "T_COPY_ABC.tdx")
    code = (
        "from untwist.cli import run_cli\n"
        f"code = run_cli(['simulate-oneway', {machine!r}, '--input', "
        "'abc' * 64])\n"
        "with open('/proc/self/status') as f:\n"
        "    hwm = next(l.split()[1] for l in f if l.startswith('VmHWM:'))\n"
        "print(code, hwm)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.splitlines()
    assert out[0] == f'output: "{"abc" * 128}"'
    code, peak_kb = map(int, out[1].split())
    assert code == 0
    assert peak_kb < 100 * 1024
