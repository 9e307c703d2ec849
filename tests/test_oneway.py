import random

import pytest
from hypothesis import given, settings, strategies as st

import untwist.effects
import untwist.oneway
import untwist.runs
from untwist.decomposition import (DIAGONAL, Decomposition, Piece,
                                   build_decomposition, is_diagonal)
from untwist.oneway import (FunctionalityError, MemberRecord,
                            RefutationCertificate, _replay_decomposition,
                            certificate_text, decide_oneway_bounded,
                            decide_sweeping_bounded, parse_certificate,
                            simulate_oneway, verify_certificate)
from untwist.runs import CapExceeded, InternalInconsistencyError, \
    dump_run, enumerate_runs, parse_run_dump
from untwist.transducer import (Transducer, Transition,
                                check_functional_bounded, parse_transducer,
                                words_upto)

from .conftest import CORE_NAMES, FIXTURE_DIR, domain_words, load_fixture, \
    spy


def test_simulate_copy_abc(t_copy_abc):
    res = simulate_oneway(t_copy_abc, t_copy_abc.parse_input_text("abcabc"))
    assert res.present
    assert t_copy_abc.table.render(res.output) == "abcabcabcabc"
    positions = [e.position for e in res.transcript]
    assert positions == sorted(positions)


def test_loop_factors_are_built_once(t_copy_abc, monkeypatch):
    # Each loop's factors are merged once, for its effect; its components
    # read them off the flow's edges.
    effects_calls = spy(monkeypatch, untwist.effects, "effect_of_interval")
    factor_calls = []
    orig = untwist.runs.Run.intercepted_factors

    def recorded(run, x1, x2):
        factor_calls.append((x1, x2))
        return orig(run, x1, x2)
    monkeypatch.setattr(untwist.runs.Run, "intercepted_factors", recorded)
    res = simulate_oneway(t_copy_abc,
                          t_copy_abc.parse_input_text("abc" * 16))
    assert res.present
    assert len(effects_calls) > 0
    assert len(factor_calls) == len(effects_calls)


def test_replay_checks_raise(t_running, t_id):
    # Raised, not asserted, so the checks also hold under python -O.
    run = enumerate_runs(t_running,
                         t_running.parse_input_text("b#abcabc#ca#abcabc"))[0]
    d = build_decomposition(run, 10 ** 6).decomposition
    k, block = next((k, p) for k, p in enumerate(d.pieces) if p.block)
    wrong = block._replace(block=block.block._replace(pattern="cab"))
    pieces = d.pieces[:k] + (wrong,) + d.pieces[k + 1:]
    with pytest.raises(InternalInconsistencyError, match="out of sync"):
        _replay_decomposition(run, Decomposition(pieces, d.bound))
    # A diagonal that stops before the output does: the replay falls short.
    run = enumerate_runs(t_id, t_id.parse_input_text("ab"))[0]
    start, end = run.locations[0], run.locations[1]
    ok, witness = is_diagonal(run, start, end, 10 ** 6)
    assert ok
    short = Decomposition((Piece(DIAGONAL, start, end, witness),), 10 ** 6)
    with pytest.raises(InternalInconsistencyError, match="diverged"):
        _replay_decomposition(run, short)


def test_simulate_copy_ab_witness_absent(t_copy_ab):
    res = simulate_oneway(t_copy_ab, t_copy_ab.parse_input_text("ab"))
    assert not res.present


def test_simulate_outside_domain_absent(t_copy_abc):
    res = simulate_oneway(t_copy_abc, t_copy_abc.parse_input_text("ab"))
    assert not res.present


def test_simulate_equals_run_output_small(fixtures):
    # Simulated output always matches the unique run output when present,
    # and is present whenever every run decomposes.
    from untwist.decomposition import build_decomposition
    from untwist.transducer import constants
    for name in CORE_NAMES:
        t = fixtures[name]
        bound = constants(t).bound_factored
        for raw, runs in domain_words(t, 4):
            res = simulate_oneway(t, raw)
            outs = {r.output for r in runs}
            if res.present:
                assert res.output in outs
            if all(build_decomposition(r, bound).decomposition is not None
                   for r in runs):
                assert res.present


def test_simulate_detects_functionality_violation():
    t = Transducer("two-out", ["x"], ["a", "b"], ["q0", "q1", "f"], "q0",
                   ["f"], [
        Transition("q0", "|-", "R", "q1", ("a",)),
        Transition("q0", "|-", "R", "q1", ("b",)),
        Transition("q1", "-|", "R", "f", ()),
    ])
    with pytest.raises(FunctionalityError) as exc:
        simulate_oneway(t, "")
    # The deciders' message: the first two outputs in run order.
    assert str(exc.value) == "input '' has outputs 'a' and 'b'" \
        == _witness_message(t, 0)


# -- multi-character alphabets ------------------------------------------------

def _renamed(t: Transducer, names: list[str]) -> Transducer:
    """`t` with its symbols renamed, in sorted order, to `names`."""
    new = dict(zip(sorted(set(t.input_symbols + t.output_symbols)), names))
    return Transducer(t.name, [new[s] for s in t.input_symbols],
                      [new[s] for s in t.output_symbols], t.states,
                      t.initial, t.finals,
                      [tr._replace(symbol=new.get(tr.symbol, tr.symbol),
                                   output=tuple(new[o] for o in tr.output))
                       for tr in t.transitions])


# Distinct symbol names of one to three characters, at least one of them
# longer than a character; enough for the fixture with the most symbols
# (eight).  Besides letters they use the characters that run-dump and
# certificate lines use as separators, but not the end markers.
SYMBOL_NAMES = st.lists(
    st.text("abxy/->:()[]#|", min_size=1, max_size=3).filter(
        lambda name: name not in ("|-", "-|")),
    min_size=8, max_size=8, unique=True).filter(
    lambda names: any(len(n) > 1 for n in names))


@pytest.mark.parametrize("name,passes", [
    ("T_COPY_AB", 1), ("T_MIRROR", 1), ("T_THREECOMP", 2)])
@given(names=SYMBOL_NAMES)
@settings(max_examples=15, deadline=None)
def test_dumps_and_certificates_round_trip_renamed(name, passes, names):
    t = _renamed(load_fixture(name), names)
    for raw in words_upto(t, 3):
        assert t.parse_input_text(t.table.render(raw)) == raw
        for run in enumerate_runs(t, raw):
            text = dump_run(run)
            assert dump_run(parse_run_dump(t, raw, text)) == text
    if passes == 1:
        v = decide_oneway_bounded(t, 3)
    else:
        v = decide_sweeping_bounded(t, passes, 3)
    assert v.kind == "refuted"
    text = certificate_text(v.certificate)
    cert = parse_certificate(text)
    assert certificate_text(cert) == text
    assert verify_certificate(t, cert)


# -- deciders ------------------------------------------------------------------

def test_decide_t_id_passes(t_id):
    v = decide_oneway_bounded(t_id, 6)
    assert v.kind == "no-counterexample"
    assert v.searched["inversions"] == 0


def test_decide_copy_ab_minimal_witness(t_copy_ab):
    v = decide_oneway_bounded(t_copy_ab, 10)
    assert v.kind == "refuted"
    assert v.certificate.input_text == "ab"     # minimal and canonical
    assert verify_certificate(t_copy_ab, v.certificate)


def test_decide_copy_abc_passes(t_copy_abc):
    v = decide_oneway_bounded(t_copy_abc, 6)
    assert v.kind == "no-counterexample"


def test_certificate_round_trip_and_stability(t_copy_ab):
    v1 = decide_oneway_bounded(t_copy_ab, 6)
    v2 = decide_oneway_bounded(t_copy_ab, 6)
    text1 = certificate_text(v1.certificate)
    text2 = certificate_text(v2.certificate)
    assert text1 == text2           # byte-identical across invocations
    cert = parse_certificate(text1)
    assert cert == v1.certificate
    assert verify_certificate(t_copy_ab, cert)


def _agreeing_index(word: str, p: int) -> int:
    """An index that is not a genuine mismatch for period p (or past the
    end, which the verifier must also reject)."""
    for i in range(len(word) - p):
        if word[i] == word[i + p]:
            return i
    return len(word)


def _mutate(cert: RefutationCertificate, rng: random.Random
            ) -> RefutationCertificate:
    rec = cert.members[0]
    choice = rng.randrange(7)
    if choice == 0:
        rec = MemberRecord(rec.kind, (rec.loop1[0] + 1, rec.loop1[1] + 1),
                           rec.levels1, rec.anchor1, rec.trace1, rec.loop2,
                           rec.levels2, rec.anchor2, rec.trace2, rec.word,
                           rec.mismatches)
    elif choice == 1:
        rec = MemberRecord(rec.kind, rec.loop1, rec.levels1,
                           (rec.anchor1[0], rec.anchor1[1] + 2), rec.trace1,
                           rec.loop2, rec.levels2, rec.anchor2, rec.trace2,
                           rec.word, rec.mismatches)
    elif choice == 2:
        rec = MemberRecord(rec.kind, rec.loop1, rec.levels1, rec.anchor1,
                           rec.trace1 + "a", rec.loop2, rec.levels2,
                           rec.anchor2, rec.trace2, rec.word, rec.mismatches)
    elif choice == 3:
        rec = MemberRecord(rec.kind, rec.loop1, rec.levels1, rec.anchor1,
                           rec.trace1, rec.loop2, rec.levels2, rec.anchor2,
                           rec.trace2, rec.word[960:] or rec.word[1:],
                           rec.mismatches)
    elif choice == 4:
        mism = tuple((p, _agreeing_index(rec.word, p))
                     for p, i in rec.mismatches)
        rec = MemberRecord(rec.kind, rec.loop1, rec.levels1, rec.anchor1,
                           rec.trace1, rec.loop2, rec.levels2, rec.anchor2,
                           rec.trace2, rec.word, mism)
    elif choice == 5:
        mism = rec.mismatches[1:] or ((99, 0),)
        rec = MemberRecord(rec.kind, rec.loop1, rec.levels1, rec.anchor1,
                           rec.trace1, rec.loop2, rec.levels2, rec.anchor2,
                           rec.trace2, rec.word, mism)
    else:
        return RefutationCertificate(cert.kind, cert.transducer_name,
                                     cert.digest, cert.input_text + "a",
                                     cert.run_dump, cert.members,
                                     cert.passes)
    return RefutationCertificate(cert.kind, cert.transducer_name,
                                 cert.digest, cert.input_text,
                                 cert.run_dump, (rec,) + cert.members[1:],
                                 cert.passes)


def test_certificate_mutations_rejected(t_copy_ab):
    cert = decide_oneway_bounded(t_copy_ab, 6).certificate
    rng = random.Random(99)
    rejected = 0
    for _ in range(10):
        bad = _mutate(cert, rng)
        assert not verify_certificate(t_copy_ab, bad)
        rejected += 1
    assert rejected == 10


def test_certificate_fails_after_state_renaming(t_copy_ab):
    cert = decide_oneway_bounded(t_copy_ab, 6).certificate
    renamed = parse_transducer(
        open("fixtures/T_COPY_AB.tdx").read().replace("p1", "z9"))
    assert not verify_certificate(renamed, cert)


def test_mismatch_index_shift_detected(t_copy_ab):
    cert = decide_oneway_bounded(t_copy_ab, 6).certificate
    rec = cert.members[0]
    shifted = MemberRecord(rec.kind, rec.loop1, rec.levels1, rec.anchor1,
                           rec.trace1, rec.loop2, rec.levels2, rec.anchor2,
                           rec.trace2, rec.word,
                           tuple((p, _agreeing_index(rec.word, p))
                                 for p, i in rec.mismatches))
    assert shifted.mismatches != rec.mismatches
    bad = RefutationCertificate(cert.kind, cert.transducer_name, cert.digest,
                                cert.input_text, cert.run_dump, (shifted,))
    assert not verify_certificate(t_copy_ab, bad)


# -- sweeping ------------------------------------------------------------------

def test_mirror_two_pass_no_counterexample(t_mirror):
    v = decide_sweeping_bounded(t_mirror, 2, 5)
    assert v.kind == "no-counterexample"


def test_mirror_one_pass_refuted(t_mirror):
    v = decide_sweeping_bounded(t_mirror, 1, 5)
    assert v.kind == "refuted"
    assert verify_certificate(t_mirror, v.certificate)


def test_copy_ab_two_pass_refuted(t_copy_ab):
    v = decide_sweeping_bounded(t_copy_ab, 2, 5)
    assert v.kind == "refuted"
    assert len(v.certificate.members) == 2
    assert verify_certificate(t_copy_ab, v.certificate)


def test_copy_ab_three_pass_vacuously_safe(t_copy_ab):
    # The fixture itself makes three sweeps, so its three-chains are safe.
    v = decide_sweeping_bounded(t_copy_ab, 3, 5)
    assert v.kind == "no-counterexample"


def test_k1_matches_oneway_on_fixtures(fixtures):
    for name in CORE_NAMES:
        t = fixtures[name]
        v1 = decide_oneway_bounded(t, 5)
        v2 = decide_sweeping_bounded(t, 1, 5)
        assert v1.kind == v2.kind
        if v1.kind == "refuted":
            assert v1.certificate.input_text == v2.certificate.input_text


def test_symbolic_passes_reports_bound_exceeded(t_id, monkeypatch):
    monkeypatch.setattr(untwist.oneway, "CAP_PASSES", 2)
    v = decide_sweeping_bounded(t_id, None, 3)
    assert v.kind == "bound-exceeded"
    assert "theoretical pass count" in v.note


def test_passes_above_cap_refused(t_id, monkeypatch):
    monkeypatch.setattr(untwist.oneway, "CAP_PASSES", 4)
    v = decide_sweeping_bounded(t_id, 99, 3)
    assert v.kind == "bound-exceeded"
    assert "exceeds cap" in v.note


def test_deciders_reject_negative_max_len(t_id):
    for decide in (lambda: decide_oneway_bounded(t_id, -1),
                   lambda: decide_sweeping_bounded(t_id, 2, -1),
                   lambda: decide_sweeping_bounded(t_id, 99, -1),
                   lambda: decide_sweeping_bounded(t_id, None, -1)):
        with pytest.raises(ValueError, match="max_len must be non-negative"):
            decide()


def test_decider_rejects_nonfunctional():
    t = Transducer("two-out", ["x"], ["a", "b"], ["q0", "q1", "f"], "q0",
                   ["f"], [
        Transition("q0", "|-", "R", "q1", ("a",)),
        Transition("q0", "|-", "R", "q1", ("b",)),
        Transition("q1", "-|", "R", "f", ()),
    ])
    with pytest.raises(FunctionalityError):
        decide_oneway_bounded(t, 2)


# -- functionality inside the scan ---------------------------------------------

def _copy_ab_nonfunctional_from(n: int) -> Transducer:
    """T_COPY_AB plus a silent one-way branch that accepts the words of
    length >= n: refuted at ab, and non-functional only from length n on."""
    text = (FIXTURE_DIR / "T_COPY_AB.tdx").read_text()
    text = text.replace("transducer T_COPY_AB", "transducer T_COPY_AB_LATE")
    states = [f"n{i}" for i in range(n + 1)]
    text = text.replace("states p1 rw p2 fin",
                        "states p1 rw p2 fin " + " ".join(states))
    lines = ['t p1 |- R n0 ""', f't n{n} -| R fin ""']
    for i in range(n + 1):
        for letter in "ab":
            lines.append(f't n{i} {letter} R n{min(i + 1, n)} ""')
    return parse_transducer(text + "\n".join(lines) + "\n")


def _witness_message(t: Transducer, max_len: int) -> str:
    kind, word, out1, out2 = check_functional_bounded(t, max_len)
    assert kind == "witness"
    return f"input {word!r} has outputs {out1!r} and {out2!r}"


@pytest.mark.parametrize("decide", [
    lambda t, n, **kw: decide_oneway_bounded(t, n, **kw),
    lambda t, n, **kw: decide_sweeping_bounded(t, 2, n, **kw),
], ids=["oneway", "sweeping"])
def test_later_nonfunctional_input_beats_refutation(decide):
    t = _copy_ab_nonfunctional_from(3)
    v = decide(t, 2)
    assert v.kind == "refuted"
    assert v.certificate.input_text == "ab"
    assert verify_certificate(t, v.certificate)
    with pytest.raises(FunctionalityError) as exc:
        decide(t, 4)
    assert str(exc.value) == _witness_message(t, 4)
    # A run-cap overflow at a later input beats the refutation too.
    assert decide(t, 2, cap_runs=1).kind == "refuted"
    with pytest.raises(CapExceeded, match="run cap 1 exceeded"):
        decide(t, 3, cap_runs=1)


def test_later_nonfunctional_input_beats_chain_cap(monkeypatch):
    t = _copy_ab_nonfunctional_from(3)
    monkeypatch.setattr(untwist.oneway, "CAP_CHAINS", 0)
    with pytest.raises(CapExceeded, match="k-inversion cap 0 exceeded"):
        decide_sweeping_bounded(t, 2, 2)
    with pytest.raises(FunctionalityError) as exc:
        decide_sweeping_bounded(t, 2, 3)
    assert str(exc.value) == _witness_message(t, 3)


def test_deciders_enumerate_each_input_once(t_copy_ab, monkeypatch):
    # Each decider draws every input, in words_upto order, from one
    # runs_upto call, and never enumerates a word on its own.
    single = spy(monkeypatch, untwist.runs, "enumerate_runs")
    shared = spy(monkeypatch, untwist.runs, "runs_upto")
    recorded, inputs = untwist.oneway.runs_upto, []

    def draining(*args, **kwargs):
        for raw, runs in recorded(*args, **kwargs):
            inputs.append(raw)
            yield raw, runs
    monkeypatch.setattr(untwist.oneway, "runs_upto", draining)
    v = decide_oneway_bounded(t_copy_ab, 9)
    assert v.kind == "refuted"
    assert v.searched == {"inputs": 5, "runs": 5, "inversions": 7}
    assert [args[1] for args in shared] == [9]
    assert inputs == list(words_upto(t_copy_ab, 9))
    shared.clear()
    inputs.clear()
    v = decide_sweeping_bounded(t_copy_ab, 2, 6)
    assert v.kind == "refuted"
    assert [args[1] for args in shared] == [6]
    assert inputs == list(words_upto(t_copy_ab, 6))
    assert single == []
