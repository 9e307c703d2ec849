import hashlib
import random
import sys

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
from untwist.loops import components_of, enumerate_loops, pump
from untwist.inversions import enumerate_k_inversions
from untwist.runs import CapExceeded, InternalInconsistencyError, \
    dump_run, enumerate_runs, parse_run_dump, validate_run
from untwist.transducer import (Transducer, Transition,
                                check_functional_bounded, constants,
                                parse_transducer, serialize_transducer)

from .conftest import CORE_NAMES, FIXTURE_DIR, FIXTURE_NAMES, domain_words, \
    load_fixture, spy
from .oracles import (brute_decide, naive_runs, per_run_first_unsafe_run,
                      predicted_pump_output, run_signature, words_upto)
from .test_transducer import transducers


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


def _block_entries_by_subrun(run, piece):
    """A block piece's transcript entries, each cut's prefix length taken
    as the length of `subrun_output` up to that cut."""
    i1, i2 = run.index_of(piece.start), run.index_of(piece.end)
    x1, x2 = piece.start[0], piece.end[0]
    w = run.output_between(i1, i2)
    marks = [(x1, len(run.subrun_output(i1, i2, 0, x1)), "block entry")]
    marks += [(x, len(run.subrun_output(i1, i2, 0, x)), "block step")
              for x in range(x1 + 1, x2 + 1)]
    entries, done = [], 0
    for x, target, note in marks + [(x2, len(w), "block exit")]:
        if target > done:
            entries.append((x, w[done:target], note))
            done = target
    return entries


@pytest.mark.parametrize("name,word", [
    *(("T_COPY_ABC", "abc" * n) for n in (2, 3, 7, 40)),
    ("T_RUNNING", "b#abcabc#ca#abcabc"), ("T_RUNNING", "abcabc#ab#abc"),
    # T_MIRROR writes on its left moves.
    ("T_MIRROR", "aa"), ("T_MIRROR", "a" * 9),
])
def test_block_transcript_matches_subrun_lengths(name, word):
    # The replay sums each cut's block prefix in one pass over the steps.
    t = load_fixture(name)
    res = simulate_oneway(t, t.parse_input_text(word))
    run = enumerate_runs(t, t.parse_input_text(word))[res.run_index]
    expected = [e for p in res.decomposition.pieces if p.block
                for e in _block_entries_by_subrun(run, p)]
    assert expected
    assert [tuple(e) for e in res.transcript
            if e.note.startswith("block")] == expected


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


def test_pumping_the_loops_a_certificate_names(fixtures):
    # Pumping an inversion's loop iterates each of its components' traces:
    # the paper's argument that a refutation is sound, checked on each
    # certificate the deciders write at the golden lengths.  `pump` walks
    # the repeated cells without the machine, so the pumped run must also
    # be one that a search of the pumped word's configurations finds.
    pumps = 0
    for name in FIXTURE_NAMES:
        t = fixtures[name]
        for bound in (None, 1):
            for v in (decide_oneway_bounded(t, 5, bound=bound),
                      decide_sweeping_bounded(t, 2, 4, bound=bound),
                      decide_sweeping_bounded(t, 3, 5, bound=bound)):
                if v.certificate is None:
                    continue
                cert = parse_certificate(certificate_text(v.certificate))
                run = parse_run_dump(t, t.parse_input_text(cert.input_text),
                                     cert.run_dump)
                loops = {l.interval: l for l in enumerate_loops(run)}
                for rec in cert.members:
                    for loop in (loops[rec.loop1], loops[rec.loop2]):
                        comps = components_of(run, loop)
                        for copies in (2, 3):
                            word, pumped = pump(t, run, loop, copies)
                            assert validate_run(t, word, pumped)
                            assert run_signature(pumped) in \
                                naive_runs(t, word)
                            assert pumped.output == predicted_pump_output(
                                run, loop, comps, copies - 1)
                            pumps += 1
    assert pumps == 64


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


@pytest.mark.parametrize("lean", [True, False])
def test_digest_is_sha256_of_the_machine_text(fixtures, monkeypatch, lean):
    # Computed by the interpreter's built-in module where one imports, and
    # by hashlib where none does; the digest is the same either way.
    if not lean:
        for name in ("_sha256", "_sha2"):
            monkeypatch.setitem(sys.modules, name, None)
    for t in fixtures.values():
        text = serialize_transducer(t).encode()
        assert untwist.oneway.transducer_digest(t) == \
            hashlib.sha256(text).hexdigest()


def test_certificate_fails_under_another_name(t_copy_ab):
    # The digest covers the machine's name, so a certificate whose name
    # line disagrees with its digest contradicts itself.
    cert = decide_oneway_bounded(t_copy_ab, 6).certificate
    assert verify_certificate(t_copy_ab, cert)
    assert not verify_certificate(t_copy_ab,
                                  cert._replace(transducer_name="NOPE"))


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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_deciders_match_oracle_scan(fixtures, name):
    """Both deciders against a scan of every word's runs and chains, under
    the symbolic bound and under bounds 1 and 2: the verdict, the refuting
    input, each member's loops, anchors and traces, and the counters."""
    t = fixtures[name]
    render = t.table.render
    max_len = 3 if name == "T_RUNNING" else 4
    for bound in (constants(t).bound_factored, 1, 2):
        for k in (1, 2, 3):
            if k == 1:
                v = decide_oneway_bounded(t, max_len, bound=bound)
            else:
                v = decide_sweeping_bounded(t, k, max_len, bound=bound)
            chain, raw, searched = brute_decide(t, k, max_len, bound)
            assert dict(v.searched) == searched, (bound, k)
            if chain is None:
                assert (v.kind, v.certificate) == ("no-counterexample", None)
                continue
            assert v.kind == "refuted", (bound, k)
            assert v.certificate.input_text == render(raw)
            assert [(m.kind, m.loop1, m.anchor1, m.trace1,
                     m.loop2, m.anchor2, m.trace2)
                    for m in v.certificate.members] == \
                [(inv.kind, inv.first.loop.interval, inv.first.anchor,
                  render(inv.first.trace_output), inv.second.loop.interval,
                  inv.second.anchor, render(inv.second.trace_output))
                 for inv in chain], (bound, k)


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


def _drawn_inputs(monkeypatch, t: Transducer, decide) -> tuple:
    """The verdict of `decide(t)`, the inputs it draws from `arrivals_upto`,
    in order, and the max_len of each `arrivals_upto` call."""
    with monkeypatch.context() as m:
        shared = spy(m, untwist.runs, "arrivals_upto")
        recorded, inputs = untwist.oneway.arrivals_upto, []

        def draining(*args, **kwargs):
            for raw, arrivals, count in recorded(*args, **kwargs):
                inputs.append(raw)
                yield raw, arrivals, count
        m.setattr(untwist.oneway, "arrivals_upto", draining)
        v = decide(t)
    return v, inputs, [args[1] for args in shared]


def test_deciders_enumerate_each_input_once(t_copy_ab, monkeypatch):
    # Each decider draws its inputs, in words_upto order, from one
    # arrivals_upto call, and never enumerates a word on its own.  On the
    # deterministic T_COPY_AB no later input can be non-functional, so the
    # search stops at the refutation on ab; with two rewinds, each word has
    # two runs and every word up to max_len is drawn.
    single = spy(monkeypatch, untwist.runs, "enumerate_runs")
    for decide, max_len, searched in (
            (lambda t: decide_oneway_bounded(t, 9), 9,
             {"inputs": 5, "runs": 5, "inversions": 7}),
            (lambda t: decide_sweeping_bounded(t, 2, 6), 6,
             {"inputs": 5, "runs": 5, "chains": 4})):
        v, inputs, calls = _drawn_inputs(monkeypatch, t_copy_ab, decide)
        assert (v.kind, v.certificate.input_text) == ("refuted", "ab")
        assert v.searched == searched
        assert (inputs, calls) == (["", "a", "b", "aa", "ab"], [max_len])
        t = _copy_ab_two_rewinds()
        _, inputs, calls = _drawn_inputs(monkeypatch, t, decide)
        assert (inputs, calls) == (list(words_upto(t, max_len)), [max_len])
    assert single == []


@pytest.mark.parametrize("name,max_len,inputs,built", [
    ("T_RUNNING", 7, 21845, 568), ("T_ID", 6, 127, 0)])
def test_deciders_build_runs_only_where_an_inversion_can_be(
        name, max_len, inputs, built, monkeypatch):
    # No fixture word has two runs, so one Run is built per arrival that
    # may invert (see `Arrival.may_invert`) and whose skeleton has not been
    # found chain-free before, and none for the others.
    runs, init = [], untwist.runs.Run.__init__

    def counted(run, *args):
        runs.append(run)
        init(run, *args)
    monkeypatch.setattr(untwist.runs.Run, "__init__", counted)
    v = decide_oneway_bounded(load_fixture(name), max_len)
    assert v.kind == "no-counterexample"
    assert v.searched["inputs"] == v.searched["runs"] == inputs
    assert len(runs) == built


def _copy_ab_two_rewinds() -> Transducer:
    """T_COPY_AB with its rewind duplicated: every word in the domain has
    two runs, which agree on the output."""
    text = (FIXTURE_DIR / "T_COPY_AB.tdx").read_text()
    text = text.replace("transducer T_COPY_AB", "transducer T_COPY_AB_TWICE")
    text = text.replace("states p1 rw p2 fin", "states p1 rw p2 fin rw2")
    return parse_transducer(text + 't p1 -| L rw2 ""\nt rw2 a L rw2 ""\n'
                            't rw2 b L rw2 ""\nt rw2 |- R p2 ""\n')


def test_functional_machine_with_two_runs_per_word(t_copy_ab):
    t = _copy_ab_two_rewinds()
    assert all(len(runs) == 2 for _, runs in domain_words(t, 4))
    assert check_functional_bounded(t, 6) == ("functional-up-to", 6)
    for text in ("", "aa", "ab"):
        raw = t.parse_input_text(text)
        assert simulate_oneway(t, raw).output \
            == simulate_oneway(t_copy_ab, raw).output
    for decide in (decide_oneway_bounded,
                   lambda t, n: decide_sweeping_bounded(t, 2, n)):
        v, expected = decide(t, 9), decide(t_copy_ab, 9)
        assert v == expected._replace(certificate=v.certificate)
        assert v.certificate.input_text == expected.certificate.input_text
        assert verify_certificate(t, v.certificate)
        # Both runs of each earlier input are searched, then the first run
        # on ab refutes.
        assert v.searched["inputs"] == expected.searched["inputs"] == 5
        assert v.searched["runs"] == 9


# -- chain-free skeletons and the early stop -----------------------------------

def test_deterministic_machines():
    assert all(load_fixture(name).deterministic for name in FIXTURE_NAMES)
    assert not _copy_ab_two_rewinds().deterministic
    assert not _copy_ab_nonfunctional_from(3).deterministic


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_deterministic_machines_have_one_run_per_word(t):
    if t.deterministic:
        assert all(len(arrivals) <= 1
                   for _, arrivals, _ in untwist.runs.arrivals_upto(t, 4))


# (decider, max_len) at the golden corpus's lengths: k = 1 through the
# one-way decider and through the sweeping one, then k = 2, 3 and the
# symbolic pass count.
_DECIDERS = (
    (lambda t, n: decide_oneway_bounded(t, n), 5),
    (lambda t, n: decide_sweeping_bounded(t, 1, n), 5),
    (lambda t, n: decide_sweeping_bounded(t, 2, n), 4),
    (lambda t, n: decide_sweeping_bounded(t, 3, n), 5),
    (lambda t, n: decide_sweeping_bounded(t, None, n), 4),
)


def _outcome(decide) -> tuple:
    """The verdict with its counters, or the exception's type and text."""
    try:
        v = decide()
    except (FunctionalityError, CapExceeded) as exc:
        return type(exc), str(exc)
    return v, dict(v.searched)


def _assert_matches_per_run_search(t: Transducer, max_len=None) -> None:
    for decide, n in _DECIDERS:
        n = n if max_len is None else max_len
        ours = _outcome(lambda: decide(t, n))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(untwist.oneway, "_first_unsafe_run",
                      per_run_first_unsafe_run)
            assert _outcome(lambda: decide(t, n)) == ours, n


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_deciders_match_per_run_search(name):
    """The verdict, its certificate (the refuting input, run and chain) and
    the counters, against the search that analyses every flagged run and
    always scans on to max_len."""
    _assert_matches_per_run_search(load_fixture(name))


@pytest.mark.parametrize("max_len", [2, 3])
def test_deciders_match_per_run_search_on_late_witnesses(max_len):
    for t in (_copy_ab_two_rewinds(), _copy_ab_nonfunctional_from(3)):
        _assert_matches_per_run_search(t, max_len)


def test_chain_cap_on_a_deterministic_machine_matches_per_run_search(
        t_copy_ab, monkeypatch):
    # The scan stops at the chain-cap CapExceeded as at a refutation.
    monkeypatch.setattr(untwist.oneway, "CAP_CHAINS", 0)
    with pytest.raises(CapExceeded, match="k-inversion cap 0 exceeded"):
        decide_sweeping_bounded(t_copy_ab, 2, 5)
    _assert_matches_per_run_search(t_copy_ab)


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_deciders_match_per_run_search_random(t):
    _assert_matches_per_run_search(t, 4)


def _assert_skeletons_fix_chain_freeness(t: Transducer, max_len: int) -> int:
    """Check that flagged arrivals with one skeleton agree, for k = 1..3,
    on whether any k-inversion chain exists; return how many arrivals
    shared a skeleton with an earlier one."""
    seen: dict[int, tuple[bool, ...]] = {}
    repeats = 0
    for raw, arrivals, _ in untwist.runs.arrivals_upto(t, max_len):
        for arrival in arrivals:
            if not arrival.may_invert:
                continue
            run = untwist.runs.Run(t, untwist.runs.DelimitedInput.of(raw),
                                   arrival.steps)
            has_chain = tuple(next(enumerate_k_inversions(run, k), None)
                              is not None for k in (1, 2, 3))
            key = arrival.skeleton
            repeats += key in seen
            assert seen.setdefault(key, has_chain) == has_chain, raw
    return repeats


@pytest.mark.parametrize("name,max_len,repeats", [
    ("T_ID", 6, 0), ("T_COPY_ABC", 6, 0), ("T_COPY_AB", 6, 120),
    ("T_MIRROR", 6, 120), ("T_RUNNING", 5, 164), ("T_ZIGZAG", 6, 0),
    ("T_THREECOMP", 6, 0)])
def test_skeletons_fix_chain_freeness(name, max_len, repeats):
    # T_ID flags no arrival, and the other machines with no repeat have
    # at most one word of each length in their domain.
    assert _assert_skeletons_fix_chain_freeness(
        load_fixture(name), max_len) == repeats


@given(transducers(max_transitions=12))
@settings(max_examples=60, deadline=None)
def test_skeletons_fix_chain_freeness_random(t):
    _assert_skeletons_fix_chain_freeness(t, 4)
