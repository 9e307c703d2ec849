"""Decomposition-driven one-way simulation, bounded deciders, certificates.

The simulator replays a decomposed run strictly left to right, emitting in
diagonal mode the output between consecutive witness locations (split into
the three bookkeeping classes a one-way machine would use: border
transitions, stored left words, guessed right words) and in block mode
prefixes of the almost-periodic output drawn from its periodic
representation.  Deciders scan all inputs up to a length bound and report
either a replayable refutation certificate or an explicitly bounded
no-counterexample verdict.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .bounds import PeriodBound, bound_admits, compare_on
from .decomposition import BLOCK, DIAGONAL, Decomposition, build_decomposition
from .inversions import (CO_INVERSION, INVERSION, AnchoredComponent,
                         Inversion, _pair_matches, enumerate_k_inversions,
                         inversion_safe, inversion_word, k_inversion_safe)
from .runs import (CapExceeded, DelimitedInput, InternalInconsistencyError,
                   Run, arrivals_upto, dump_run, dump_transitions,
                   enumerate_runs, is_normalized, output_conflict, replay)
from .transducer import Transducer, constants, serialize_transducer
from .effects import effect_of_interval, is_idempotent
from .loops import Loop, components_of, trace_of


class FunctionalityError(Exception):
    """The transducer produced two outputs for one input."""


def _check_functional(t: Transducer, raw: str, runs) -> None:
    """Raise FunctionalityError when the runs (or arrivals) on `raw`
    disagree on the output, naming the first two outputs in run order, as
    `check_functional_bounded` reports them."""
    conflict = output_conflict(runs)
    if conflict is not None:
        render = t.table.render
        raise FunctionalityError(
            f"input {render(raw)!r} has outputs {render(conflict[0])!r} "
            f"and {render(conflict[1])!r}")


class TranscriptEntry(NamedTuple):
    position: int
    text: str
    note: str


class SimulationResult(NamedTuple):
    output: Optional[str]               # encoded; None when absent
    transcript: tuple[TranscriptEntry, ...]
    run_index: Optional[int]
    decomposition: Optional[Decomposition]

    @property
    def present(self) -> bool:
        return self.output is not None


def _replay_decomposition(run: Run, d: Decomposition
                          ) -> tuple[str, tuple[TranscriptEntry, ...]]:
    out: list[str] = []
    transcript: list[TranscriptEntry] = []
    emitted = 0

    def emit(pos: int, text: str, note: str) -> None:
        nonlocal emitted
        if text:
            out.append(text)
            emitted += len(text)
            transcript.append(TranscriptEntry(pos, text, note))

    for piece in d.pieces:
        i1, i2 = run.index_of(piece.start), run.index_of(piece.end)
        x1, x2 = piece.start[0], piece.end[0]
        if piece.kind == DIAGONAL:
            witness = piece.witness
            emit(x1, run.output_between(i1, run.index_of(witness[0])),
                 "diagonal entry")
            for x in range(x1, x2):
                a = run.index_of(witness[x - x1])
                b = run.index_of(witness[x - x1 + 1])
                border = stored = guessed = 0
                for s in run.steps[a:b]:
                    ps, pt = s.source[0], s.target[0]
                    if ps in (x, x + 1) and pt in (x, x + 1):
                        border += len(s.output)
                    elif ps <= x and pt <= x:
                        stored += len(s.output)
                    else:
                        guessed += len(s.output)
                emit(x + 1, run.output_between(a, b),
                     f"diagonal step border={border} "
                     f"stored={stored} guessed={guessed}")
            emit(x2, run.output_between(run.index_of(witness[-1]), i2),
                 "diagonal exit")
        else:
            data = piece.block
            w = run.output_between(i1, i2)
            # The periodic representation must reproduce the output.
            pattern, n = data.pattern, len(data.mid)
            repeated = pattern * (n // max(len(pattern), 1) + 1)
            if data.head + repeated[:n] + data.tail != w:
                raise InternalInconsistencyError(
                    "block representation out of sync")
            done = 0

            def emit_upto(x: int, target: int, note: str) -> None:
                nonlocal done
                if target > done:
                    emit(x, w[done:target], note)
                    done = target

            lens = {x: len(run.subrun_output(i1, i2, 0, x))
                    for x in range(x1, x2 + 1)}
            emit_upto(x1, lens[x1], "block entry")
            for x in range(x1 + 1, x2 + 1):
                emit_upto(x, lens[x], "block step")
            emit_upto(x2, len(w), "block exit")

    positions = [e.position for e in transcript]
    if positions != sorted(positions):
        raise InternalInconsistencyError("transcript not left-to-right")
    text = "".join(out)
    if text != run.output:
        raise InternalInconsistencyError("replay diverged from the run output")
    return text, tuple(transcript)


def simulate_oneway(t: Transducer, raw: str, *, bound: PeriodBound = None,
                    cap_runs: int = 10**5) -> SimulationResult:
    """Output of the first decomposable run, produced by left-to-right replay.

    Absent when no successful run on the input admits a decomposition.
    """
    bound = constants(t).bound_factored if bound is None else bound
    runs = enumerate_runs(t, raw, cap_runs=cap_runs)
    _check_functional(t, raw, runs)
    for idx, run in enumerate(runs):
        outcome = build_decomposition(run, bound)
        if outcome.decomposition is not None:
            text, transcript = _replay_decomposition(run,
                                                     outcome.decomposition)
            return SimulationResult(text, transcript, idx,
                                    outcome.decomposition)
    return SimulationResult(None, (), None, None)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def transducer_digest(t: Transducer) -> str:
    import hashlib  # loads libcrypto; only certificates need it
    return hashlib.sha256(serialize_transducer(t).encode()).hexdigest()


class MemberRecord(NamedTuple):
    kind: str
    loop1: tuple[int, int]
    levels1: tuple[int, int]    # least and greatest level of the component
    anchor1: tuple[int, int]
    trace1: str
    loop2: tuple[int, int]
    levels2: tuple[int, int]
    anchor2: tuple[int, int]
    trace2: str
    word: str
    mismatches: tuple[tuple[int, int], ...]   # (divisor, failing index)


class RefutationCertificate(NamedTuple):
    kind: str                   # "oneway" | "sweeping"
    transducer_name: str
    digest: str
    input_text: str
    run_dump: str
    members: tuple[MemberRecord, ...]
    passes: int = 1


def _member_record(run: Run, inv: Inversion, bound: PeriodBound
                   ) -> MemberRecord:
    """The certificate record of an unsafe inversion: its members, its word,
    and the first mismatch of the word for each divisor p of both trace
    lengths that the bound admits, in increasing p."""
    table = run.transducer.table
    w = inversion_word(run, inv)
    g = math.gcd(len(inv.first.trace_output), len(inv.second.trace_output))
    mismatches = []
    for p in range(1, g + 1):
        if not bound_admits(bound, p):
            break
        if g % p == 0:
            bad = next(i for i in range(len(w) - p) if w[i] != w[i + p])
            mismatches.append((p, bad))
    return MemberRecord(
        inv.kind,
        inv.first.loop.interval,
        (inv.first.component.min_node, inv.first.component.max_node),
        inv.first.anchor, table.render(inv.first.trace_output),
        inv.second.loop.interval,
        (inv.second.component.min_node, inv.second.component.max_node),
        inv.second.anchor, table.render(inv.second.trace_output),
        table.render(w), tuple(mismatches))


def certificate_text(cert: RefutationCertificate) -> str:
    lines = [
        "untwist-certificate v1",
        f"kind: {cert.kind}",
        f"passes: {cert.passes}",
        f"transducer: {cert.transducer_name}",
        f"sha256: {cert.digest}",
        f'input: "{cert.input_text}"',
        "run:",
    ]
    lines += ["  " + ln for ln in cert.run_dump.rstrip("\n").split("\n")]
    for m, rec in enumerate(cert.members):
        lines.append(f"member {m}: {rec.kind}")
        for tag, loop, levels, anchor, trace in (
                ("1", rec.loop1, rec.levels1, rec.anchor1, rec.trace1),
                ("2", rec.loop2, rec.levels2, rec.anchor2, rec.trace2)):
            lines.append(
                f"  loop{tag}: [{loop[0]},{loop[1]}] levels "
                f"[{levels[0]},{levels[1]}] anchor ({anchor[0]},{anchor[1]})"
                f' trace "{trace}"')
        lines.append(f'  word: "{rec.word}"')
        lines.append("  mismatches:")
        for p, i in rec.mismatches:
            lines.append(f"    p={p} fail-at={i}")
    return "\n".join(lines) + "\n"


_BRACKETS = str.maketrans("[](),", "     ")


def parse_certificate(text: str) -> RefutationCertificate:
    """Parse a certificate: exactly the text `certificate_text` prints (LF
    line ends, a final newline, each header once and in order, quoted
    fields).  Other text raises ValueError naming its first line that
    differs from the reprint, and so do an unknown kind and a pass count
    below 1, or other than 1 for `oneway`."""
    lines = text.splitlines()
    if not lines or lines[0] != "untwist-certificate v1":
        raise ValueError("not an untwist certificate")
    i = lines.index("run:") if "run:" in lines else len(lines)
    fields: dict[str, str] = {}
    for line in lines[1:i]:
        key, _, value = line.partition(": ")
        fields.setdefault(key, value)
    i += 1
    dump_lines = []
    while i < len(lines) and lines[i].startswith("  "):
        dump_lines.append(lines[i][2:])
        i += 1
    if not dump_lines or not dump_lines[-1].startswith("output: "):
        raise ValueError("run block has no closing output line")
    members = []
    while i < len(lines):
        if not lines[i].startswith("member "):
            raise ValueError(f"unexpected line: {lines[i]!r}")
        if i + 4 >= len(lines):
            raise ValueError(f"truncated member block: {lines[i]!r}")
        sides: list = []
        for line in lines[i + 1:i + 3]:
            head, _, trace = line.partition(" trace ")
            _, x1, x2, _, y1, y2, _, ax, ay = head.translate(_BRACKETS).split()
            sides += [(int(x1), int(x2)), (int(y1), int(y2)),
                      (int(ax), int(ay)), trace[1:-1]]
        kind = lines[i].partition(": ")[2]
        word = lines[i + 3].partition(": ")[2][1:-1]
        i += 5
        mismatches = []
        while i < len(lines) and lines[i].startswith("    p="):
            p, _, at = lines[i][6:].partition(" fail-at=")
            mismatches.append((int(p), int(at)))
            i += 1
        members.append(MemberRecord(kind, *sides, word, tuple(mismatches)))
    cert = RefutationCertificate(
        fields.get("kind", ""), fields.get("transducer", ""),
        fields.get("sha256", ""), fields.get("input", "")[1:-1],
        "\n".join(dump_lines) + "\n", tuple(members),
        int(fields.get("passes", 0)))
    reprint = certificate_text(cert)
    if reprint != text:
        n, got, want = next(
            (n, got, want) for n, (got, want) in enumerate(
                zip(text.splitlines(True) + [""],
                    reprint.splitlines(True) + [""]), 1) if got != want)
        raise ValueError(f"certificate line {n} reads {got!r} where its "
                         f"reprint reads {want!r}")
    if cert.kind not in ("oneway", "sweeping"):
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    if cert.passes < 1:
        raise ValueError(f"passes '{cert.passes}' is not a positive integer")
    if cert.kind == "oneway" and cert.passes != 1:
        raise ValueError(f"a oneway certificate has 1 pass, not {cert.passes}")
    return cert


def verify_certificate(t: Transducer, cert: RefutationCertificate, *,
                       bound: PeriodBound = None) -> bool:
    """Full independent replay of a refutation certificate.

    A certificate whose digest or machine name is not `t`'s, or whose run
    or members do not check out, is invalid (False).  Each member's loops
    and components are re-derived from the replayed run, must form an
    unsafe inversion (or co-inversion) in chain order, and must then be
    recorded exactly as `_member_record` records it.  An input word or run
    dump that does not parse against `t` raises ValueError.  Only the replay
    of the dumped run may fail into "invalid": any other exception is a
    fault of the checker and propagates."""
    bound = constants(t).bound_factored if bound is None else bound
    if cert.digest != transducer_digest(t) or cert.transducer_name != t.name:
        return False
    raw = t.parse_input_text(cert.input_text) if cert.input_text else ""
    transitions = dump_transitions(t, cert.run_dump)
    try:
        run = replay(t, raw, transitions)
    except ValueError:
        return False
    # The dump must be the replayed run's own, and the run normalized.
    if dump_run(run) != cert.run_dump or not is_normalized(run):
        return False
    prev_second = None
    for m, rec in enumerate(cert.members):
        sides = []
        for (x1, x2), levels in ((rec.loop1, rec.levels1),
                                 (rec.loop2, rec.levels2)):
            if not (1 <= x1 < x2 <= run.word.omega - 1) \
                    or run.crossing(x1) != run.crossing(x2):
                return False
            e = effect_of_interval(run, x1, x2)
            if not is_idempotent(e):
                return False
            loop = Loop(x1, x2, e, True)
            # Component nodes are level intervals (`components_of` raises
            # otherwise), so the two ends name the component.
            comp = next((c for c in components_of(run, loop)
                         if (c.min_node, c.max_node) == levels), None)
            if comp is None:
                return False
            output = trace_of(run, comp)
            if not output:
                return False
            sides.append(AnchoredComponent(loop, comp, output))
        inv = Inversion(INVERSION if m % 2 == 0 else CO_INVERSION, *sides)
        if not _pair_matches(run, inv.kind, *sides):
            return False
        if prev_second is not None \
                and run.index_of(inv.first.anchor) < prev_second:
            return False
        prev_second = run.index_of(inv.second.anchor)
        # A safe member has a period and so no mismatch to record; an
        # unsafe one must be recorded exactly as `decide` records it.
        if inversion_safe(run, bound, inv) \
                or _member_record(run, inv, bound) != rec:
            return False
    return len(cert.members) == (1 if cert.kind == "oneway" else cert.passes)


# ---------------------------------------------------------------------------
# Deciders
# ---------------------------------------------------------------------------

@compare_on("kind", "max_len", "certificate", "note")
class Verdict(NamedTuple):
    """A decider's answer; the search counters stay out of == and hash."""

    kind: str                   # "refuted" | "no-counterexample" | "bound-exceeded"
    max_len: int
    certificate: Optional[RefutationCertificate] = None
    searched: Mapping[str, int] = MappingProxyType({})
    note: str = ""


def _first_unsafe_run(t: Transducer, max_len: int, cap_runs: int, k: int,
                      bound: PeriodBound, cap_chains: float, counter: str
                      ) -> tuple[Optional[tuple[str, Run, tuple[Inversion, ...]]],
                                 dict]:
    """The first run, in canonical order, with an unsafe k-inversion, with
    the run's input and the first such chain's members (None when there is
    none up to max_len), and the search counters; `counter` counts the
    chains checked.

    Every input is enumerated once, its runs shared across inputs with a
    common prefix; those that extend a prefix with no live crossing are
    counted at once.  A `Run` is built only for an arrival that may invert
    (every k-inversion starts with an inversion) and whose skeleton has not
    shown no chain before.  The skeleton fixes whether a chain exists:
    loops compare crossing states; flows (so idempotency), components,
    anchors and factor step ranges follow from the locations; a trace is
    empty when its factors' output lengths sum to 0; `_pair_matches` and
    the chain search compare anchors and their run order.  Only the period
    checks read letters.

    A non-functional input, or a run-cap CapExceeded, anywhere up to
    max_len beats a witness or a chain-cap CapExceeded, so after either the
    scan checks functionality up to max_len; on a deterministic machine
    with a run cap of at least 1, where each word has at most one run,
    neither can happen and the scan stops."""
    stats = {"inputs": 0, "runs": 0, counter: 0}
    chain_free: set[int] = set()
    found = held = None
    for raw, arrivals, count in arrivals_upto(t, max_len, cap_runs=cap_runs):
        _check_functional(t, raw, arrivals)
        if found is not None or held is not None:
            continue
        stats["inputs"] += count
        for arrival in arrivals:
            stats["runs"] += 1
            if not arrival.may_invert or arrival.skeleton in chain_free:
                continue
            run = Run(t, DelimitedInput.of(raw), arrival.steps)
            checked = stats[counter]
            try:
                for chain in enumerate_k_inversions(run, k, cap=cap_chains):
                    stats[counter] += 1
                    if not k_inversion_safe(run, bound, chain):
                        found = raw, run, chain
                        break
            except CapExceeded as exc:
                held = exc
            if found is not None or held is not None:
                break
            if stats[counter] == checked:
                chain_free.add(arrival.skeleton)
        if t.deterministic and cap_runs >= 1 and (found or held):
            break
    if held is not None:
        raise held
    return found, stats


def _certificate(kind: str, t: Transducer, raw: str, run: Run,
                 members: tuple[Inversion, ...], bound: PeriodBound,
                 passes: int = 1) -> RefutationCertificate:
    return RefutationCertificate(
        kind, t.name, transducer_digest(t), t.table.render(raw),
        dump_run(run), tuple(_member_record(run, inv, bound)
                             for inv in members), passes)


def decide_oneway_bounded(t: Transducer, max_len: int, *,
                          bound: PeriodBound = None,
                          cap_runs: int = 10**5) -> Verdict:
    """Refute one-way definability within the bound, or report honestly
    that no counterexample exists up to it (which is not a proof)."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    bound = constants(t).bound_factored if bound is None else bound
    # The one-pass chain search: a chain is one inversion, with no cap.
    found, stats = _first_unsafe_run(t, max_len, cap_runs, 1, bound,
                                     math.inf, "inversions")
    if found is None:
        return Verdict("no-counterexample", max_len, None, stats)
    return Verdict("refuted", max_len,
                   _certificate("oneway", t, *found, bound), stats)


# The sweeping decider's search limits: the largest pass number it
# enumerates, and the most k-inversion chains it lists on one run.
CAP_PASSES = 8
CAP_CHAINS = 10**6


def decide_sweeping_bounded(t: Transducer, passes: Optional[int],
                            max_len: int, *, bound: PeriodBound = None,
                            cap_runs: int = 10**5) -> Verdict:
    """Search for an unsafe k-inversion; passes=None asks about sweeping
    definability for the theoretical pass count, which is far beyond any
    enumerable k, so it reports bound-exceeded after a proxy search."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    bound = constants(t).bound_factored if bound is None else bound
    symbolic = passes is None
    if symbolic:
        c = constants(t)
        note = (f"theoretical pass count 2*{c.h_max}*(2^{3 * c.e_max}+1) "
                f"exceeds the enumeration cap {CAP_PASSES}; the proxy "
                f"search below bears on {CAP_PASSES}-pass definability only")
        passes = CAP_PASSES
    else:
        note = ""
        if passes < 1:
            raise ValueError("passes must be positive")
        if passes > CAP_PASSES:
            return Verdict("bound-exceeded", max_len, None, {},
                           f"passes {passes} exceeds cap {CAP_PASSES}")
    found, stats = _first_unsafe_run(t, max_len, cap_runs, passes, bound,
                                     CAP_CHAINS, "chains")
    if found is None:
        kind = "bound-exceeded" if symbolic else "no-counterexample"
        return Verdict(kind, max_len, None, stats, note)
    cert = _certificate("sweeping", t, *found, bound, passes)
    if symbolic:
        return Verdict("bound-exceeded", max_len, cert, stats,
                       note + "; the proxy search refuted "
                       f"{passes}-pass definability")
    return Verdict("refuted", max_len, cert, stats, note)
