import functools
import json
import os
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untwist import cli, loops, oneway
from untwist.cli import run_cli
from untwist.decomposition import InternalInconsistencyError
from untwist.runs import Run, dump_run, enumerate_runs

from .conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture, spy
from .test_golden import CERT_DIR

SCHEMA = {
    "type": "object",
    "required": ["command", "details"],
    "properties": {
        "command": {"type": "string"},
        "verdict": {"type": "string"},
        "result": {"type": "string"},
        "details": {"type": "object"},
    },
    "anyOf": [{"required": ["verdict"]}, {"required": ["result"]}],
}


def fx(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.tdx")


def invoke(capsys, *argv) -> tuple[int, str]:
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_roundtrip(capsys):
    code, out = invoke(capsys, "parse", fx("T_ID"))
    assert code == 0
    assert out.startswith("transducer T_ID")


def test_constants_text(capsys):
    code, out = invoke(capsys, "constants", fx("T_ID"))
    assert code == 0
    assert "h_max: 3" in out
    assert "2^12288" in out


def test_run_mirror(capsys):
    code, out = invoke(capsys, "run", fx("T_MIRROR"), "--input", "ab")
    assert code == 0
    assert 'output: "abba"' in out


def test_run_outside_domain_exit_2(capsys):
    code, out = invoke(capsys, "run", fx("T_COPY_ABC"), "--input", "ab")
    assert code == 2


def test_run_dump_runs(tmp_path, capsys):
    path = tmp_path / "runs.txt"
    code, _ = invoke(capsys, "run", fx("T_ID"), "--input", "ab",
                     "--dump-runs", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("run 0:\nstep 0:")
    assert 'output: "ab"' in text


def test_decide_oneway_refuted_exit_1(capsys):
    code, out = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                       "--max-len", "10")
    assert code == 1
    assert "untwist-certificate v1" in out


def test_decide_oneway_pass_exit_0(capsys):
    code, out = invoke(capsys, "decide", "oneway", fx("T_ID"),
                       "--max-len", "6")
    assert code == 0
    assert "no-counterexample up to 6" in out


def test_decide_sweeping(capsys):
    code, out = invoke(capsys, "decide", "sweeping", fx("T_MIRROR"),
                       "--max-len", "4", "--passes", "2")
    assert code == 0
    code, out = invoke(capsys, "decide", "sweeping", fx("T_MIRROR"),
                       "--max-len", "4", "--passes", "1")
    assert code == 1


def test_analyze_and_decompose(capsys):
    code, out = invoke(capsys, "analyze", fx("T_COPY_AB"), "--input", "ab")
    assert code == 0 and "unsafe" in out
    code, out = invoke(capsys, "decompose", fx("T_ID"), "--input", "ab")
    assert code == 0
    assert "piece 0" in out and "diagonal" in out
    code, out = invoke(capsys, "decompose", fx("T_COPY_AB"), "--input", "ab")
    assert code == 1


def test_simulate_cli(capsys):
    code, out = invoke(capsys, "simulate-oneway", fx("T_COPY_ABC"),
                       "--input", "abc")
    assert code == 0 and 'output: "abcabc"' in out
    code, out = invoke(capsys, "simulate-oneway", fx("T_COPY_AB"),
                       "--input", "ab")
    assert code == 2


def test_pump_cli(capsys):
    code, out = invoke(capsys, "pump", fx("T_COPY_ABC"), "--input", "abc",
                       "--copies", "2", "--idempotent")
    assert code == 0
    assert 'input "abcabc"' in out


def test_usage_error_exit_64(capsys):
    assert run_cli(["decide"]) == 64
    assert run_cli(["nonsense"]) == 64


def test_parse_error_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.tdx"
    bad.write_text("transducer x\ninput a\noutput a\nstates\ninitial q\n")
    assert run_cli(["parse", str(bad)]) == 65


# u -> uu over the multi-character symbols `aa` and `b`.
COPY_MULTI = """transducer COPY_MULTI
input aa b
output aa b
states p1 rw p2 fin
initial p1
final fin
t p1 |- R p1 ""
t p1 aa R p1 "aa"
t p1 b R p1 "b"
t p1 -| L rw ""
t rw aa L rw ""
t rw b L rw ""
t rw |- R p2 ""
t p2 aa R p2 "aa"
t p2 b R p2 "b"
t p2 -| R fin ""
"""


@pytest.mark.parametrize("alphabets,lineno", [
    ("input x,y b\noutput b", 2), ("input b\noutput x,y b", 3)])
def test_comma_in_symbol_exit_65(tmp_path, capsys, alphabets, lineno):
    # A symbol with a comma could not be told apart from two symbols in an
    # input word, a certificate or a run dump.
    path = tmp_path / "comma.tdx"
    path.write_text(f"transducer C\n{alphabets}\nstates q\ninitial q\n"
                    'final q\nt q |- R q ""\nt q b R q "b"\n'
                    't q -| R q ""\n')
    assert run_cli(["parse", str(path)]) == 65
    assert capsys.readouterr().err == \
        f"error: line {lineno}: symbol 'x,y' contains ','\n"


@pytest.mark.parametrize("alphabets,lineno,symbol", [
    ("input a \x02\noutput a", 2, "\x02"),
    ("input a\noutput a \x03", 3, "\x03"),
    ("input a x\x02y\noutput a", 2, "x\x02y")],
    ids=["input-stx", "output-etx", "stx-inside"])
def test_delimiter_character_in_symbol_exit_65(tmp_path, capsys, alphabets,
                                               lineno, symbol):
    # A one-character alphabet encodes each symbol as itself, and the end
    # markers are encoded as STX and ETX, so a symbol may contain neither.
    path = tmp_path / "delimiter.tdx"
    path.write_text(f"transducer C\n{alphabets}\nstates q\ninitial q\n"
                    'final q\nt q |- R q ""\nt q a R q "a"\n'
                    't q -| R q ""\n')
    assert run_cli(["parse", str(path)]) == 65
    assert capsys.readouterr().err == (f"error: line {lineno}: symbol "
                                       f"{symbol!r} is reserved for a "
                                       "delimiter\n")


@pytest.mark.parametrize("alphabets,lineno", [
    ('input b"\\#" b\noutput b', 2), ('input b\noutput b"\\#" b', 3)])
def test_quote_in_symbol_exit_65(tmp_path, capsys, alphabets, lineno):
    # A quote inside a symbol would close a quoted output or word early, so
    # the canonical text would not parse back.
    path = tmp_path / "quote.tdx"
    path.write_text(f"transducer C\n{alphabets}\nstates q\ninitial q\n"
                    'final q\nt q |- R q ""\nt q b R q "b"\n'
                    't q -| R q ""\n')
    assert run_cli(["parse", str(path)]) == 65
    assert capsys.readouterr().err == \
        f"error: line {lineno}: symbol 'b\"#\"' contains '\"'\n"


def test_refuted_length_counts_symbols(tmp_path, capsys):
    path = tmp_path / "copy_multi.tdx"
    path.write_text(COPY_MULTI)
    cert_path = tmp_path / "cert.txt"
    code, out = invoke(capsys, "decide", "oneway", str(path), "--max-len", "3",
                       "--cert", str(cert_path))
    assert code == 1
    assert out.startswith('refuted (|u| = 2)\n')
    assert 'input: "aa,b"' in out
    code, out = invoke(capsys, "verify-cert", str(path), "--cert",
                       str(cert_path))
    assert (code, out) == (0, "valid\n")


def test_refutation_over_mixed_symbol_lengths(tmp_path, capsys):
    # With one multi-character symbol in the alphabet, every word is written
    # comma-separated, also a word of one-character symbols, so the
    # certificate's input parses back.
    path = tmp_path / "copy_ab_cc.tdx"
    path.write_text((FIXTURE_DIR / "T_COPY_AB.tdx").read_text().replace(
        "\ninput a b\n", "\ninput a b cc\n"))
    cert_path = tmp_path / "cert.txt"
    code, out = invoke(capsys, "decide", "oneway", str(path), "--max-len", "2",
                       "--cert", str(cert_path))
    assert code == 1
    assert out.startswith('refuted (|u| = 2)\n')
    assert 'input: "a,b"' in out and '  output: "a,b,a,b"' in out
    code, out = invoke(capsys, "verify-cert", str(path), "--cert",
                       str(cert_path))
    assert (code, out) == (0, "valid\n")


@pytest.mark.parametrize("argv", [
    ("decompose", fx("T_ID"), "--input", "ab"),
    ("simulate-oneway", fx("T_ID"), "--input", "ab"),
])
def test_internal_inconsistency_exit_70(monkeypatch, capsys, argv):
    def inconsistent(run, bound):
        raise InternalInconsistencyError("gap (1,0)..(2,0) is not a diagonal")
    for module in (cli, oneway):
        monkeypatch.setattr(module, "build_decomposition", inconsistent)
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err == \
        "internal error: gap (1,0)..(2,0) is not a diagonal\n"


def test_unexpected_exception_exit_70(tmp_path, monkeypatch, capsys):
    # A fault in the checker is a bug, not an "invalid" certificate.
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "6", "--cert", str(cert_path))
    assert code == 1

    def broken(run, comp):
        raise AssertionError("checker bug")
    monkeypatch.setattr(oneway, "trace_of", broken)
    code = run_cli(["verify-cert", fx("T_COPY_AB"), "--cert", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: checker bug\n"


@pytest.mark.parametrize("argv", [
    ("decompose", fx("T_COPY_AB"), "--input", "ab", "--run-index", "3"),
    ("decompose", fx("T_COPY_AB"), "--input", "ab", "--run-index", "-1"),
    ("pump", fx("T_COPY_AB"), "--input", "ab", "--run-index", "3"),
    ("pump", fx("T_COPY_AB"), "--input", "ab", "--run-index", "-1"),
    ("decide", "oneway", fx("T_COPY_AB"), "--max-len", "-1"),
    ("decide", "sweeping", fx("T_COPY_AB"), "--max-len", "-1",
     "--passes", "2"),
    ("decide", "sweeping", fx("T_COPY_AB"), "--max-len", "-1",
     "--passes", "9"),
    ("decide", "sweeping", fx("T_COPY_AB"), "--max-len", "-1"),
    # A period bound below 1 admits no period, so it would refute every
    # machine that has an inversion, one-way definable or not.
    ("decide", "oneway", fx("T_COPY_ABC"), "--max-len", "6",
     "--period-bound", "0"),
    ("decide", "oneway", fx("T_COPY_ABC"), "--max-len", "6",
     "--period-bound", "-5"),
    ("decide", "sweeping", fx("T_COPY_ABC"), "--max-len", "4",
     "--passes", "2", "--period-bound", "0"),
    ("analyze", fx("T_COPY_ABC"), "--input", "abcabc", "--period-bound", "0"),
    ("decompose", fx("T_COPY_ABC"), "--input", "abcabc",
     "--period-bound", "0"),
    ("simulate-oneway", fx("T_COPY_ABC"), "--input", "abcabc",
     "--period-bound", "0"),
    # A negative cap is an argument error, not a cap that fires (exit 69).
    ("run", fx("T_COPY_AB"), "--input", "ab", "--cap-runs", "-1"),
])
def test_out_of_range_argument_exit_65(capsys, argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# The options each subcommand used to accept and then ignore.
@pytest.mark.parametrize("argv,option", [
    (("parse", fx("T_ID")), "--cap-runs"),
    (("parse", fx("T_ID")), "--cap-steps"),
    (("parse", fx("T_ID")), "--period-bound"),
    (("constants", fx("T_ID")), "--cap-runs"),
    (("constants", fx("T_ID")), "--cap-steps"),
    (("constants", fx("T_ID")), "--period-bound"),
    (("run", fx("T_ID"), "--input", "ab"), "--period-bound"),
    (("pump", fx("T_ID"), "--input", "ab"), "--period-bound"),
    (("simulate-oneway", fx("T_ID"), "--input", "ab"), "--cap-steps"),
    (("decide", "oneway", fx("T_ID"), "--max-len", "2"), "--cap-steps"),
    (("verify-cert", fx("T_ID"), "--cert", "missing.cert"), "--cap-runs"),
    (("verify-cert", fx("T_ID"), "--cert", "missing.cert"), "--cap-steps"),
    (("decide", "oneway", fx("T_ID"), "--max-len", "2"), "--passes"),
    # The step cap is gone everywhere: a normalized run is shorter than
    # (2|Q| - 1) times the number of cuts, so no cap could fire first.
    (("run", fx("T_ID"), "--input", "ab"), "--cap-steps"),
    (("analyze", fx("T_ID"), "--input", "ab"), "--cap-steps"),
    (("pump", fx("T_ID"), "--input", "ab"), "--cap-steps"),
    (("decompose", fx("T_ID"), "--input", "ab"), "--cap-steps"),
])
def test_unread_option_is_a_usage_error(capsys, argv, option):
    code = run_cli([*argv, option, "1"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"unrecognized arguments: {option} 1" in captured.err


def test_verify_cert_cli(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "6", "--cert", str(cert_path))
    assert code == 1
    code, out = invoke(capsys, "verify-cert", fx("T_COPY_AB"),
                       "--cert", str(cert_path))
    assert code == 0 and out.strip() == "valid"
    # Tamper: flip one mismatch line.
    text = cert_path.read_text().replace("fail-at=1", "fail-at=0")
    cert_path.write_text(text)
    code, out = invoke(capsys, "verify-cert", fx("T_COPY_AB"),
                       "--cert", str(cert_path))
    assert code == 1 and out.strip() == "invalid"


def test_later_mismatch_is_invalid(tmp_path, capsys):
    # Each recorded mismatch is the first one for its divisor, as `decide`
    # writes it: the word "aaba" also breaks period 1 at index 2, but a
    # certificate that records that mismatch is not the one `decide` writes.
    cert_path = tmp_path / "cert.txt"
    invoke(capsys, "decide", "oneway", fx("T_COPY_AB"), "--max-len", "6",
           "--cert", str(cert_path))
    text = cert_path.read_text()
    assert '  word: "aaba"\n  mismatches:\n    p=1 fail-at=1\n' in text
    cert_path.write_text(text.replace("p=1 fail-at=1", "p=1 fail-at=2"))
    code, out = invoke(capsys, "verify-cert", fx("T_COPY_AB"),
                       "--cert", str(cert_path))
    assert code == 1 and out.strip() == "invalid"


def _cert_error(capsys, name, cert_path):
    code = run_cli(["verify-cert", fx(name), "--cert", str(cert_path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("edit,message", [
    # A sweeping certificate of no passes has no member left to check.
    (lambda text: text.replace("kind: oneway", "kind: sweeping")
     .replace("passes: 1", "passes: 0").split("member 0")[0],
     "error: passes '0' is not a positive integer\n"),
    (lambda text: text.replace("kind: oneway", "kind: bogus"),
     "error: unknown certificate kind 'bogus'\n"),
    (lambda text: text.replace("passes: 1", "passes: 2"),
     "error: a oneway certificate has 1 pass, not 2\n"),
    # A quoted field stands between two quotes, not any two characters: the
    # reprint of what such a text parses to names the first line it differs
    # from.
    (lambda text: text.replace('input: "ab"', "input: XabY"),
     "error: certificate line 6 reads 'input: XabY\\n' where its reprint "
     "reads 'input: \"ab\"\\n'\n"),
    (lambda text: text.replace('word: "aaba"', "word: XaabaY"),
     "error: certificate line 22 reads '  word: XaabaY\\n' where its "
     "reprint reads '  word: \"aaba\"\\n'\n"),
    (lambda text: text.replace('trace "a"', "trace XaY", 1),
     "error: certificate line 20 reads '  loop1: [1,2] levels [0,0] anchor "
     "(1,0) trace XaY\\n' where its reprint reads '  loop1: [1,2] levels "
     "[0,0] anchor (1,0) trace \"a\"\\n'\n"),
    (lambda text: text.replace('input: "ab"', 'input: "ab'),
     "error: certificate line 6 reads 'input: \"ab\\n' where its reprint "
     "reads 'input: \"a\"\\n'\n"),
    # A certificate is exactly the text `decide --cert` writes; each of
    # these edits once read valid, or invalid (exit 1), not a format error.
    (lambda text: text.replace("passes: 1\n", ""),
     "error: certificate line 3 reads 'transducer: T_COPY_AB\\n' where its "
     "reprint reads 'passes: 0\\n'\n"),
    (lambda text: text.replace('input: "ab"\n', 'input: "ab"\n' * 2),
     "error: certificate line 7 reads 'input: \"ab\"\\n' where its reprint "
     "reads 'run:\\n'\n"),
    (lambda text: text.replace("run:\n", "foo: bar\nrun:\n"),
     "error: certificate line 7 reads 'foo: bar\\n' where its reprint reads "
     "'run:\\n'\n"),
    (lambda text: text.replace("passes: 1", "passes: 01"),
     "error: certificate line 3 reads 'passes: 01\\n' where its reprint "
     "reads 'passes: 1\\n'\n"),
    (lambda text: text.replace("\n", "\r\n"),
     "error: certificate line 1 reads 'untwist-certificate v1\\r\\n' where "
     "its reprint reads 'untwist-certificate v1\\n'\n"),
    (lambda text: text.replace('input: "ab"\n',
                               'input: "ab"\ninput: "ba"\n'),
     "error: certificate line 7 reads 'input: \"ba\"\\n' where its reprint "
     "reads 'run:\\n'\n"),
    (lambda text: text.replace('-a,R/"a"->', "-a,R/XaY->"),
     "error: no transition matches dump line: "
     "'step 1: (1,0) -a,R/XaY-> (2,0) state p1'\n"),
    (lambda text: text[:-1],
     "error: certificate line 24 reads '    p=1 fail-at=1' where its "
     "reprint reads '    p=1 fail-at=1\\n'\n"),
    (lambda text: text.replace("  step 2:", "  hello\n  step 2:"),
     "error: malformed run dump line: 'hello'\n"),
    # A step line reads `step i: (a,b) <move> (c,d) state q` on line i,
    # each location as it prints from its integers; any other is malformed.
    (lambda text: text.replace("  step 3:", "  step 03:"),
     "error: malformed run dump line: "
     "'step 03: (3,0) --|,L/\"\"-> (3,1) state rw'\n"),
    (lambda text: text.replace("  step 2:", "  step 7:"),
     "error: malformed run dump line: "
     "'step 7: (2,0) -b,R/\"b\"-> (3,0) state p1'\n"),
    (lambda text: text.replace("step 3: (3,0)", "step 3: (x)"),
     "error: malformed run dump line: "
     "'step 3: (x) --|,L/\"\"-> (3,1) state rw'\n"),
    (lambda text: text.replace("step 2: (2,0)", "step 2: (2,00)"),
     "error: malformed run dump line: "
     "'step 2: (2,00) -b,R/\"b\"-> (3,0) state p1'\n"),
], ids=["no-passes", "unknown-kind", "oneway-two-passes", "unquoted-input",
        "unquoted-word", "unquoted-trace", "unclosed-input", "passes-deleted",
        "input-repeated", "unknown-header", "passes-01", "crlf",
        "second-input", "unquoted-step-output", "no-final-newline",
        "stray-run-line", "step-number-padded", "step-number-moved",
        "location-not-a-pair", "location-padded"])
def test_certificate_header_out_of_range_exit_65(tmp_path, capsys, edit,
                                                 message):
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "3", "--cert", str(cert_path))
    assert code == 1
    cert_path.write_bytes(edit(cert_path.read_bytes().decode()).encode())
    assert _cert_error(capsys, "T_COPY_AB", cert_path) == (65, message)


@functools.cache
def _certificate_corpus() -> tuple[tuple[str, str, str], ...]:
    """(machine, --period-bound, text) for each golden certificate and each
    certificate the deciders write for a fixture at max-len 4, under the
    symbolic bound and under bound 1, which refutes T_COPY_ABC and
    T_RUNNING as well."""
    corpus = {(path.name.split(".")[0], "symbolic",
               path.read_bytes().decode())
              for path in CERT_DIR.glob("*.cert")}
    for name in FIXTURE_NAMES:
        t = load_fixture(name)
        for bound in ("symbolic", "1"):
            pb = None if bound == "symbolic" else int(bound)
            for v in (oneway.decide_oneway_bounded(t, 4, bound=pb),
                      oneway.decide_sweeping_bounded(t, 2, 4, bound=pb)):
                if v.certificate is not None:
                    corpus.add((name, bound,
                                oneway.certificate_text(v.certificate)))
    return tuple(sorted(corpus))


@st.composite
def _mutants(draw) -> tuple[str, str, str]:
    """A corpus certificate with one line deleted, duplicated or swapped
    with another, or one character inserted, deleted or replaced."""
    name, bound, text = draw(st.sampled_from(_certificate_corpus()))
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "insert char",
                               "delete char", "replace char"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        k = draw(st.integers(0, len(lines[i]) - (op != "insert char")))
        ch = draw(st.sampled_from(sorted(set(text) | set('\r\t "-0')))
                  | st.characters(blacklist_categories=("Cs",)))
        keep = k + (op != "insert char")
        lines[i] = lines[i][:k] + ("" if op == "delete char" else ch) \
            + lines[i][keep:]
    return name, bound, "".join(lines)


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "cert.txt"


@given(mutant=_mutants())
@settings(max_examples=500, deadline=None)
def test_mutated_certificates_exit_0_1_or_65(mutant_path, mutant):
    # Every edit is a format error, a well-formed certificate that does not
    # check out, or still valid (a line swapped with itself, or another
    # index where the word breaks the period); none is a fault of the
    # checker.  A text that parses is a print.
    name, bound, text = mutant
    mutant_path.write_bytes(text.encode())
    code = run_cli(["verify-cert", fx(name), "--cert", str(mutant_path),
                    "--period-bound", bound])
    assert code in (0, 1, 65)
    try:
        cert = oneway.parse_certificate(text)
    except ValueError:
        return
    assert oneway.certificate_text(cert) == text


def test_memberless_certificate_of_the_identity_exit_65(tmp_path, capsys):
    # The identity is one-way by construction, so no certificate of it may
    # read valid; one of no passes names no inversion at all.
    t = load_fixture("T_ID")
    run = enumerate_runs(t, "ab")[0]
    cert = oneway.RefutationCertificate(
        "sweeping", t.name, oneway.transducer_digest(t), "ab",
        dump_run(run), (), 0)
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(oneway.certificate_text(cert))
    assert _cert_error(capsys, "T_ID", cert_path) == \
        (65, "error: passes '0' is not a positive integer\n")


@pytest.mark.parametrize("word", ["a,,b", ",a", "a,"])
def test_empty_symbol_in_input_exit_65(capsys, word):
    code = run_cli(["run", fx("T_ID"), "--input", word])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == f"error: input {word!r} has an empty symbol\n"


@pytest.mark.parametrize("bound", ["1", "2"])
@pytest.mark.parametrize("name,extra", [
    ("T_COPY_ABC", ["oneway"]),
    ("T_RUNNING", ["oneway"]),
    ("T_THREECOMP", ["sweeping", "--passes", "2"]),
])
def test_verify_cert_honours_period_bound(tmp_path, capsys, name, extra,
                                          bound):
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", *extra, fx(name), "--max-len", "5",
                     "--period-bound", bound, "--cert", str(cert_path))
    assert code == 1
    code, out = invoke(capsys, "verify-cert", fx(name), "--cert",
                       str(cert_path), "--period-bound", bound)
    assert code == 0 and out.strip() == "valid"
    # Under the symbolic bound the certificate lists too few divisors.
    code, out = invoke(capsys, "verify-cert", fx(name), "--cert",
                       str(cert_path))
    assert code == 1 and out.strip() == "invalid"


def test_byte_identical_repeat_invocations(capsys):
    _, out1 = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "6")
    _, out2 = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "6")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("parse", "T_ID"),
    ("constants", "T_MIRROR"),
    ("run", "T_MIRROR", "--input", "ab"),
    ("analyze", "T_COPY_AB", "--input", "ab"),
    ("pump", "T_ID", "--input", "aa"),
    ("decompose", "T_ID", "--input", "ab"),
    ("simulate-oneway", "T_COPY_ABC", "--input", "abc"),
    ("decide", "oneway", "T_ID", "--max-len", "3"),
    ("decide", "sweeping", "T_MIRROR", "--max-len", "3", "--passes", "2"),
])
def test_json_output_schema(capsys, argv):
    argv = list(argv)
    file_pos = 1 if argv[0] != "decide" else 2
    argv[file_pos] = fx(argv[file_pos])
    code = run_cli(["--format", "json"] + argv)
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["command"].startswith(argv[0].split("-")[0]) or \
        payload["command"] in ("decide-oneway", "decide-sweeping",
                               "simulate-oneway")


@pytest.mark.parametrize("argv", [
    ("decide", "oneway", "--max-len", "3"),
    ("decide", "sweeping", "--max-len", "3", "--passes", "2"),
])
def test_truncated_certificate_exit_65(tmp_path, capsys, argv):
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, argv[0], argv[1], fx("T_COPY_AB"), *argv[2:],
                     "--cert", str(cert_path))
    assert code == 1
    lines = cert_path.read_text().splitlines(keepends=True)
    headers = [i for i, ln in enumerate(lines) if ln.startswith("member ")]
    assert headers
    run_start = lines.index("run:\n")
    run_end = next(i for i, ln in enumerate(lines)
                   if ln.startswith("  output:"))
    cut_path = tmp_path / "cut.txt"
    for n in range(len(lines)):
        cut_path.write_text("".join(lines[:n]))
        # No exception escapes: a traceback would also exit 1, "invalid".
        code = run_cli(["verify-cert", fx("T_COPY_AB"),
                        "--cert", str(cut_path)])
        err = capsys.readouterr().err
        assert code in (1, 65), n
        assert "Traceback" not in err
        if any(h < n < h + 5 for h in headers):
            assert code == 65, n
            assert err.startswith("error: truncated member block")
        if run_start < n <= run_end:
            assert code == 65, n
            assert err.startswith("error: run block has no closing output")


@pytest.mark.parametrize("argv", [
    ("decide", "oneway", "--max-len", "3"),
    ("decide", "sweeping", "--max-len", "3", "--passes", "2"),
])
def test_edited_run_location_is_invalid(tmp_path, capsys, argv):
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, argv[0], argv[1], fx("T_COPY_AB"), *argv[2:],
                     "--cert", str(cert_path))
    assert code == 1
    text = cert_path.read_text()
    assert "  step 3: (3,0) " in text
    cert_path.write_text(text.replace("  step 3: (3,0) ", "  step 3: (3,1) "))
    code, out = invoke(capsys, "verify-cert", fx("T_COPY_AB"),
                       "--cert", str(cert_path))
    assert code == 1 and out.strip() == "invalid"


@pytest.mark.parametrize("old,new,error", [
    ('-a,R/"a"-> (2,0) state p1', '-a,R/"b"-> (2,0) state p1',
     "error: no transition matches dump line"),
    ('input: "ab"', 'input: "az"', "error: symbol 'z' is not in the input"),
])
def test_unparsable_run_or_input_exit_65(tmp_path, capsys, old, new, error):
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "3", "--cert", str(cert_path))
    assert code == 1
    text = cert_path.read_text()
    assert old in text
    cert_path.write_text(text.replace(old, new))
    code = run_cli(["verify-cert", fx("T_COPY_AB"), "--cert", str(cert_path)])
    assert code == 65
    assert capsys.readouterr().err.startswith(error)


def test_wide_level_interval_is_invalid_in_bounded_memory(tmp_path, capsys):
    # A certificate keeps a level interval as its two ends, so three million
    # levels are read as two numbers and name no component.  The peak is the
    # child's own VmHWM, as in the long-copy memory test.
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "3", "--cert", str(cert_path))
    assert code == 1
    text = cert_path.read_text()
    assert "levels [0,0]" in text
    cert_path.write_text(text.replace("levels [0,0]", "levels [0,3000000]"))
    argv = ["verify-cert", fx("T_COPY_AB"), "--cert", str(cert_path)]
    child = (
        "from untwist.cli import run_cli\n"
        f"code = run_cli({argv!r})\n"
        "with open('/proc/self/status') as f:\n"
        "    hwm = next(l.split()[1] for l in f if l.startswith('VmHWM:'))\n"
        "print(code, hwm)\n")
    root = FIXTURE_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", child], env=env, cwd=root,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.splitlines()
    assert out[0] == "invalid"
    code, peak_kb = map(int, out[1].split())
    assert code == 1
    assert peak_kb < 100 * 1024


def test_invalid_flow_of_a_run_exit_70(tmp_path, monkeypatch, capsys):
    # The factors of a run always make a valid flow, so an invalid one is a
    # bug of the checker, not bad input (exit 65) in the certificate.
    cert_path = tmp_path / "cert.txt"
    code, _ = invoke(capsys, "decide", "oneway", fx("T_COPY_AB"),
                     "--max-len", "3", "--cert", str(cert_path))
    assert code == 1
    monkeypatch.setattr(Run, "intercepted_factors", lambda run, x1, x2: [])
    code = run_cli(["verify-cert", fx("T_COPY_AB"), "--cert", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err == ("internal error: the factors of [1,2] make an "
                            "invalid flow for borders (3,3): []\n")


def test_analyze_derives_each_loop_once(monkeypatch, capsys):
    calls = {name: spy(monkeypatch, loops, name)
             for name in ("enumerate_loops", "components_of", "trace_of")}
    code, _ = invoke(capsys, "analyze", fx("T_COPY_AB"), "--input", "abab")
    assert code == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "enumerate_loops": 1, "components_of": 10, "trace_of": 30}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stats_reports_elapsed(capsys, fmt):
    argv = ["--format", fmt, "decompose", fx("T_ID"), "--input", "ab"]
    code, plain = invoke(capsys, *argv)
    code_stats, out = invoke(capsys, "--stats", *argv)
    assert code == code_stats == 0
    if fmt == "text":
        head, last = out.rstrip("\n").rsplit("\n", 1)
        assert head + "\n" == plain
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s", last)
    else:
        payload = json.loads(out)
        elapsed = payload["details"].pop("stats")["elapsed_s"]
        assert isinstance(elapsed, float) and elapsed >= 0
        assert payload == json.loads(plain)
        assert "stats" not in plain


@pytest.mark.parametrize("argv", [
    ("parse", fx("T_ID")),
    ("constants", fx("T_MIRROR")),
    ("run", fx("T_MIRROR"), "--input", "ab"),
    ("run", fx("T_COPY_ABC"), "--input", "ab"),
    ("analyze", fx("T_COPY_AB"), "--input", "ab"),
    ("pump", fx("T_ID"), "--input", "aa"),
    ("decompose", fx("T_COPY_ABC"), "--input", "abcabc", "--period-bound",
     "1"),
    ("simulate-oneway", fx("T_COPY_ABC"), "--input", "abc"),
    ("decide", "oneway", fx("T_COPY_AB"), "--max-len", "3"),
    ("verify-cert", fx("T_COPY_AB"), "--cert",
     str(FIXTURE_DIR.parent / "tests" / "golden" / "certs"
         / "T_COPY_AB.oneway.cert")),
])
def test_commands_return_their_report(capsys, argv):
    # Only run_cli writes to stdout; a command hands it (exit code, result,
    # details, text).
    args = cli._build_parser().parse_args(list(argv))
    code, result, details, text = cli._DISPATCH[args.command](
        args, cli._load(args.file))
    assert capsys.readouterr().out == ""
    assert code in (0, 1, 2)
    assert isinstance(result, str) and isinstance(details, dict)
    assert text.endswith("\n")


def test_stats_leave_the_absent_report_alone(capsys):
    argv = ("--format", "json", "run", fx("T_COPY_ABC"), "--input", "ab")
    code, out = invoke(capsys, "--stats", *argv)
    assert code == 2 and "elapsed_s" in out
    assert invoke(capsys, *argv) == \
        (2, '{"command": "run", "details": {}, "result": "absent"}\n')
