"""Golden CLI corpus: exit code and stdout of the parse, constants, run,
run-analysis, pumping, decider and certificate-check commands on every
fixture, in text and JSON, diffed byte for byte.

The certificates that `verify-cert` checks are inputs, kept in
`golden/certs/`: two that `decide` wrote, one with a moved step location
(invalid), and two that do not parse (exit 65).

Regenerate (only when a change of output is intended) from the repository
root with `PYTHONPATH=src python -m tests.test_golden`.
"""
import contextlib
import io
import pathlib

import pytest

from untwist.cli import run_cli

from .conftest import FIXTURE_DIR, FIXTURE_NAMES

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
CERT_DIR = GOLDEN_DIR / "certs"

# Two small inputs per fixture; the second one is longer and, where the
# machine allows it, has more inversions or a block piece.
INPUTS = {
    "T_ID": ("ab", "abba"),
    "T_COPY_ABC": ("abcabc", "abcabcabc"),
    "T_COPY_AB": ("ab", "abab"),
    "T_MIRROR": ("ab", "abb"),
    "T_RUNNING": ("abc#ab", "abcabc#ab"),
    "T_ZIGZAG": ("mm", "mmmm"),
    "T_THREECOMP": ("m", "mmm"),
}

# Fixtures whose inversion words a finite period bound can make unsafe,
# and the bounds they are also pinned under.
BOUNDED_NAMES = ("T_COPY_ABC", "T_RUNNING", "T_THREECOMP")
FINITE_BOUNDS = ("1", "2")

# One long word for the two machines with dense inversions: thousands of
# inversion pairs on (abc)^16, and two coverage classes, so two blocks, on the
# T_RUNNING word.  Pinned under the symbolic bound and the finite ones,
# which refuse at the first unsafe inversion.
LONG_INPUTS = {"T_COPY_ABC": "abc" * 16,
               "T_RUNNING": "abcabcabc#ab#abcabc#ab#abc#b"}

# Edge reports: every input command on a word outside T_COPY_ABC's domain,
# and pumping the empty word, which has no loops.
EDGE_CASES = tuple(
    (f"T_COPY_ABC.{cmd}.absent", [cmd, "T_COPY_ABC", "--input", "ab"])
    for cmd in ("run", "analyze", "pump", "decompose", "simulate-oneway")
) + (("T_ID.pump.empty", ["pump", "T_ID", "--input", ""]),)

# (machine, certificate file) pairs for `verify-cert`: each certificate on
# its own machine, and a valid one on a machine whose digest differs.
CERT_CASES = (
    ("T_COPY_AB", "T_COPY_AB.oneway"),
    ("T_COPY_AB", "T_COPY_AB.oneway.moved-step"),
    ("T_COPY_AB", "T_COPY_AB.oneway.no-run"),
    ("T_COPY_AB", "T_COPY_AB.oneway.bad-step"),
    ("T_THREECOMP", "T_THREECOMP.sweeping.2"),
    ("T_THREECOMP", "T_COPY_AB.oneway"),
)


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for name in FIXTURE_NAMES:
        path = str(FIXTURE_DIR / f"{name}.tdx")
        for cmd in ("parse", "constants"):
            cases.append((f"{name}.{cmd}", [cmd, path]))
        for word in INPUTS[name]:
            for cmd in ("run", "analyze", "decompose", "simulate-oneway"):
                argv = [cmd, path, "--input", word]
                if cmd == "simulate-oneway":
                    argv.append("--transcript")
                cases.append((f"{name}.{cmd}.{word.replace('#', '+')}", argv))
        word = INPUTS[name][1]
        for extra in ([], ["--idempotent"]):
            cases.append((f"{name}.pump.{word.replace('#', '+')}"
                          + "".join(f".{e[2:]}" for e in extra),
                          ["pump", path, "--input", word] + extra))
        cases.append((f"{name}.decide-oneway.5",
                      ["decide", "oneway", path, "--max-len", "5"]))
        cases.append((f"{name}.decide-sweeping.2.4",
                      ["decide", "sweeping", path, "--passes", "2",
                       "--max-len", "4"]))
        cases.append((f"{name}.decide-sweeping.3.5",
                      ["decide", "sweeping", path, "--passes", "3",
                       "--max-len", "5"]))
        cases.append((f"{name}.decide-sweeping.4",
                      ["decide", "sweeping", path, "--max-len", "4"]))
        if name in LONG_INPUTS:
            path_input = [path, "--input", LONG_INPUTS[name]]
            for bound in [[]] + [["--period-bound", n] for n in FINITE_BOUNDS]:
                tag = f".pb{bound[1]}" if bound else ""
                for cmd in ("analyze", "decompose", "simulate-oneway"):
                    extra = ["--transcript"] if cmd == "simulate-oneway" \
                        and not bound else []
                    cases.append((f"{name}.{cmd}.long{tag}",
                                  [cmd] + path_input + bound + extra))
        if name not in BOUNDED_NAMES:
            continue
        for n in FINITE_BOUNDS:
            bound = ["--period-bound", n]
            for word in INPUTS[name]:
                for cmd in ("analyze", "decompose", "simulate-oneway"):
                    cases.append(
                        (f"{name}.{cmd}.{word.replace('#', '+')}.pb{n}",
                         [cmd, path, "--input", word] + bound))
            cases.append((f"{name}.decide-oneway.5.pb{n}",
                          ["decide", "oneway", path, "--max-len", "5"]
                          + bound))
    for key, (cmd, name, *rest) in EDGE_CASES:
        cases.append((key, [cmd, str(FIXTURE_DIR / f"{name}.tdx"), *rest]))
    for name, cert in CERT_CASES:
        cases.append((f"{name}.verify-cert.{cert}",
                      ["verify-cert", str(FIXTURE_DIR / f"{name}.tdx"),
                       "--cert", str(CERT_DIR / f"{cert}.cert")]))
    return [(f"{key}.{fmt}", ["--format", fmt] + argv)
            for key, argv in cases for fmt in ("text", "json")]


CASES = _cases()


def _record(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(argv)
    return f"exit: {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("key,argv", CASES, ids=[k for k, _ in CASES])
def test_golden(key, argv):
    expected = (GOLDEN_DIR / key).read_text(encoding="utf-8")
    assert _record(argv) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for key, argv in CASES:
        (GOLDEN_DIR / key).write_text(_record(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN_DIR}")
