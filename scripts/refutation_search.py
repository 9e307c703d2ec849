#!/usr/bin/env python3
"""Search the shipped fixtures for one-way definability counterexamples and
print the canonical certificate for each refuted machine."""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from untwist.oneway import (certificate_text, decide_oneway_bounded,
                            verify_certificate)
from untwist.transducer import parse_transducer

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main(max_len: int = 6) -> int:
    for path in sorted(FIXTURES.glob("*.tdx")):
        t = parse_transducer(path.read_text())
        verdict = decide_oneway_bounded(t, max_len)
        print(f"== {t.name}: {verdict.kind} (searched {verdict.searched})")
        if verdict.certificate is not None:
            if not verify_certificate(t, verdict.certificate):
                print(f"{t.name}: the certificate does not verify",
                      file=sys.stderr)
                return 1
            print(certificate_text(verdict.certificate))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 6))
