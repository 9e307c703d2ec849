#!/usr/bin/env python3
"""Search the shipped fixtures for one-way and two-pass sweeping
definability counterexamples and print the canonical certificate for each
refutation.  Exits 1 if a certificate, parsed back from its text, does not
print as that same text or does not verify, or if its sha256 line is not
hashlib's SHA-256 of the machine's canonical text."""
import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from untwist.oneway import (certificate_text, decide_oneway_bounded,
                            decide_sweeping_bounded, parse_certificate,
                            verify_certificate)
from untwist.transducer import parse_transducer, serialize_transducer

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main(max_len: int = 6) -> int:
    for path in sorted(FIXTURES.glob("*.tdx")):
        t = parse_transducer(path.read_text())
        # A two-pass certificate has two members, so its check also covers
        # the chain order between them.
        for label, verdict in (
                ("oneway", decide_oneway_bounded(t, max_len)),
                ("sweeping 2", decide_sweeping_bounded(t, 2, max_len))):
            print(f"== {t.name} {label}: {verdict.kind} "
                  f"(searched {verdict.searched})")
            if verdict.certificate is None:
                continue
            # The certificate is checked as `verify-cert` reads it: parsed
            # back from its text, which must reprint as itself.
            text = certificate_text(verdict.certificate)
            try:
                cert = parse_certificate(text)
            except ValueError as exc:
                print(f"{t.name} {label}: the certificate does not parse "
                      f"back: {exc}", file=sys.stderr)
                return 1
            # An independent check of the digest the library computes.
            digest = hashlib.sha256(serialize_transducer(t).encode())
            if cert.digest != digest.hexdigest():
                print(f"{t.name} {label}: the certificate's sha256 is not "
                      f"the machine text's", file=sys.stderr)
                return 1
            if not verify_certificate(t, cert):
                print(f"{t.name} {label}: the certificate does not verify",
                      file=sys.stderr)
                return 1
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 6))
