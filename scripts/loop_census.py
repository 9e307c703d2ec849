#!/usr/bin/env python3
"""Tabulate loop, component, and inversion counts across fixture runs.

Useful for eyeballing how the analysis scales with input length; pass a
fixture name and a maximum input length.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from untwist.inversions import inversions_of
from untwist.loops import components_of, enumerate_loops
from untwist.runs import runs_upto
from untwist.transducer import parse_transducer

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main(name: str, max_len: int) -> None:
    t = parse_transducer((FIXTURES / f"{name}.tdx").read_text())
    print(f"{'input':>14} {'steps':>6} {'loops':>6} {'idem':>6} "
          f"{'comps':>6} {'invs':>6}")
    for raw, runs in runs_upto(t, max_len):
        for run in runs:
            loops = enumerate_loops(run)
            idem = [l for l in loops if l.idempotent]
            comps = sum(len(components_of(run, l)) for l in idem)
            invs = len(inversions_of(run))
            print(f"{t.table.render(raw) or 'ε':>14} "
                  f"{len(run.steps):>6} {len(loops):>6} "
                  f"{len(idem):>6} {comps:>6} {invs:>6}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "T_COPY_AB",
         int(sys.argv[2]) if len(sys.argv) > 2 else 4)
