#!/usr/bin/env python3
"""Tabulate loop, component, and inversion counts across fixture runs.

Useful for eyeballing how the analysis scales with input length; pass a
fixture name and a maximum input length.  The line before the last counts
the distinct skeletons (`Arrival.skeleton`) of the flagged runs, and those
of them with no inversion, which the one-way decider analyses once each.
The last line counts the runs, those the search flags as possibly holding
an inversion, and those that hold one; the script exits with 1 if a run
with an inversion is unflagged.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from untwist.inversions import inversions_of
from untwist.loops import components_of, enumerate_loops
from untwist.runs import DelimitedInput, Run, arrivals_upto
from untwist.transducer import parse_transducer

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main(name: str, max_len: int) -> int:
    t = parse_transducer((FIXTURES / f"{name}.tdx").read_text())
    print(f"{'input':>14} {'steps':>6} {'loops':>6} {'idem':>6} "
          f"{'comps':>6} {'invs':>6} {'flag':>4}")
    runs = flagged = with_inversions = missed = 0
    skeletons: dict[int, bool] = {}     # flagged skeleton -> inversion-free
    for raw, arrivals, _ in arrivals_upto(t, max_len):
        for arrival in arrivals:
            run = Run(t, DelimitedInput.of(raw), arrival.steps)
            loops = enumerate_loops(run)
            idem = [l for l in loops if l.idempotent]
            comps = sum(len(components_of(run, l)) for l in idem)
            invs = len(inversions_of(run))
            runs += 1
            flagged += arrival.may_invert
            with_inversions += invs > 0
            missed += invs > 0 and not arrival.may_invert
            if arrival.may_invert:
                skeletons[arrival.skeleton] = invs == 0
            print(f"{t.table.render(raw) or 'ε':>14} "
                  f"{len(run.steps):>6} {len(loops):>6} "
                  f"{len(idem):>6} {comps:>6} {invs:>6} "
                  f"{'yes' if arrival.may_invert else 'no':>4}")
    print(f"flagged skeletons {len(skeletons)}, "
          f"chain-free {sum(skeletons.values())}")
    print(f"runs {runs}, flagged {flagged}, with inversions {with_inversions}")
    if missed:
        print(f"unflagged runs with an inversion: {missed}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "T_COPY_AB",
                  int(sys.argv[2]) if len(sys.argv) > 2 else 4))
