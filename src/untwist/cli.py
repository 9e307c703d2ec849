"""Command-line front end.

Each command returns its report, (exit code, result, details, text), and
`run_cli` alone writes it: the text, or with --format json the envelope
{"command", "result" | "verdict", "details"}.

Exit codes: 0 pass/no-counterexample, 1 refuted, 2 absent, 64 usage,
65 parse/validation or an argument out of range, 69 resource cap exceeded,
70 internal inconsistency or any other unexpected exception (a bug, never a
verdict).  Default output carries no timestamps so identical invocations
are byte-identical; --stats adds timing behind a flag.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .decomposition import InternalInconsistencyError, build_decomposition
from .inversions import (INVERSION, anchored_components, enumerate_inversions,
                         inversion_safe)
from .loops import enumerate_loops, pump
from .oneway import (FunctionalityError, certificate_text, decide_oneway_bounded,
                     decide_sweeping_bounded, parse_certificate,
                     simulate_oneway, verify_certificate)
from .runs import CapExceeded, dump_run, enumerate_runs
from .transducer import (ParseError, constants, parse_transducer,
                         serialize_transducer, validate)

EX_OK, EX_REFUTED, EX_ABSENT = 0, 1, 2
EX_USAGE, EX_DATA, EX_CAP, EX_SOFTWARE = 64, 65, 69, 70

# The report of run, analyze, pump and decompose on a word outside the
# machine's domain.
ABSENT = (EX_ABSENT, "absent", {}, "input not in domain\n")


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        t = parse_transducer(fh.read())
    report = validate(t)
    if not report.ok:
        msgs = "; ".join(i.message for i in report.errors())
        raise ParseError(f"{path}: {msgs}")
    return t


def _runs(args, t) -> list:
    """The runs of `t` on the word given by --input."""
    return enumerate_runs(t, t.parse_input_text(args.input),
                          cap_runs=args.cap_runs)


def _run_at(runs: list, index: int):
    if not 0 <= index < len(runs):
        raise ValueError(f"run index {index} is outside 0..{len(runs) - 1}")
    return runs[index]


def _bound(args, t):
    if args.period_bound == "symbolic":
        return constants(t).bound_factored
    bound = int(args.period_bound)
    if bound < 1:
        # A bound below 1 admits no period, so every inversion would read
        # unsafe.
        raise ValueError(f"period bound {bound} is below 1")
    return bound


def cmd_parse(args, t):
    text = serialize_transducer(t)
    return EX_OK, "ok", {"name": t.name, "states": len(t.states),
                         "transitions": len(t.transitions),
                         "canonical": text}, text


def cmd_constants(args, t):
    c = constants(t)
    text = (f"states: {c.state_count}\nc_max: {c.c_max}\n"
            f"h_max: {c.h_max}\ne_max: {c.e_max}\n"
            f"bound: {c.bound_factored}\n")
    return EX_OK, "ok", {"states": c.state_count, "c_max": c.c_max,
                         "h_max": c.h_max, "e_max": str(c.e_max),
                         "bound": str(c.bound_factored)}, text


def cmd_run(args, t):
    runs = _runs(args, t)
    if args.dump_runs:
        with open(args.dump_runs, "w", encoding="utf-8") as fh:
            for i, r in enumerate(runs):
                fh.write(f"run {i}:\n{dump_run(r)}")
    if not runs:
        return ABSENT
    outs = sorted({r.render_output() for r in runs})
    text = "\n".join(f'output: "{o}"' for o in outs) + f"\nruns: {len(runs)}\n"
    return EX_OK, "ok", {"outputs": outs, "runs": len(runs)}, text


def cmd_analyze(args, t):
    bound = _bound(args, t)
    runs = _runs(args, t)
    if not runs:
        return ABSENT
    lines = []
    details = []
    for i, run in enumerate(runs):
        lines.append(f"run {i}: {len(run.steps)} steps, "
                     f'output "{run.render_output()}"')
        loops = enumerate_loops(run)
        idem = [l for l in loops if l.idempotent]
        lines.append(f"  loops: {len(loops)} ({len(idem)} idempotent)")
        anchored = anchored_components(run, idem)
        # Listed in loop order; the sort is stable, so a loop's components
        # keep their anchor run order, which is components_of's order.
        for a in sorted(anchored, key=lambda a: a.loop.interval):
            comp = a.component
            lines.append(
                f"  loop[{a.loop.x1},{a.loop.x2}] levels "
                f"[{comp.min_node},{comp.max_node}] anchor "
                f"({comp.anchor[0]},{comp.anchor[1]}) trace "
                f'"{t.table.render(a.trace_output)}"')
        inversions = enumerate_inversions(run, INVERSION, anchored)
        unsafe = sum(not inversion_safe(run, bound, inv) for inv in inversions)
        lines.append(f"  inversions: {len(inversions)} ({unsafe} unsafe)")
        details.append({"run": i, "loops": len(loops),
                        "idempotent": len(idem),
                        "inversions": len(inversions), "unsafe": unsafe})
    return EX_OK, "ok", {"runs": details}, "\n".join(lines) + "\n"


def cmd_pump(args, t):
    runs = _runs(args, t)
    if not runs:
        return ABSENT
    run = _run_at(runs, args.run_index)
    pumped = []
    for loop in enumerate_loops(run, idempotent_only=args.idempotent):
        word, new_run = pump(t, run, loop, args.copies)
        pumped.append({"loop": [loop.x1, loop.x2],
                       "input": t.table.render(word),
                       "output": new_run.render_output()})
    text = "".join(f"loop[{p['loop'][0]},{p['loop'][1]}] copies={args.copies}"
                   f' -> input "{p["input"]}" output "{p["output"]}"\n'
                   for p in pumped)
    return EX_OK, "ok", {"pumped": pumped}, text or "no loops\n"


def cmd_decompose(args, t):
    bound = _bound(args, t)
    runs = _runs(args, t)
    if not runs:
        return ABSENT
    outcome = build_decomposition(_run_at(runs, args.run_index), bound)
    if outcome.decomposition is None:
        word = t.table.render(outcome.unsafe[1].word)
        return (EX_REFUTED, "refuted", {"word": word},
                f'no decomposition: unsafe inversion with word "{word}"\n')
    pieces = [{"kind": p.kind, "start": list(p.start), "end": list(p.end)}
              for p in outcome.decomposition.pieces]
    return EX_OK, "ok", {"pieces": pieces}, outcome.decomposition.render()


def cmd_simulate(args, t):
    raw = t.parse_input_text(args.input)
    res = simulate_oneway(t, raw, bound=_bound(args, t),
                          cap_runs=args.cap_runs)
    if not res.present:
        return EX_ABSENT, "absent", {}, "absent\n"
    transcript = [{"position": e.position, "text": t.table.render(e.text),
                   "note": e.note} for e in res.transcript]
    text = f'output: "{t.table.render(res.output)}"\n'
    if args.transcript:
        text += "".join(f"  @{e['position']} \"{e['text']}\" ({e['note']})\n"
                        for e in transcript)
    return EX_OK, "ok", {"output": t.table.render(res.output),
                         "transcript": transcript}, text


def cmd_decide(args, t):
    bound = _bound(args, t)
    if args.mode == "oneway":
        verdict = decide_oneway_bounded(t, args.max_len, bound=bound,
                                        cap_runs=args.cap_runs)
    else:
        verdict = decide_sweeping_bounded(t, args.passes, args.max_len,
                                          bound=bound, cap_runs=args.cap_runs)
    details = {"verdict": verdict.kind, "max_len": verdict.max_len,
               "searched": verdict.searched, "note": verdict.note}
    if verdict.certificate is not None:
        cert = certificate_text(verdict.certificate)
        details["certificate"] = cert
        if args.cert:
            with open(args.cert, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(cert)
        length = len(t.parse_input_text(verdict.certificate.input_text))
        text = f"refuted (|u| = {length})\n" + cert
    else:
        text = f"{verdict.kind} up to {verdict.max_len}"
        if verdict.note:
            text += f" ({verdict.note})"
        text += "\n"
    code = EX_REFUTED if verdict.kind == "refuted" else EX_OK
    return code, verdict.kind, details, text


def cmd_verify_cert(args, t):
    with open(args.cert, encoding="utf-8", newline="") as fh:
        cert = parse_certificate(fh.read())
    ok = verify_certificate(t, cert, bound=_bound(args, t))
    verdict = "valid" if ok else "invalid"
    return EX_OK if ok else EX_REFUTED, verdict, {}, verdict + "\n"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="untwist",
                                description=__doc__.split("\n")[0])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--stats", action="store_true",
                   help="report wall-clock timing (text: a trailing "
                        "line; json: details.stats.elapsed_s)")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {"--input": {"required": True},
              "--cap-runs": {"type": int, "default": 10**5},
              "--period-bound": {"default": "symbolic"}}

    def command(name, *options, within=sub):
        """A subcommand taking a file and only the shared options it
        reads."""
        sp = within.add_parser(name)
        sp.add_argument("file")
        for option in options:
            sp.add_argument(option, **shared[option])
        return sp

    command("parse")
    command("constants")
    sp = command("run", "--input", "--cap-runs")
    sp.add_argument("--dump-runs", default=None)
    command("analyze", "--input", "--cap-runs", "--period-bound")
    sp = command("pump", "--input", "--cap-runs")
    sp.add_argument("--copies", type=int, default=2)
    sp.add_argument("--run-index", type=int, default=0)
    sp.add_argument("--idempotent", action="store_true")
    sp = command("decompose", "--input", "--cap-runs", "--period-bound")
    sp.add_argument("--run-index", type=int, default=0)
    sp = command("simulate-oneway", "--input", "--cap-runs", "--period-bound")
    sp.add_argument("--transcript", action="store_true")
    modes = sub.add_parser("decide").add_subparsers(dest="mode", required=True)
    for mode in ("oneway", "sweeping"):
        sp = command(mode, "--cap-runs", "--period-bound", within=modes)
        sp.add_argument("--max-len", type=int, required=True)
        sp.add_argument("--cert", default=None)
    sp.add_argument("--passes", type=int, default=None)     # sweeping only
    sp = command("verify-cert", "--period-bound")
    sp.add_argument("--cert", required=True)
    return p


_DISPATCH = {
    "parse": cmd_parse, "constants": cmd_constants, "run": cmd_run,
    "analyze": cmd_analyze, "pump": cmd_pump, "decompose": cmd_decompose,
    "simulate-oneway": cmd_simulate, "decide": cmd_decide,
    "verify-cert": cmd_verify_cert,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code, result, details, text = _DISPATCH[args.command](
            args, _load(args.file))
        elapsed = time.monotonic() - started
        if args.format == "text":
            print(text, end="")
            if args.stats:
                print(f"elapsed: {elapsed:.3f}s")
        else:
            if args.stats:
                details = {**details,
                           "stats": {"elapsed_s": round(elapsed, 3)}}
            command = args.command
            if command == "decide":
                command += f"-{args.mode}"
            verdict = args.command in ("decide", "verify-cert")
            print(json.dumps({"command": command,
                              "verdict" if verdict else "result": result,
                              "details": details}, sort_keys=True))
    except (ParseError, FunctionalityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EX_CAP
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except Exception as exc:    # a bug: never read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
