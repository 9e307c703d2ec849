#!/usr/bin/env python3
"""Benchmark of the untwist CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide-oneway --seed 1 \
        --seconds 30 --trace 0

One client runs one operation at a time in a closed loop.  Each operation
is one `untwist` CLI invocation in a fresh interpreter, because that is
what a user pays for, and because the effect caches of `untwist.effects`
live as long as the process: reusing one would measure warm caches no user
sees.  Every operation is checked against an answer known by construction,
never against untwist itself.  The run cycles through the workload's
operations until --seconds have elapsed and reports, for each operation,
the median over its samples, with times scaled to a reference host speed
(see REF_LOOP_S).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the operations
under the outside-in tracer of tracer.py and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from tracer import COUNTED, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MACHINES = BENCH / "machines"
# A run ends within 180 s whatever the program does: an op still running
# once the run has lasted RUN_LIMIT_S is killed and counted as failed.
RUN_LIMIT_S = 150

# On a shared host the same operation can take twice as long from one
# minute to the next, while steal time stays near zero: the host runs this
# interpreter slower, in phases that last from seconds to longer than a run.
# The time metrics are therefore scaled to a reference host speed: each
# sample is multiplied by REF_LOOP_S / (median time of ref_loop() over the
# REF_SPAN loops timed just before and just after it), that is, given in
# seconds on a host where ref_loop() takes REF_LOOP_S.  Raw times are
# printed beside them, and the host record carries the loop times.
REF_LOOP_S = 0.010
REF_SPAN = 4

# Input alphabets, from the machines' `input` lines.
ALPHABETS = {"T_ID": "ab", "T_COPY_AB": "ab", "T_COPY_ABC": "abc",
             "T_MIRROR": "ab", "T_RUNNING": "abc#"}

# Factors of the T_RUNNING word as (kind, length).  An "abc" factor is
# (abc)^k; an "other" factor starts with b or c, so it is never in (abc)*
# and the machine's states over it do not depend on the letters the seed
# picks.  The lengths, and so which factors are doubled, are fixed: every
# seed costs the same work.
RUNNING_FACTORS = (
    ("abc", 6), ("other", 4), ("other", 5), ("abc", 9), ("other", 3),
    ("abc", 3), ("other", 6), ("abc", 6), ("other", 7), ("abc", 3),
    ("other", 2), ("other", 5), ("abc", 6), ("other", 8), ("abc", 9),
    ("other", 1), ("abc", 3),
)

# Per-layer metric -> the end-to-end metric and workload it should move.
PREDICTIONS = {
    "cli.self_s": "wall_s on all three workloads (small)",
    "transducer.load_s": "wall_s on all three workloads (small)",
    "transducer.functional_check_s": "wall_s, cpu_s on decide-oneway",
    "runs.enumerate_s": "wall_s, cpu_s on decide-oneway",
    "runs.enumerate_calls": "wall_s, cpu_s on decide-oneway",
    "runs.enumerate_calls_precheck": "wall_s, cpu_s on decide-oneway",
    "runs.runs_built": "wall_s, cpu_s on decide-oneway",
    "effects.interval_s": "wall_s on decide-oneway",
    "effects.interval_calls": "wall_s on decide-oneway",
    "effects.product_calls": "wall_s on decide-oneway",
    "loops.enumerate_s": "wall_s on decide-oneway",
    "loops.loops_found": "wall_s on decide-oneway",
    "loops.idempotent_found": "wall_s on decide-oneway",
    "loops.components_s": "wall_s on decide-oneway",
    "loops.components_found": "wall_s on decide-oneway",
    "loops.trace_s": "wall_s on decide-oneway",
    "inversions.anchored_s": "wall_s on decide-oneway",
    "inversions.anchored_found": "wall_s on decide-oneway",
    "inversions.pair_s": "wall_s, peak_rss_mb on simulate-long",
    "inversions.pair_tests": "wall_s, peak_rss_mb on simulate-long",
    "inversions.pairs_found": "wall_s, peak_rss_mb on simulate-long",
    "inversions.pair_yield": "wall_s, peak_rss_mb on simulate-long",
    "inversions.period_s": "wall_s, peak_rss_mb on simulate-long",
    "inversions.period_reports": "wall_s, peak_rss_mb on simulate-long",
    "oneway.decide_self_s": "wall_s on decide-oneway",
    "decomposition.coverage_s": "wall_s on simulate-long only",
    "decomposition.build_s": "wall_s on simulate-long only",
    "decomposition.diagonal_s": "wall_s on simulate-long only",
    "decomposition.block_s": "wall_s on simulate-long only",
    "decomposition.pieces": "wall_s on simulate-long only",
    "oneway.simulate_self_s": "wall_s on simulate-long only",
    "inversions.chain_s": "wall_s on decide-sweeping only",
    "inversions.chains_yielded": "wall_s on decide-sweeping only",
    "inversions.chain_safe_s": "wall_s on decide-sweeping only",
    "oneway.cert_build_s": "negligible; keeps certificate work visible",
    "oneway.cert_verify_s": "negligible; keeps certificate work visible",
    "runs.replay_s": "negligible; keeps certificate work visible",
    "oneway.inputs_searched": "context for symbols_per_s and error_ratio",
    "trace.overhead_s": "traced wall_s minus untraced wall_s",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((layer.metric, "s"))
        out += [(c, "count") for c in layer.counts]
    for _, _, calls, truthy in COUNTED:
        out += [(c, "count") for c in (calls, truthy) if c]
    out += [("inversions.pair_yield", "ratio"), ("trace.overhead_s", "s")]
    return out


# ---------------------------------------------------------------------------
# Operations and their oracles
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    setup_s: Optional[float]
    exit: Optional[int]
    failure: Optional[str]
    trace: Optional[dict] = None
    speed: float = 1.0          # REF_LOOP_S / local reference loop time


@dataclass
class Op:
    label: str
    args: list[str]
    # (exit code, parsed stdout) -> reason for failure, or None when correct
    check: Callable[[int, dict], Optional[str]]
    symbols: int                # input symbols this op processes
    samples: list[Sample] = field(default_factory=list)   # untraced
    timed: list[Sample] = field(default_factory=list)     # traced, timed
    counted: Optional[Sample] = None                      # count-only

    def all_samples(self) -> list[Sample]:
        return self.samples + self.timed + (
            [self.counted] if self.counted else [])


def _machine(name: str) -> str:
    return str((MACHINES / f"{name}.tdx").relative_to(ROOT))


def _words_upto(alphabet: str, max_len: int):
    """Every word of length <= max_len, in length-lexicographic order."""
    for n in range(max_len + 1):
        for tup in itertools.product(sorted(alphabet), repeat=n):
            yield "".join(tup)


def _decide_args(mode, machine, max_len, passes):
    args = ["decide", mode, _machine(machine), "--max-len", str(max_len)]
    return args + (["--passes", str(passes)] if passes else [])


def _decide_label(mode, machine, max_len, passes):
    return (f"decide {mode} {machine}"
            + (f" k={passes}" if passes else "") + f" L={max_len}")


def no_counterexample(mode: str, machine: str, max_len: int,
                      passes: Optional[int] = None) -> Op:
    """A decide op that must search all Σ_{n<=L} |Σ|^n inputs and find
    nothing."""
    words = list(_words_upto(ALPHABETS[machine], max_len))

    def check(code, out):
        if code != 0 or out.get("verdict") != "no-counterexample":
            return f"exit {code}, verdict {out.get('verdict')!r}"
        searched = out["details"]["searched"]["inputs"]
        if searched != len(words):
            return f"searched {searched} inputs, expected {len(words)}"
        return None
    return Op(_decide_label(mode, machine, max_len, passes),
              _decide_args(mode, machine, max_len, passes), check,
              sum(len(w) for w in words))


def refuted_at_ab(mode: str, machine: str, max_len: int, cert_dir: Path,
                  passes: Optional[int] = None) -> list[Op]:
    """A decide op that must refute at the word ab, then verify-cert on its
    certificate.

    On a unary word u both uu and u·rev(u) are a^2|u|, which a one-way
    machine outputs; ab is the first non-unary word in length-lexicographic
    order, and on it uu needs 3 sweeping passes and u·rev(u) needs 2.
    """
    words = list(itertools.takewhile(lambda w: w != "ab",
                                     _words_upto(ALPHABETS[machine], 2)))
    words.append("ab")
    cert = cert_dir / f"{machine}-{mode}-{passes or 1}.cert"
    label = _decide_label(mode, machine, max_len, passes)

    def check_decide(code, out):
        if code != 1 or out.get("verdict") != "refuted":
            return f"exit {code}, verdict {out.get('verdict')!r}"
        details = out["details"]
        if 'input: "ab"' not in details["certificate"].splitlines():
            return "certificate is not for the word ab"
        if details["searched"]["inputs"] != len(words):
            return (f"searched {details['searched']['inputs']} inputs, "
                    f"expected {len(words)}")
        if cert.read_text(encoding="utf-8") != details["certificate"]:
            return "certificate file differs from the reported certificate"
        return None

    def check_verify(code, out):
        if code != 0 or out.get("verdict") != "valid":
            return f"exit {code}, verdict {out.get('verdict')!r}"
        return None
    return [
        Op(label, _decide_args(mode, machine, max_len, passes)
           + ["--cert", str(cert.relative_to(ROOT))], check_decide,
           sum(len(w) for w in words)),
        Op(f"verify-cert {machine} ({label})",
           ["verify-cert", _machine(machine), "--cert",
            str(cert.relative_to(ROOT))], check_verify, 2),
    ]


def simulate(machine: str, word: str, expected: Optional[str]) -> Op:
    """simulate-oneway, which must print `expected`, or exit 2 (absent)
    when `expected` is None."""
    def check(code, out):
        if expected is None:
            if code != 2 or out.get("result") != "absent":
                return f"exit {code}, result {out.get('result')!r}"
            return None
        if code != 0 or out.get("result") != "ok":
            return f"exit {code}, result {out.get('result')!r}"
        if out["details"]["output"] != expected:
            return "output differs from the oracle"
        return None
    return Op(f"simulate-oneway {machine} |u|={len(word)}",
              ["simulate-oneway", _machine(machine), "--input", word],
              check, len(word))


def running_word(rng: random.Random) -> str:
    factors = []
    for kind, n in RUNNING_FACTORS:
        if kind == "abc":
            factors.append("abc" * (n // 3))
        else:
            factors.append(rng.choice("bc")
                           + "".join(rng.choice("abc") for _ in range(n - 1)))
    return "#".join(factors)


def running_output(word: str) -> str:
    """T_RUNNING's output by the rule in its fixture comment: factor i is
    doubled iff it is in (abc)* and the next factor has even length (a
    missing next factor is the empty word)."""
    factors = word.split("#")
    out = []
    for i, f in enumerate(factors):
        nxt = factors[i + 1] if i + 1 < len(factors) else ""
        doubled = f == "abc" * (len(f) // 3) and len(nxt) % 2 == 0
        out.append(f + f if doubled else f)
    return "#".join(out)


# The decide workloads search every input up to their length bound, so they
# do not depend on the seed.  In simulate-long the seed picks the letters of
# the T_ID and T_RUNNING words, never their lengths.

def decide_oneway(rng, cert_dir):
    return [
        no_counterexample("oneway", "T_RUNNING", 6),
        no_counterexample("oneway", "T_ID", 9),
        no_counterexample("oneway", "T_COPY_ABC", 9),
        *refuted_at_ab("oneway", "T_COPY_AB", 9, cert_dir),
    ]


def simulate_long(rng, cert_dir):
    u = "".join(rng.choice("ab") for _ in range(48))
    v = running_word(rng)
    return [
        simulate("T_ID", u, u),
        simulate("T_COPY_ABC", "abc" * 18, "abc" * 36),
        simulate("T_RUNNING", v, running_output(v)),
        simulate("T_COPY_AB", "ab", None),
    ]


def decide_sweeping(rng, cert_dir):
    return [
        no_counterexample("sweeping", "T_MIRROR", 6, passes=2),
        no_counterexample("sweeping", "T_COPY_AB", 5, passes=3),
        *refuted_at_ab("sweeping", "T_COPY_AB", 5, cert_dir, passes=2),
        *refuted_at_ab("sweeping", "T_MIRROR", 9, cert_dir, passes=1),
    ]


WORKLOADS = {
    "decide-oneway": decide_oneway,
    "simulate-long": simulate_long,
    "decide-sweeping": decide_sweeping,
}


# ---------------------------------------------------------------------------
# Running an operation
# ---------------------------------------------------------------------------

def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def execute(op: Op, mode: str, env: dict, kill_at: float) -> Sample:
    """Run `op` once in a fresh interpreter, killing it at `kill_at`;
    mode is plain, timed or counted (see child.py)."""
    rfd, wfd = os.pipe()
    cpu0 = _cpu_children()
    start = _now()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(wfd), mode,
             "--format", "json", *op.args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(wfd,), text=True)
    finally:
        os.close(wfd)
    with os.fdopen(rfd, "rb") as report:
        try:
            out, err = proc.communicate(timeout=max(0.0, kill_at - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Sample(_now() - start, _cpu_children() - cpu0, None,
                          None, f"killed at the run's {RUN_LIMIT_S} s limit")
        end = _now()
        raw = report.read()
    sample = Sample(end - start, _cpu_children() - cpu0, None,
                    proc.returncode, None)
    try:
        record = json.loads(raw)
        sample.setup_s = record["ready"] - start
        sample.trace = record
    except (ValueError, KeyError, TypeError):
        pass
    if err:
        sample.failure = ("traceback" if "Traceback" in err
                          else "stderr: " + err.strip().splitlines()[-1])
    elif sample.setup_s is None:
        sample.failure = "no report from the child process"
    else:
        try:
            sample.failure = op.check(proc.returncode, json.loads(out))
        except (ValueError, KeyError, TypeError, OSError) as exc:
            sample.failure = f"unexpected output: {exc!r}"
    return sample


def run_loop(ops: list[Op], deadline: float, kill_at: float, env: dict,
             traced: bool) -> list[float]:
    """Run the ops round-robin until the deadline, and at least once each.
    Traced, each op runs timed and then untraced.  The reference loop is
    timed before each op and once at the end; each untraced sample gets the
    host speed from the median of the REF_SPAN loop times on either side of
    it.  Returns every loop time, for the host record."""
    ref_s, plain = [], []
    for i, op in enumerate(itertools.cycle(ops)):
        ref_s.append(ref_loop())
        if traced:
            op.timed.append(execute(op, "timed", env, kill_at))
        plain.append(execute(op, "plain", env, kill_at))
        op.samples.append(plain[-1])
        if i + 1 >= len(ops) and _now() >= deadline:
            break
    ref_s.append(ref_loop())
    for i, sample in enumerate(plain):
        near = ref_s[max(0, i + 1 - REF_SPAN):i + 1 + REF_SPAN]
        sample.speed = REF_LOOP_S / statistics.median(near)
    return ref_s


def ref_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: a direct reading of how
    fast the host runs this interpreter right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Host record and reporting
# ---------------------------------------------------------------------------

def _proc_stat() -> Optional[dict]:
    """Cumulative iowait and steal ticks over all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return {"iowait": int(fields[5]), "steal": int(fields[8])}


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_record(stat0: Optional[dict], load0: list, ref_s: list) -> dict:
    stat1 = _proc_stat()
    delta = ({k: stat1[k] - stat0[k] for k in stat0}
             if stat0 and stat1 else {})
    return {
        "steal_ticks": delta.get("steal"), "iowait_ticks": delta.get("iowait"),
        "ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "loadavg_start": load0, "loadavg_end": list(os.getloadavg()),
        "ref_loop_ms_median": 1000 * statistics.median(ref_s),
        "ref_loop_ms_min": 1000 * min(ref_s),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }


def _median(xs):
    return statistics.median(xs) if xs else None


def _shown(v: Optional[float]) -> float:
    """A value for a table: nan when a failed op left it unmeasured."""
    return float("nan") if v is None else v


def _op_median(samples: list[Sample], attr: str) -> Optional[float]:
    return _median([getattr(s, attr) for s in samples
                    if getattr(s, attr) is not None])


def print_ops(ops: list[Op], traced: bool) -> None:
    print(f"{'op':52} {'n':>3} {'wall_s':>8} {'cpu_s':>8} {'setup_s':>8} "
          + ("traced_s " if traced else "") + "exit  result")
    for op in ops:
        bad = [s for s in op.all_samples() if s.failure is not None]
        cols = [_op_median(op.samples, a) for a in ("wall_s", "cpu_s",
                                                    "setup_s")]
        if traced:
            cols.append(_op_median(op.timed, "wall_s"))
        exits = sorted({s.exit for s in op.all_samples()}, key=str)
        result = "ok" if not bad else f"{len(bad)} failed: {bad[0].failure}"
        print(f"{op.label:52} {len(op.samples):>3} "
              + " ".join(f"{_shown(c):8.3f}" for c in cols)
              + f" {','.join(map(str, exits)):>4}  {result}")


def end_to_end(ops: list[Op], scale: bool) -> dict:
    """The end-to-end metrics: per op the median over the run's samples,
    summed over the workload's ops.  With `scale`, each sample's times are
    first scaled to the reference host speed."""
    def total(attr):
        meds = [_median([getattr(s, attr) * (s.speed if scale else 1.0)
                         for s in op.samples if getattr(s, attr) is not None])
                for op in ops]
        return None if None in meds else sum(meds)
    wall = total("wall_s")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (total("cpu_s"), "s"),
        "setup_s": (total("setup_s"), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "symbols_per_s": (sum(op.symbols for op in ops) / wall, "1/s"),
    }


def per_layer(ops: list[Op]) -> tuple[dict, list[str]]:
    """Per-layer metrics.  A self time is, per op, the median over its timed
    samples, summed over the ops; counts come from one timed sample per op
    and the hot-predicate counts from the count-only sample."""
    warnings = []
    timed = [[s.trace for s in op.timed if s.trace] for op in ops]
    counted = [op.counted.trace if op.counted else None for op in ops]
    records = [r for r in counted if r] + [r for rs in timed for r in rs]
    missing = sorted({m for r in records for m in r["missing"]})
    broken = {m for r in records for m in r["broken"]}
    warnings += [f"function {m} not found; its metrics are null"
                 for m in missing]
    warnings += [f"the result of a {m} function changed shape; its counters "
                 "are null" for m in sorted(broken)]
    values: dict = {}
    for layer in LAYERS:
        gone = not all(timed) or all(f"{layer.module}.{f}" in missing
                                     for f in layer.functions)
        values[layer.metric] = None if gone else sum(
            statistics.median(r["self_s"].get(layer.metric, 0.0) for r in rs)
            for rs in timed)
        for c in layer.counts:
            if gone or layer.metric in broken:
                values[c] = None
                continue
            for op, rs in zip(ops, timed):
                if len({r["counts"].get(c, 0) for r in rs}) > 1:
                    warnings.append(f"{c} differs between samples of "
                                    f"{op.label}")
            values[c] = sum(rs[0]["counts"].get(c, 0) for rs in timed)
    for module, name, calls, truthy in COUNTED:
        gone = not all(counted) or f"{module}.{name}" in missing
        for c in (calls, truthy):
            if c:
                values[c] = None if gone else sum(
                    r["counts"].get(c, 0) for r in counted)
    tests, found = (values["inversions.pair_tests"],
                    values["inversions.pairs_found"])
    values["inversions.pair_yield"] = (
        None if tests is None or found is None
        else found / tests if tests else 0.0)
    values["trace.overhead_s"] = sum(
        _op_median(op.timed, "wall_s") - _op_median(op.samples, "wall_s")
        for op in ops)
    return values, warnings


def print_layers(values: dict, ops: list[Op]) -> dict:
    traced_wall = sum(_op_median(op.timed, "wall_s") for op in ops)
    print(f"traced wall_s {traced_wall:.3f} s; share = self time / traced "
          "wall_s")
    print(f"{'metric':34} {'value':>14} {'unit':6} {'share':>6}  "
          "should move")
    metrics = {}
    for name, unit in per_layer_metrics():
        v = values[name]
        share = (f"{100 * v / traced_wall:5.1f}%"
                 if unit == "s" and v is not None
                 and name != "trace.overhead_s" else "")
        shown = "null" if v is None else (
            f"{v:.4f}" if isinstance(v, float) else str(v))
        print(f"{name:34} {shown:>14} {unit:6} {share:>6}  "
              f"{PREDICTIONS[name]}")
        metrics[name] = {"value": v, "unit": unit}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "untwist" / "cli.py").is_file():
        print(f"perfbench: no untwist sources under {SRC}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    start = _now()
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    rng = random.Random(args.seed)
    stat0, load0 = _proc_stat(), list(os.getloadavg())
    cert_dir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        ops = WORKLOADS[args.workload](rng, cert_dir)
        print(f"untwist benchmark: workload {args.workload}, seed "
              f"{args.seed}, {args.seconds:g} s, trace {args.trace}; "
              "closed loop, 1 client, 1 op at a time")
        for op in ops:
            if op.label.startswith("simulate-oneway"):
                print(f"input of {op.label}: {op.args[-1]}")
        deadline = _now() + args.seconds
        kill_at = start + RUN_LIMIT_S
        if args.trace:
            for op in ops:
                op.counted = execute(op, "counted", env, kill_at)
        ref_s = run_loop(ops, deadline, kill_at, env,
                         bool(args.trace))
    finally:
        shutil.rmtree(cert_dir, ignore_errors=True)

    samples = [s for op in ops for s in op.all_samples()]
    failed = sum(1 for s in samples if s.failure is not None)
    print_ops(ops, bool(args.trace))
    if args.trace:
        values, warnings = per_layer(ops)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        metrics = print_layers(values, ops)
    else:
        raw, e2e = end_to_end(ops, False), end_to_end(ops, True)
        print(f"{'metric':14} {'value':>12} {'raw':>12} unit  (value: "
              "scaled to the reference host speed)")
        for name, (v, unit) in e2e.items():
            print(f"{name:14} {_shown(v):12.4f} {_shown(raw[name][0]):12.4f} "
                  f"{unit}")
        print(f"{'error_ratio':14} {failed / len(samples):12.4f} "
              f"{'':12} ratio ({failed} of {len(samples)} ops failed)")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print("host: " + json.dumps(host_record(stat0, load0, ref_s)))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
