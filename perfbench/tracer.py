"""Outside-in per-layer tracer for one untwist CLI process.

The tracer replaces named library functions with timing wrappers at every
`untwist.*` module binding of them (modules import many of them by name,
and lazy `from .x import y` lookups read the module attribute), so no
source file of the library changes.  A span covers each call; for a
generator, a span covers each resumption.  A layer's self time is its
spans' duration minus the time covered by child spans.  Counts come from
return values where possible.

Two hot predicates are counted in a separate count-only pass
(`install(counting=True)`): wrapping them with timers multiplies their
cost and would distort every self time around them.

A function that no longer exists is reported as missing; the driver turns
the metrics that depend only on missing functions into null with a warning.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

clock = time.perf_counter


def _count_runs(counts, result, parent):
    counts["runs.enumerate_calls"] += 1
    if parent == "transducer.functional_check_s":
        counts["runs.enumerate_calls_precheck"] += 1
    counts["runs.runs_built"] += len(result)


def _count_interval(counts, result, parent):
    counts["effects.interval_calls"] += 1


def _count_loops(counts, result, parent):
    counts["loops.loops_found"] += len(result)
    counts["loops.idempotent_found"] += sum(1 for l in result if l.idempotent)


def _count_components(counts, result, parent):
    counts["loops.components_found"] += len(result)


def _count_anchored(counts, result, parent):
    counts["inversions.anchored_found"] += len(result)


def _count_period(counts, result, parent):
    counts["inversions.period_reports"] += 1


def _count_verdict(counts, result, parent):
    counts["oneway.inputs_searched"] += result.searched.get("inputs", 0)


def _count_pieces(counts, result, parent):
    if result.decomposition is not None:
        counts["decomposition.pieces"] += len(result.decomposition.pieces)


def _count_chain(counts, result, parent):
    counts["inversions.chains_yielded"] += 1


@dataclass(frozen=True)
class Layer:
    """One timed span kind: its self-time metric, the functions it wraps,
    and the counters it derives from their results."""
    metric: str
    module: str
    functions: tuple[str, ...]
    counts: tuple[str, ...] = ()
    count: Optional[Callable] = None
    generator: bool = False


LAYERS = (
    Layer("cli.self_s", "untwist.cli", ("run_cli",)),
    Layer("transducer.load_s", "untwist.transducer",
          ("parse_transducer", "validate")),
    Layer("transducer.functional_check_s", "untwist.transducer",
          ("check_functional_bounded",)),
    Layer("runs.enumerate_s", "untwist.runs", ("enumerate_runs",),
          ("runs.enumerate_calls", "runs.enumerate_calls_precheck",
           "runs.runs_built"), _count_runs),
    Layer("effects.interval_s", "untwist.effects", ("effect_of_interval",),
          ("effects.interval_calls",), _count_interval),
    Layer("loops.enumerate_s", "untwist.loops", ("enumerate_loops",),
          ("loops.loops_found", "loops.idempotent_found"), _count_loops),
    Layer("loops.components_s", "untwist.loops", ("components_of",),
          ("loops.components_found",), _count_components),
    Layer("loops.trace_s", "untwist.loops", ("trace_of",)),
    Layer("inversions.anchored_s", "untwist.inversions",
          ("anchored_components",), ("inversions.anchored_found",),
          _count_anchored),
    Layer("inversions.pair_s", "untwist.inversions",
          ("enumerate_inversions", "first_unsafe_inversion")),
    Layer("inversions.period_s", "untwist.inversions", ("period_report",),
          ("inversions.period_reports",), _count_period),
    Layer("inversions.chain_s", "untwist.inversions",
          ("enumerate_k_inversions",), ("inversions.chains_yielded",),
          _count_chain, generator=True),
    Layer("inversions.chain_safe_s", "untwist.inversions",
          ("k_inversion_safe",)),
    Layer("decomposition.coverage_s", "untwist.decomposition",
          ("coverage_classes",)),
    Layer("decomposition.build_s", "untwist.decomposition",
          ("build_decomposition",), ("decomposition.pieces",), _count_pieces),
    Layer("decomposition.diagonal_s", "untwist.decomposition",
          ("is_diagonal",)),
    Layer("decomposition.block_s", "untwist.decomposition",
          ("is_block", "block_interval")),
    Layer("oneway.decide_self_s", "untwist.oneway",
          ("decide_oneway_bounded", "decide_sweeping_bounded"),
          ("oneway.inputs_searched",), _count_verdict),
    Layer("oneway.simulate_self_s", "untwist.oneway", ("simulate_oneway",)),
    Layer("oneway.cert_build_s", "untwist.oneway",
          ("_member_record", "certificate_text")),
    Layer("oneway.cert_verify_s", "untwist.oneway",
          ("verify_certificate", "parse_certificate")),
    Layer("runs.replay_s", "untwist.runs", ("parse_run_dump", "validate_run")),
)

# Hot predicates, counted only in the count-only pass:
# (module, function, calls counter, counter of truthy results or None).
COUNTED = (
    ("untwist.inversions", "_pair_matches", "inversions.pair_tests",
     "inversions.pairs_found"),
    ("untwist.effects", "effect_product", "effects.product_calls", None),
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[list] = []     # [metric, start, child time]

    def _enter(self, metric):
        self._stack.append([metric, clock(), 0.0])

    def _exit(self):
        end = clock()
        metric, start, child = self._stack.pop()
        dur = end - start
        self.self_s[metric] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _counted(self, layer, result, parent):
        if layer.count is None or layer.metric in self.broken:
            return
        try:
            layer.count(self.counts, result, parent)
        except (AttributeError, TypeError, KeyError):
            # The result changed shape; the driver reports these counters
            # as null.  Writing to stderr here would fail the op's check.
            self.broken.add(layer.metric)

    def _wrap_call(self, layer, fn):
        def traced(*args, **kwargs):
            parent = self._parent()
            self._enter(layer.metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self._counted(layer, result, parent)
            return result
        return traced

    def _wrap_generator(self, layer, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = self._parent()
                self._enter(layer.metric)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self._counted(layer, item, parent)
                yield item
        return traced

    def _wrap_count(self, fn, calls, truthy):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if truthy is not None and result:
                counts[truthy] += 1
            return result
        return counted

    def install(self, counting: bool = False) -> None:
        """Patch the library in place; call after `import untwist.cli`."""
        if counting:
            for module, name, calls, truthy in COUNTED:
                _patch(module, name, self.missing,
                       partial(self._wrap_count, calls=calls, truthy=truthy))
            return
        for layer in LAYERS:
            wrap = self._wrap_generator if layer.generator else self._wrap_call
            for name in layer.functions:
                _patch(layer.module, name, self.missing, partial(wrap, layer))

    def report(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "missing": self.missing, "broken": sorted(self.broken)}


def _patch(module: str, name: str, missing: list, make) -> None:
    """Replace module.name by make(original) at every untwist binding of
    the original, or record it as missing."""
    mod = sys.modules.get(module)
    orig = getattr(mod, name, None)
    if not callable(orig):
        missing.append(f"{module}.{name}")
        return
    wrapper = make(orig)
    for mname, m in list(sys.modules.items()):
        if (mname == "untwist" or mname.startswith("untwist.")) \
                and getattr(m, name, None) is orig:
            setattr(m, name, wrapper)
