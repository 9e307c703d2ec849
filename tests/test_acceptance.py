"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with -s to see them).  Every tolerance is pinned here.
"""
import itertools
import math
import random
import time

from untwist.effects import flow_of_interval, flow_product
from untwist.forest import build_forest, verify_forest
from untwist.inversions import fine_wilf_check, has_period
from untwist.loops import components_of, enumerate_loops, pump
from untwist.oneway import (decide_oneway_bounded, decide_sweeping_bounded,
                            simulate_oneway, verify_certificate)
from untwist.runs import enumerate_runs, validate_run
from untwist.transducer import Transducer, Transition

from .conftest import CORE_NAMES, domain_words
from .oracles import (component_factor_pattern, flow_partition, naive_runs,
                      predicted_pump_output, run_signature)
from .test_oneway import _mutate


def report(n: int, label: str, started: float, limit: float, detail: str = ""):
    elapsed = time.monotonic() - started
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n} [{label}]: PASS in {elapsed:.1f}s"
          f" (limit {limit:.0f}s){suffix}")
    assert elapsed < limit, f"criterion {n} exceeded its time budget"


def test_acceptance_01_flow_square(t_zigzag):
    started = time.monotonic()
    run = enumerate_runs(t_zigzag, t_zigzag.parse_input_text("m"))[0]
    f = flow_of_interval(run, 1, 2)
    assert f.edges == {(0, 1), (2, 0), (1, 3), (4, 2), (3, 4)}
    parts = flow_partition(flow_product(f, f))
    assert parts["LL"] == {(0, 1), (2, 3)}
    assert parts["RR"] == {(1, 2), (3, 4)}
    assert parts["LR"] == {(4, 0)}
    assert parts["RL"] == frozenset()
    report(1, "flow-product worked example", started, 1)


def test_acceptance_02_effect_homomorphism(fixtures):
    from untwist.effects import effect_of_interval, effect_product
    started = time.monotonic()
    checked = 0
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 6):
            for run in runs:
                omega = run.word.omega
                effects = {}
                for x1 in range(omega):
                    for x2 in range(x1 + 1, omega + 1):
                        effects[(x1, x2)] = effect_of_interval(run, x1, x2)
                for x1 in range(omega + 1):
                    for x2 in range(x1 + 1, omega + 1):
                        for x3 in range(x2 + 1, omega + 1):
                            assert effects[(x1, x3)] == effect_product(
                                effects[(x1, x2)], effects[(x2, x3)])
                            checked += 1
    report(2, "effect homomorphism |u|<=6", started, 120,
           f"{checked} triples")


def test_acceptance_03_pumping(fixtures):
    started = time.monotonic()
    checked = 0
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 6):
            for run in runs:
                for loop in enumerate_loops(run, idempotent_only=True):
                    comps = components_of(run, loop)
                    for m in (0, 1, 2):
                        word, pumped = pump(t, run, loop, m + 1)
                        assert validate_run(t, word, pumped)
                        assert pumped.output == \
                            predicted_pump_output(run, loop, comps, m)
                        checked += 1
    report(3, "pumping equality m in {0,1,2}", started, 300,
           f"{checked} pumped runs")


def test_acceptance_04_component_shapes(fixtures):
    started = time.monotonic()
    checked = 0
    for name in CORE_NAMES:
        t = fixtures[name]
        for raw, runs in domain_words(t, 6):
            for run in runs:
                for loop in enumerate_loops(run, idempotent_only=True):
                    for comp in components_of(run, loop):
                        nodes = comp.nodes
                        assert nodes == tuple(range(nodes[0], nodes[-1] + 1))
                        _, ok = component_factor_pattern(comp)
                        assert ok
                        checked += 1
    report(4, "component interval and factor pattern", started, 120,
           f"{checked} components")


def test_acceptance_05_forests(fixtures):
    started = time.monotonic()
    words = {"T_ID": ["abab", "aabb"], "T_COPY_ABC": ["abcabc"],
             "T_COPY_AB": ["abab", "ba"], "T_MIRROR": ["abab"],
             "T_RUNNING": ["abc#ab", "b#abc"]}
    built = 0
    rng = random.Random(20250810)
    runs = []
    for name in CORE_NAMES:
        t = fixtures[name]
        for word in words[name]:
            runs.append(enumerate_runs(t, t.parse_input_text(word))[0])
    for run in runs:
        omega = run.word.omega
        positions = range(omega + 1)
        for size in range(2, min(omega + 1, 12) + 1):
            for xs in itertools.combinations(positions, size):
                forest = build_forest(run, xs)
                assert verify_forest(run, forest)
                assert forest.height <= 3 * forest.closure_size
                built += 1
    for _ in range(1000):
        run = rng.choice(runs)
        omega = run.word.omega
        size = rng.randint(2, omega + 1)
        xs = tuple(sorted(rng.sample(range(omega + 1), size)))
        forest = build_forest(run, xs)
        assert verify_forest(run, forest)
        assert forest.height <= 3 * forest.closure_size
        built += 1
    report(5, "forest validity and height bound", started, 120,
           f"{built} forests")


def test_acceptance_06_fine_wilf_sweep():
    started = time.monotonic()
    words = []
    frontier = [""]
    for _ in range(10):
        frontier = [w + c for w in frontier for c in "ab"]
        words.extend(frontier)
    periods = {}
    for w in words:
        periods[w] = [p for p in range(1, len(w) + 1) if has_period(w, p)]
    by_period: dict[int, list[str]] = {}
    for w, ps in periods.items():
        for p in ps:
            by_period.setdefault(p, []).append(w)
    hypothesis_met = 0
    boundary_failures = 0
    for p1 in range(1, 11):
        for p2 in range(1, 11):
            g = math.gcd(p1, p2)
            theta = p1 + p2 - g
            for w1 in by_period.get(p1, ()):
                n1 = len(w1)
                if n1 < theta - 1:
                    continue
                for w2 in by_period.get(p2, ()):
                    n2 = len(w2)
                    if n2 < theta - 1:
                        continue
                    for i1 in range(0, n1 - theta + 2):
                        for i2 in range(0, n2 - theta + 2):
                            length = 0
                            while i1 + length < n1 and i2 + length < n2 \
                                    and w1[i1 + length] == w2[i2 + length]:
                                length += 1
                            for ln in range(theta - 1, length + 1):
                                if ln < 1:
                                    continue
                                if ln >= theta:
                                    assert fine_wilf_check(
                                        w1, p1, w2, p2, (i1, i2, ln))
                                    hypothesis_met += 1
                                else:
                                    w3 = w1[:i1] + w1[i1:i1 + ln] \
                                        + w2[i2 + ln:]
                                    if not (has_period(w1, g)
                                            and has_period(w2, g)
                                            and has_period(w3, g)):
                                        boundary_failures += 1
    assert boundary_failures > 0
    report(6, "Fine and Wilf sweep", started, 300,
           f"{hypothesis_met} confirmed, {boundary_failures} boundary "
           f"counterexamples")


def test_acceptance_07_definability_verdicts(fixtures):
    started = time.monotonic()
    v = decide_oneway_bounded(fixtures["T_COPY_AB"], 9)
    assert v.kind == "refuted" and len(v.certificate.input_text) == 2
    assert verify_certificate(fixtures["T_COPY_AB"], v.certificate)
    rng = random.Random(4242)
    for _ in range(10):
        assert not verify_certificate(fixtures["T_COPY_AB"],
                                      _mutate(v.certificate, rng))
    vm = decide_sweeping_bounded(fixtures["T_MIRROR"], 1, 9)
    assert vm.kind == "refuted" and len(vm.certificate.input_text) == 2
    assert verify_certificate(fixtures["T_MIRROR"], vm.certificate)
    for _ in range(10):
        assert not verify_certificate(fixtures["T_MIRROR"],
                                      _mutate(vm.certificate, rng))
    for name in ("T_ID", "T_COPY_ABC", "T_RUNNING"):
        verdict = decide_oneway_bounded(fixtures[name], 9)
        assert verdict.kind == "no-counterexample", name
    report(7, "definability verdicts", started, 600)


def test_acceptance_08_simulation_equivalence(fixtures):
    started = time.monotonic()
    simulated = 0
    for name in ("T_COPY_ABC", "T_RUNNING"):
        t = fixtures[name]
        for raw, runs in domain_words(t, 8):
            res = simulate_oneway(t, raw)
            assert res.present, (name, raw)
            assert res.output == runs[0].output
            positions = [e.position for e in res.transcript]
            assert positions == sorted(positions)
            simulated += 1
    t_ab = fixtures["T_COPY_AB"]
    res = simulate_oneway(t_ab, t_ab.parse_input_text("ab"))
    assert not res.present
    report(8, "one-way simulation equivalence", started, 600,
           f"{simulated} domain words")


def test_acceptance_09_sweeping(fixtures):
    started = time.monotonic()
    assert decide_sweeping_bounded(fixtures["T_MIRROR"], 2, 6).kind == \
        "no-counterexample"
    assert decide_sweeping_bounded(fixtures["T_MIRROR"], 1, 6).kind == \
        "refuted"
    for name in CORE_NAMES:
        t = fixtures[name]
        v1 = decide_oneway_bounded(t, 8)
        v2 = decide_sweeping_bounded(t, 1, 8)
        assert v1.kind == v2.kind, name
        if v1.kind == "refuted":
            assert v1.certificate.input_text == v2.certificate.input_text
            assert v1.certificate.members[0] == v2.certificate.members[0]
    report(9, "sweeping verdicts and k=1 collapse", started, 600)


def _random_transducer(rng: random.Random) -> Transducer:
    n_states = rng.randint(1, 2)
    states = [f"q{i}" for i in range(n_states)]
    sigma = sorted(rng.sample("ab", rng.randint(1, 2)))
    finals = [q for q in states if rng.random() < 0.6] or [states[-1]]
    transitions = set()
    for _ in range(rng.randint(1, 6)):
        sym = rng.choice(sigma + ["|-", "-|"])
        direction = rng.choice("LR")
        src = rng.choice(states)
        if sym == "|-":
            direction = "R"
        dst = rng.choice(finals) if (sym == "-|" and direction == "R") \
            else rng.choice(states)
        out = tuple(rng.choice("xy") for _ in range(rng.randint(0, 2)))
        transitions.add(Transition(src, sym, direction, dst, out))
    return Transducer("rnd", sigma, ["x", "y"], states, states[0], finals,
                      transitions)


def test_acceptance_10_small_instance_oracle():
    started = time.monotonic()
    rng = random.Random(20240229)
    compared = 0
    for _ in range(200):
        t = _random_transducer(rng)
        alphabet = sorted(t.table.encode_symbol(s) for s in t.input_symbols)
        for n in range(5):
            for tup in itertools.product(alphabet, repeat=n):
                raw = "".join(tup)
                mine = {run_signature(r) for r in enumerate_runs(t, raw)}
                assert mine == naive_runs(t, raw)
                compared += 1
    report(10, "small-instance oracle equivalence", started, 600,
           f"{compared} instances")
