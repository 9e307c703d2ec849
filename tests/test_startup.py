"""Start-up cost of a CLI process: which modules it loads, the records that
every subcommand defines on import, and the module-level state they keep."""
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from untwist import bounds, decomposition, effects, forest, inversions, \
    loops, oneway, runs, transducer
from untwist.bounds import BoundFactored
from untwist.decomposition import Decomposition
from untwist.effects import Effect, Flow
from untwist.oneway import Verdict
from untwist.transducer import Constants

ROOT = pathlib.Path(__file__).resolve().parent.parent

# `untwist.__all__` before the package resolved its names lazily, plus
# `inversions_of` and `inversion_safe`, exported since, less `check_p2`,
# `is_output_minimal`, `validate_decomposition`, `predicted_pump_output`,
# `has_dividing_period` and `words_upto`, which only the tests use and which
# moved to `tests/oracles.py`, and less
# `PeriodIndex` and `KInversion`: safety is checked per inversion, and a
# chain is a tuple of inversions.
PUBLIC_NAMES = (
    "BOTTOM", "BoundFactored", "CapExceeded", "Decomposition", "Effect",
    "FactorizationForest", "Flow", "Inversion", "Loop", "PeriodBound",
    "RamseyWitness", "RefutationCertificate",
    "Run", "Transducer", "Transition", "ValidationReport", "Verdict",
    "block_interval", "bound_admits", "bounds", "build_decomposition",
    "build_forest", "check_functional_bounded", "components_of",
    "constants", "coverage_classes", "decide_oneway_bounded",
    "decide_sweeping_bounded", "decomposition", "dump_run",
    "effect_of_interval", "effect_product", "effects", "enumerate_inversions",
    "enumerate_k_inversions", "enumerate_loops", "enumerate_runs",
    "fine_wilf_check", "flow_of_interval", "flow_product", "forest",
    "inversion_safe", "inversion_word", "inversions",
    "inversions_of",
    "is_block",
    "is_diagonal", "is_idempotent", "k_inversion_safe",
    "loops", "oneway", "parse_transducer", "pump",
    "ramsey_extract", "runs", "serialize_transducer",
    "simulate_oneway", "smallest_period", "trace_of", "transducer",
    "validate", "validate_run",
    "verify_certificate", "verify_forest",
)


def fresh(code: str):
    """Run `code` in a fresh interpreter with the source tree on the path;
    the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["decide", "oneway", "fixtures/T_ID.tdx", "--max-len", "3"],
    ["simulate-oneway", "fixtures/T_COPY_ABC.tdx", "--input", "abcabc"],
])
def test_cli_loads_no_dataclasses_hashlib_or_forest(argv):
    code, loaded = fresh(
        "import json, sys\n"
        "from untwist.cli import run_cli\n"
        f"code = run_cli({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    assert code == 0
    assert not {"dataclasses", "hashlib", "untwist.forest"} & set(loaded)


@pytest.mark.skipif(not any(map(importlib.util.find_spec,
                               ("_sha256", "_sha2"))),
                    reason="the interpreter has no built-in SHA-256 module")
@pytest.mark.parametrize("argv,expected", [
    (["decide", "oneway", "fixtures/T_COPY_AB.tdx", "--max-len", "3",
      "--cert", "{cert}"], 1),
    (["verify-cert", "fixtures/T_COPY_AB.tdx", "--cert",
      "tests/golden/certs/T_COPY_AB.oneway.cert"], 0),
])
def test_certificate_commands_load_no_hashlib(argv, expected, tmp_path):
    # hashlib loads libcrypto; the digest uses the built-in module instead.
    argv = [a.format(cert=tmp_path / "out.cert") for a in argv]
    code, loaded = fresh(
        "import json, sys\n"
        "from untwist.cli import run_cli\n"
        f"code = run_cli({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    assert code == expected
    assert not {"hashlib", "_hashlib"} & set(loaded)


def test_bare_package_import_loads_no_submodule():
    loaded = fresh("import json, sys, untwist\n"
                   "print(json.dumps(sorted(sys.modules)))\n")
    assert [m for m in loaded if m.startswith("untwist.")] == []


def test_cli_import_loads_every_traced_module():
    # perfbench's tracer finds the functions it wraps in sys.modules.
    missing = fresh(
        "import json, sys\n"
        "import untwist.cli\n"
        "loaded = set(sys.modules)\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import COUNTED, LAYERS\n"
        "wanted = {l.module for l in LAYERS} | {c[0] for c in COUNTED}\n"
        "print(json.dumps(sorted(wanted - loaded)))\n")
    assert missing == []


def test_every_public_name_still_imports():
    names, listed, star = fresh(
        "import json, untwist\n"
        f"for name in {PUBLIC_NAMES!r}:\n"
        "    exec(f'from untwist import {name}')\n"
        "ns = {}\n"
        "exec('from untwist import *', ns)\n"
        "print(json.dumps([sorted(untwist.__all__), sorted(dir(untwist)),\n"
        "                  sorted(n for n in ns if n != '__builtins__')]))\n")
    assert names == star == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(listed)


def _records():
    for module in (bounds, transducer, runs, effects, loops, inversions,
                   decomposition, oneway, forest):
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ \
                    and issubclass(obj, tuple):
                yield obj


def test_records_refuse_attribute_assignment():
    records = list(_records())
    assert len(records) == 30 and Effect in records
    for cls in records:
        record = cls._make([None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], 1)
    effect = Effect(Flow(1, 1, frozenset({(0, 0)})), ("q",), ("q",))
    for name in ("flow", "c1", "other"):
        with pytest.raises(AttributeError):
            setattr(effect, name, None)
    with pytest.raises(AttributeError):
        del effect.flow


def test_effect_equality_is_by_value():
    flow = Flow(1, 1, frozenset({(0, 0)}))
    a, b = Effect(flow, ("q",), ("q",)), Effect(flow, ("q",), ("q",))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Effect(flow, ("p",), ("q",))


def test_no_module_level_container_grows():
    # Deciding, simulating and building a forest leave the size of every
    # module-level dict, list and set of the library as it was.
    before, after = fresh(
        "import json, sys\n"
        "import untwist.cli, untwist.forest\n"
        "from untwist import (build_forest, decide_oneway_bounded,\n"
        "                     enumerate_runs, parse_transducer,\n"
        "                     simulate_oneway)\n"
        "def sizes():\n"
        "    return {f'{m}.{k}': len(v) for m, mod in sys.modules.items()\n"
        "            if m.startswith('untwist')\n"
        "            for k, v in vars(mod).items()\n"
        "            if not k.startswith('__')\n"
        "            and isinstance(v, (dict, list, set))}\n"
        "def load(name):\n"
        "    with open(f'fixtures/{name}.tdx') as fh:\n"
        "        return parse_transducer(fh.read())\n"
        "before = sizes()\n"
        "copy, running = load('T_COPY_ABC'), load('T_RUNNING')\n"
        "decide_oneway_bounded(copy, 5)\n"
        "decide_oneway_bounded(running, 5)\n"
        "simulate_oneway(copy, 'abcabc')\n"
        "run = enumerate_runs(copy, 'abcabc')[0]\n"
        "build_forest(run, range(run.word.omega + 1))\n"
        "print(json.dumps([before, sizes()]))\n")
    assert before and after == before


def test_uncompared_fields_stay_out_of_eq_and_hash():
    c1 = Constants(1, 1, 1, 1, BoundFactored(1, 1, 3))
    c2 = c1._replace(bound_factored=BoundFactored(2, 2, 6))
    assert c1 == c2 and not c1 != c2 and hash(c1) == hash(c2)
    assert c1 != c1._replace(h_max=2)
    assert c1 != tuple(c1)
    d = Decomposition((), 1)
    assert d == Decomposition((), 2) and hash(d) == hash(Decomposition((), 2))
    v = Verdict("no-counterexample", 3, None, {"inputs": 15})
    assert v == Verdict("no-counterexample", 3) and \
        hash(v) == hash(Verdict("no-counterexample", 3))
    assert v != v._replace(note="x")
    assert Verdict("refuted", 1).searched == {}
