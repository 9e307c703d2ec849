import pathlib
import sys

import pytest

from untwist.transducer import Transducer, parse_transducer

from .oracles import runs_upto

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = ["T_ID", "T_COPY_ABC", "T_COPY_AB", "T_MIRROR", "T_RUNNING",
                 "T_ZIGZAG", "T_THREECOMP"]

# The five fixtures with normative behavioural contracts.
CORE_NAMES = ["T_ID", "T_COPY_ABC", "T_COPY_AB", "T_MIRROR", "T_RUNNING"]


def load_fixture(name: str) -> Transducer:
    return parse_transducer((FIXTURE_DIR / f"{name}.tdx").read_text())


@pytest.fixture(scope="session")
def fixtures() -> dict[str, Transducer]:
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def t_id(fixtures):
    return fixtures["T_ID"]


@pytest.fixture(scope="session")
def t_copy_abc(fixtures):
    return fixtures["T_COPY_ABC"]


@pytest.fixture(scope="session")
def t_copy_ab(fixtures):
    return fixtures["T_COPY_AB"]


@pytest.fixture(scope="session")
def t_mirror(fixtures):
    return fixtures["T_MIRROR"]


@pytest.fixture(scope="session")
def t_running(fixtures):
    return fixtures["T_RUNNING"]


@pytest.fixture(scope="session")
def t_zigzag(fixtures):
    return fixtures["T_ZIGZAG"]


@pytest.fixture(scope="session")
def t_threecomp(fixtures):
    return fixtures["T_THREECOMP"]


def domain_words(t: Transducer, max_len: int):
    """All encoded words up to max_len that admit at least one run."""
    for word, runs in runs_upto(t, max_len):
        if runs:
            yield word, runs


def spy(monkeypatch, module, name: str) -> list[tuple]:
    """Record the positional arguments of every call of `module.name` made
    through any binding of that function in an untwist module."""
    calls = []
    orig = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "untwist" \
                and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, recorded)
    return calls
