import pytest
from hypothesis import given, settings, strategies as st

from untwist.bounds import BoundFactored
from untwist.transducer import (ParseError, Transducer, Transition,
                                check_functional_bounded, constants,
                                parse_transducer, serialize_transducer,
                                validate)

from .conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture
from .oracles import independent_constants


def test_t_id_shape(t_id):
    assert len(t_id.states) == 2
    assert len(t_id.transitions) == 5


def test_roundtrip_fixtures():
    for name in FIXTURE_NAMES:
        text = (FIXTURE_DIR / f"{name}.tdx").read_text()
        t = parse_transducer(text)
        canon = serialize_transducer(t)
        assert parse_transducer(canon) == t
        assert serialize_transducer(parse_transducer(canon)) == canon


def test_serialize_single_initial_line(t_id):
    text = serialize_transducer(t_id)
    assert sum(1 for ln in text.splitlines() if ln.startswith("initial ")) == 1


def test_serialize_empty_outputs_quoted():
    t = Transducer("eps", ["a"], ["a"], ["q", "f"], "q", ["f"], [
        Transition("q", "|-", "R", "q", ()),
        Transition("q", "a", "R", "q", ()),
        Transition("q", "-|", "R", "f", ()),
    ])
    for ln in serialize_transducer(t).splitlines():
        if ln.startswith("t "):
            assert ln.endswith('""')


def test_parse_left_move_on_left_delimiter_rejected():
    text = ("transducer bad\ninput a\noutput a\nstates q0\ninitial q0\n"
            "final q0\nt q0 |- L q0 \"\"\n")
    with pytest.raises(ParseError, match="left move"):
        parse_transducer(text)


def test_parse_no_states():
    text = "transducer bad\ninput a\noutput a\nstates\ninitial q\nfinal\n"
    with pytest.raises(ParseError, match="no states"):
        parse_transducer(text)


def test_parse_undeclared_state():
    text = ("transducer bad\ninput a\noutput a\nstates q0\ninitial q0\n"
            "final q0\nt q0 a R q9 \"\"\n")
    with pytest.raises(ParseError, match="q9"):
        parse_transducer(text)


def test_parse_duplicate_state():
    text = "transducer bad\ninput a\noutput a\nstates q0 q0\ninitial q0\nfinal\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_transducer(text)


def test_parse_reserved_token_rejected():
    text = "transducer bad\ninput |-\noutput a\nstates q\ninitial q\nfinal q\n"
    with pytest.raises(ParseError, match="reserved"):
        parse_transducer(text)


def test_hash_symbol_escaping_roundtrip(t_running):
    assert "#" in t_running.input_symbols
    canon = serialize_transducer(t_running)
    assert parse_transducer(canon) == t_running


def test_hash_in_name_and_state_roundtrip():
    # `\#` is a literal hash in every token, so the canonical form escapes
    # it in the name and the states as it does in the symbols.
    t = parse_transducer('transducer x\\#y\ninput a\noutput a\n'
                         'states q\\#1\ninitial q\\#1\nfinal q\\#1\n'
                         't q\\#1 |- R q\\#1 ""\nt q\\#1 a R q\\#1 "a"\n'
                         't q\\#1 -| R q\\#1 ""\n')
    assert (t.name, t.states) == ("x#y", ("q#1",))
    canon = serialize_transducer(t)
    assert parse_transducer(canon) == t
    assert serialize_transducer(parse_transducer(canon)) == canon


@pytest.mark.parametrize("symbols", [("a", "\x02"), ("a", "\x03"),
                                     ("a", "b\x02"), ("a", "|-")],
                         ids=["stx", "etx", "stx-inside", "left-token"])
def test_validate_rejects_delimiter_symbols(symbols):
    # A symbol may not contain the character that encodes an end marker:
    # over a one-character alphabet it would be read as that marker.
    for inputs, outputs in ((symbols, ("a",)), (("a",), symbols)):
        t = Transducer("bad", inputs, outputs, ["q"], "q", ["q"], [
            Transition("q", "|-", "R", "q", ()),
            Transition("q", "a", "R", "q", ("a",)),
            Transition("q", "-|", "R", "q", ()),
        ])
        rep = validate(t)
        assert not rep.ok
        assert any("reserved for a delimiter" in i.message
                   for i in rep.errors())


def test_comment_stripping_respects_quotes():
    text = ('transducer c\ninput a \\#\noutput a \\#\nstates q f  # trailing\n'
            'initial q\nfinal f\n'
            't q |- R q ""\nt q \\# R q "#"  # emits a hash\n'
            't q a R q "a"  # copies "a"\nt q -| R f ""\n')
    t = parse_transducer(text)
    assert "#" in t.input_symbols
    tr = next(x for x in t.transitions if x.symbol == "#")
    assert tr.output == ("#",)
    tr = next(x for x in t.transitions if x.symbol == "a")
    assert tr.output == ("a",)


@pytest.mark.parametrize("header,lineno,message", [
    ('transducer c\ninput a\noutput a\nstates q" f  # two states\n', 4,
     "state 'q\"' contains '\"'"),
    ('transducer x"y\ninput a\noutput a\nstates f\n', 1,
     "name 'x\"y' contains '\"'"),
], ids=["state", "name"])
def test_quote_in_name_or_state_rejected(header, lineno, message):
    # A quote opens an output for the comment stripper, so a quote in a
    # state would turn the rest of its line, comment and all, into states.
    with pytest.raises(ParseError, match=message) as e:
        parse_transducer(header + 'initial f\nfinal f\n')
    assert e.value.line == lineno


def test_validate_rejects_quotes_in_name_and_states():
    t = Transducer('x"y', ["a"], ["a"], ["q", 'p"'], "q", ["q"], [
        Transition("q", "|-", "R", "q", ()),
        Transition("q", "-|", "R", "q", ()),
    ])
    rep = validate(t)
    assert [i.message for i in rep.errors()] == \
        ["name or states contain '\"': ['p\"', 'x\"y']"]


def test_validate_fixtures_ok():
    for name in FIXTURE_NAMES:
        rep = validate(load_fixture(name))
        assert rep.ok, (name, rep.issues)


def test_validate_right_move_on_right_delimiter_to_nonfinal():
    t = Transducer("bad", ["a"], ["a"], ["q0", "q1"], "q0", ["q1"], [
        Transition("q0", "-|", "R", "q0", ()),
    ])
    rep = validate(t)
    assert not rep.ok
    assert any("right move on -|" in i.message for i in rep.errors())


def test_validate_unreachable_final_warns():
    t = Transducer("warn", ["a"], ["a"], ["q0", "q1"], "q0", ["q1"], [
        Transition("q0", "a", "R", "q0", ("a",)),
    ])
    rep = validate(t)
    assert rep.ok
    assert any(i.severity == "warning" and "unreachable" in i.message
               for i in rep.issues)


def test_validate_delimiter_rule_mutations():
    base = load_fixture("T_MIRROR")
    bad = Transducer(base.name, base.input_symbols, base.output_symbols,
                     base.states, base.initial, base.finals,
                     base.transitions + (Transition("fwd", "|-", "L", "fwd",
                                                    ()),))
    assert not validate(bad).ok


# -- constants ---------------------------------------------------------------

def test_constants_small_closed_forms():
    t = Transducer("one", ["a"], ["a"], ["q"], "q", ["q"], [
        Transition("q", "a", "R", "q", ("a",)),
        Transition("q", "|-", "R", "q", ()),
    ])
    c = constants(t)
    assert (c.h_max, c.e_max) == (1, 4)
    b = c.bound_factored
    assert b == (1, 1, 12)
    assert b.admits(1 * 1 * (2 ** 12 + 4)) and not b.admits(4101)


def test_constants_three_states():
    t = Transducer("three", ["a"], ["a"], ["p", "q", "r"], "p", ["r"],
                   [Transition("p", "a", "R", "q", ("a",))])
    c = constants(t)
    assert c.h_max == 5
    assert c.e_max == 6 ** 10


def test_constants_bit_length_two_states():
    t = Transducer("two", ["a"], ["a"], ["p", "q"], "p", ["q"],
                   [Transition("p", "a", "R", "q", ("a", "a"))])
    c = constants(t)
    assert c.c_max == 2 and c.h_max == 3 and 3 * c.e_max == 12288
    # Cross-check against a separately written big-integer evaluation.
    h, e, bound = independent_constants(2, 2)
    assert (h, e) == (c.h_max, c.e_max)
    assert bound.bit_length() == 12291
    assert c.bound_factored.admits(bound)
    assert not c.bound_factored.admits(bound + 1)


@pytest.mark.parametrize("q,c_max", [(1, 0), (1, 1), (2, 1), (2, 3), (3, 2)])
def test_constants_match_independent_evaluation(q, c_max):
    states = [f"s{i}" for i in range(q)]
    t = Transducer("gen", ["a"], ["a"], states, states[0], [states[-1]],
                   [Transition(states[0], "a", "R", states[0],
                               ("a",) * c_max)])
    c = constants(t)
    h, e, bound = independent_constants(q, c_max)
    assert (c.h_max, c.e_max) == (h, e)
    if bound is not None:
        assert c.bound_factored.admits(bound)
        assert not c.bound_factored.admits(bound + 1)


def test_symbolic_bound_comparisons():
    b = BoundFactored(1, 1, 12)
    assert b.admits(4100) and not b.admits(4101)
    huge = BoundFactored(3, 5, 10 ** 9)
    assert huge.admits(10 ** 300)
    zero = BoundFactored(0, 5, 10 ** 9)
    assert not zero.admits(1) and zero.admits(0)


# -- bounded functionality check ----------------------------------------------

def test_functional_t_id(t_id):
    assert check_functional_bounded(t_id, 4) == ("functional-up-to", 4)


def test_functional_copy_abc(t_copy_abc):
    assert check_functional_bounded(t_copy_abc, 6) == ("functional-up-to", 6)


def test_functional_witness_at_empty_word():
    t = Transducer("two-out", ["x"], ["a", "b"], ["q0", "q1", "f"], "q0",
                   ["f"], [
        Transition("q0", "|-", "R", "q1", ("a",)),
        Transition("q0", "|-", "R", "q1", ("b",)),
        Transition("q1", "-|", "R", "f", ()),
    ])
    res = check_functional_bounded(t, 2)
    assert res[0] == "witness" and res[1] == ""
    assert {res[2], res[3]} == {"a", "b"}


# -- property: parse/serialize round trip on generated machines ---------------

@st.composite
def transducers(draw, max_transitions: int = 6):
    n_states = draw(st.integers(1, 3))
    states = [f"q{i}" for i in range(n_states)]
    sigma = draw(st.sets(st.sampled_from("ab"), min_size=1, max_size=2))
    gamma = draw(st.sets(st.sampled_from("xy"), min_size=1, max_size=2))
    finals = draw(st.sets(st.sampled_from(states), max_size=n_states))
    n_tr = draw(st.integers(0, max_transitions))
    trs = set()
    for _ in range(n_tr):
        src = draw(st.sampled_from(states))
        sym = draw(st.sampled_from(sorted(sigma) + ["|-", "-|"]))
        direction = draw(st.sampled_from("LR"))
        if sym == "|-":
            direction = "R"
        dst = draw(st.sampled_from(states))
        if sym == "-|" and direction == "R":
            if not finals:
                continue
            dst = draw(st.sampled_from(sorted(finals)))
        out = tuple(draw(st.lists(st.sampled_from(sorted(gamma)),
                                  max_size=2)))
        trs.add(Transition(src, sym, direction, dst, out))
    return Transducer(draw(st.sampled_from(["m1", "m2"])), sigma, gamma,
                      states, states[0], finals, trs)


@given(transducers())
@settings(max_examples=60, deadline=None)
def test_roundtrip_generated(t):
    canon = serialize_transducer(t)
    t2 = parse_transducer(canon)
    assert t2 == t
    assert serialize_transducer(t2) == canon
