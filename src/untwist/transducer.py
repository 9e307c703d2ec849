"""Two-way transducer data model, textual format, validation, and constants.

Words are handled internally as plain Python strings over a per-transducer
single-character encoding (identity for single-character alphabets, private
use area characters otherwise).  The two reserved delimiters get the control
characters STX/ETX, which no symbol may contain, so they never collide with
user symbols.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .bounds import BoundFactored, compare_on

LEFT_END = "\x02"   # input left delimiter
RIGHT_END = "\x03"  # input right delimiter
LEFT_TOKEN = "|-"
RIGHT_TOKEN = "-|"

LEFT, RIGHT = "L", "R"


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class Transition(NamedTuple):
    source: str
    symbol: str          # declared token, or "|-" / "-|"
    direction: str       # "L" or "R"
    target: str
    output: tuple[str, ...]   # declared output tokens


class ValidationIssue(NamedTuple):
    severity: str        # "error" | "warning"
    message: str
    where: str = ""


class ValidationReport(NamedTuple):
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return all(i.severity != "error" for i in self.issues)

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]


class SymbolTable:
    """Bidirectional symbol <-> char encoding shared by input and output."""

    def __init__(self, symbols: Iterable[str]):
        ordered = sorted(set(symbols))
        if all(len(s) == 1 for s in ordered):
            enc = {s: s for s in ordered}
            self._separator = ""
        else:
            enc = {s: chr(0xE000 + i) for i, s in enumerate(ordered)}
            # Once one symbol is longer than a character, every word is
            # written comma-separated, so `parse_input_text` reads it back.
            self._separator = ","
        enc[LEFT_TOKEN] = LEFT_END
        enc[RIGHT_TOKEN] = RIGHT_END
        self._enc = enc
        self._dec = {c: s for s, c in enc.items()}

    def encode(self, tokens: Iterable[str]) -> str:
        return "".join(self._enc[t] for t in tokens)

    def encode_symbol(self, token: str) -> str:
        return self._enc[token]

    def decode(self, chars: str) -> tuple[str, ...]:
        return tuple(self._dec[c] for c in chars)

    def render(self, chars: str) -> str:
        """Human form of an encoded word, its symbols joined by the table's
        separator."""
        return self._separator.join(self.decode(chars))


class Transducer:
    """A two-way word transducer with delimiter-aware transitions."""

    def __init__(self, name: str, input_symbols: Iterable[str],
                 output_symbols: Iterable[str], states: Iterable[str],
                 initial: str, finals: Iterable[str],
                 transitions: Iterable[Transition]):
        self.name = name
        self.input_symbols = tuple(sorted(set(input_symbols)))
        self.output_symbols = tuple(sorted(set(output_symbols)))
        self.states = tuple(sorted(set(states)))
        self.initial = initial
        self.finals = frozenset(finals)
        self.transitions = tuple(sorted(set(transitions)))
        self.table = SymbolTable(self.input_symbols + self.output_symbols)
        # Canonically ordered transition buckets, keyed by (state, encoded sym).
        self._delta: dict[tuple[str, str], list[tuple[Transition, str]]] = {}
        for t in self.transitions:
            key = (t.source, self.table.encode_symbol(t.symbol))
            self._delta.setdefault(key, []).append(
                (t, self.table.encode(t.output)))
        # At most one move per (state, symbol): each word has one run at most.
        self.deterministic = all(len(b) == 1 for b in self._delta.values())

    def moves(self, state: str, symbol_char: str) -> list[tuple[Transition, str]]:
        """Transitions applicable in `state` reading the encoded symbol."""
        return self._delta.get((state, symbol_char), [])

    @property
    def c_max(self) -> int:
        return max((len(t.output) for t in self.transitions), default=0)

    def parse_input_text(self, text: str) -> str:
        """Parse a user-supplied input word into its encoded form."""
        if text == "":
            return ""
        if "," in text or any(len(s) > 1 for s in self.input_symbols):
            tokens = text.split(",")
        else:
            tokens = list(text)
        for t in tokens:
            if t == "":
                raise ValueError(f"input {text!r} has an empty symbol")
            if t not in self.input_symbols:
                raise ValueError(f"symbol {t!r} is not in the input alphabet")
        return self.table.encode(tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Transducer) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self):
        return (self.name, self.input_symbols, self.output_symbols,
                self.states, self.initial, self.finals, self.transitions)

    def __repr__(self) -> str:
        return (f"Transducer({self.name!r}, |Q|={len(self.states)}, "
                f"|delta|={len(self.transitions)})")


@compare_on("state_count", "c_max", "h_max", "e_max")
class Constants(NamedTuple):
    """Exact derived sizes for a transducer; the bound, derived from them,
    stays out of == and hash."""

    state_count: int
    c_max: int
    h_max: int
    e_max: int
    bound_factored: BoundFactored


def constants(t: Transducer) -> Constants:
    q = len(t.states)
    h_max = 2 * q - 1
    e_max = (2 * q) ** (2 * h_max)
    return Constants(
        state_count=q,
        c_max=t.c_max,
        h_max=h_max,
        e_max=e_max,
        bound_factored=BoundFactored(t.c_max, h_max, 3 * e_max),
    )


# ---------------------------------------------------------------------------
# Textual format
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    """Cut an unquoted, unescaped '#' to end of line; unescape '\\#'."""
    out = []
    in_quote = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"':
            in_quote = not in_quote
            out.append(ch)
        elif ch == "\\" and i + 1 < len(line) and line[i + 1] == "#":
            out.append("#")
            i += 1
        elif ch == "#" and not in_quote:
            break
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def _reserved(symbol: str) -> bool:
    """A delimiter token, or a symbol containing a delimiter's encoding
    (a one-character alphabet encodes each symbol as itself)."""
    return symbol in (LEFT_TOKEN, RIGHT_TOKEN) or LEFT_END in symbol \
        or RIGHT_END in symbol


def _escape_token(tok: str) -> str:
    return tok.replace("#", "\\#")


def _parse_output(raw: str, output_symbols: tuple[str, ...],
                  lineno: int) -> tuple[str, ...]:
    if raw == "":
        return ()
    multi = any(len(s) > 1 for s in output_symbols)
    if "," in raw:
        tokens = raw.split(",")
    elif multi and raw in output_symbols:
        tokens = [raw]
    elif multi and len(raw) > 1:
        raise ParseError(
            "outputs over multi-character alphabets must be comma-separated",
            lineno)
    else:
        tokens = list(raw)
    for tok in tokens:
        if tok not in output_symbols:
            raise ParseError(f"output symbol {tok!r} not declared", lineno)
    return tuple(tokens)


def parse_transducer(text: str) -> Transducer:
    """Parse the line-based transducer format.  Raises ParseError."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if stripped:
            lines.append((i, stripped))
    if not lines:
        raise ParseError("empty file")

    def expect(idx: int, keyword: str) -> tuple[int, list[str]]:
        if idx >= len(lines):
            raise ParseError(f"missing '{keyword}' line", lines[-1][0])
        lineno, content = lines[idx]
        parts = content.split()
        if parts[0] != keyword:
            raise ParseError(f"expected '{keyword}', got {parts[0]!r}", lineno)
        return lineno, parts[1:]

    def check_quotes(kind: str, tokens: list[str], lineno: int) -> None:
        # A quote opens an output for `_strip_comment`, so a quote in any
        # other token would hide the line's comment.
        for tok in tokens:
            if '"' in tok:
                raise ParseError(f"{kind} {tok!r} contains '\"'", lineno)

    lineno, rest = expect(0, "transducer")
    check_quotes("name", rest, lineno)
    if len(rest) != 1:
        raise ParseError("expected 'transducer <name>'", lineno)
    name = rest[0]

    def check_symbols(syms: list[str], lineno: int) -> None:
        for s in syms:
            if _reserved(s):
                raise ParseError(f"symbol {s!r} is reserved for a delimiter",
                                 lineno)
            # Words over multi-character symbols are written comma-separated,
            # and outputs and words are quoted.
            for ch in ',"':
                if ch in s:
                    raise ParseError(f"symbol {s!r} contains {ch!r}", lineno)

    lineno, in_syms = expect(1, "input")
    check_symbols(in_syms, lineno)
    if len(set(in_syms)) != len(in_syms):
        raise ParseError("duplicate input symbol", lineno)

    lineno, out_syms = expect(2, "output")
    if len(set(out_syms)) != len(out_syms):
        raise ParseError("duplicate output symbol", lineno)
    check_symbols(out_syms, lineno)

    lineno, states = expect(3, "states")
    check_quotes("state", states, lineno)
    if not states:
        raise ParseError("no states", lineno)
    if len(set(states)) != len(states):
        raise ParseError("duplicate state declaration", lineno)

    lineno, initial = expect(4, "initial")
    if len(initial) != 1:
        raise ParseError("expected 'initial <id>'", lineno)
    if initial[0] not in states:
        raise ParseError(f"initial state {initial[0]!r} not declared", lineno)

    lineno, finals = expect(5, "final")
    for f in finals:
        if f not in states:
            raise ParseError(f"final state {f!r} not declared", lineno)

    transitions = []
    seen = set()
    out_tuple = tuple(sorted(set(out_syms)))
    for lineno, content in lines[6:]:
        parts = content.split(maxsplit=5)
        if parts[0] != "t":
            raise ParseError(f"expected transition line, got {parts[0]!r}",
                             lineno)
        if len(parts) != 6:
            raise ParseError("expected 't <from> <sym> <L|R> <to> \"<out>\"'",
                             lineno)
        _, src, sym, direction, dst, out_raw = parts
        if src not in states:
            raise ParseError(f"state {src!r} not declared", lineno)
        if dst not in states:
            raise ParseError(f"state {dst!r} not declared", lineno)
        if direction not in (LEFT, RIGHT):
            raise ParseError(f"direction must be L or R, got {direction!r}",
                             lineno)
        if sym not in in_syms and sym not in (LEFT_TOKEN, RIGHT_TOKEN):
            raise ParseError(f"input symbol {sym!r} not declared", lineno)
        if sym == LEFT_TOKEN and direction == LEFT:
            raise ParseError("left move on |-", lineno)
        if not (out_raw.startswith('"') and out_raw.endswith('"')
                and len(out_raw) >= 2):
            raise ParseError("output must be quoted", lineno)
        output = _parse_output(out_raw[1:-1], out_tuple, lineno)
        tr = Transition(src, sym, direction, dst, output)
        if tr in seen:
            raise ParseError("duplicate transition", lineno)
        seen.add(tr)
        transitions.append(tr)

    return Transducer(name, in_syms, out_syms, states, initial[0], finals,
                      transitions)


def serialize_transducer(t: Transducer) -> str:
    """Canonical text form: sections fixed, symbol/state lists sorted."""
    def joined(tokens) -> str:
        return " ".join(map(_escape_token, tokens))

    lines = [f"transducer {_escape_token(t.name)}",
             "input " + joined(t.input_symbols),
             "output " + joined(t.output_symbols),
             "states " + joined(t.states),
             f"initial {_escape_token(t.initial)}",
             "final " + joined(sorted(t.finals))]
    multi = any(len(s) > 1 for s in t.output_symbols)
    for tr in t.transitions:
        out = ",".join(tr.output) if multi else "".join(tr.output)
        fields = joined((tr.source, tr.symbol, tr.direction, tr.target))
        lines.append(f"t {fields} \"{out}\"")
    return "\n".join(lines) + "\n"


def validate(t: Transducer) -> ValidationReport:
    """Structural checks; delimiter-rule violations are errors."""
    issues: list[ValidationIssue] = []

    def err(msg: str, where: str = "") -> None:
        issues.append(ValidationIssue("error", msg, where))

    def warn(msg: str, where: str = "") -> None:
        issues.append(ValidationIssue("warning", msg, where))

    if not t.states:
        err("no states")
    if t.initial not in t.states:
        err(f"initial state {t.initial!r} not declared")
    for f in t.finals:
        if f not in t.states:
            err(f"final state {f!r} not declared")
    reserved = {s for s in t.input_symbols + t.output_symbols if _reserved(s)}
    if reserved:
        err(f"symbols reserved for a delimiter: {sorted(reserved)}")
    quoted = [tok for tok in (t.name, *t.states) if '"' in tok]
    if quoted:
        err(f"name or states contain '\"': {sorted(quoted)}")

    for tr in t.transitions:
        where = f"t {tr.source} {tr.symbol} {tr.direction} {tr.target}"
        if tr.source not in t.states or tr.target not in t.states:
            err("transition references undeclared state", where)
        if tr.symbol not in t.input_symbols and tr.symbol not in (LEFT_TOKEN,
                                                                  RIGHT_TOKEN):
            err("transition reads undeclared symbol", where)
        for o in tr.output:
            if o not in t.output_symbols:
                err(f"output symbol {o!r} not declared", where)
        if tr.symbol == LEFT_TOKEN and tr.direction == LEFT:
            err("left move on |-", where)
        if (tr.symbol == RIGHT_TOKEN and tr.direction == RIGHT
                and tr.target not in t.finals):
            # A right move past -| ends the run; a non-final target can never
            # act, so such a transition is dead weight and likely a mistake.
            err("right move on -| into a non-final state", where)

    # Reachability over the state graph, ignoring head position.
    adj: dict[str, set[str]] = {q: set() for q in t.states}
    for tr in t.transitions:
        if tr.source in adj:
            adj[tr.source].add(tr.target)
    seen = set()
    stack = [t.initial] if t.initial in adj else []
    while stack:
        q = stack.pop()
        if q in seen:
            continue
        seen.add(q)
        stack.extend(adj[q] - seen)
    for q in t.states:
        if q not in seen:
            warn(f"state {q!r} unreachable from the initial state", q)
    if t.finals and not (t.finals & seen):
        warn("no final state is reachable")
    if not t.finals:
        warn("no final states: the domain is empty")

    return ValidationReport(tuple(issues))


def check_functional_bounded(t: Transducer, max_len: int, *,
                             cap_runs: int = 10**5):
    """Exhaustively test single-valuedness on all inputs up to max_len.

    Returns either ("functional-up-to", max_len) or ("witness", word, out1,
    out2): two distinct outputs for one input, all three rendered.
    """
    from . import runs as _runs  # local import: runs depends on this module

    for word, arrivals, _ in _runs.arrivals_upto(t, max_len,
                                                 cap_runs=cap_runs):
        conflict = _runs.output_conflict(arrivals)
        if conflict is not None:
            return ("witness", t.table.render(word),
                    *map(t.table.render, conflict))
    return ("functional-up-to", max_len)
