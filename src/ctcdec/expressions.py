"""Expression-constrained decoding (scheme ``dec-ce``).

A deterministic finite automaton over symbol classes restricts the shape
of decoded strings: words are maximal letter runs, punctuation attaches to
word boundaries, digit groups form number expressions, and line-initial
capitalization can be required. No dictionary is involved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .alphabet import Alphabet
from .ctc import NEG_INF
from .errors import EmptyLanguage, InvalidRule
from .matrix import ConfidenceMatrix
from .search import Compiled, _frozen, _hypothesis, prefix_beam_search
from .types import Hypothesis

CLASS_UPPER = "uppercase"
CLASS_LOWER = "lowercase"
CLASS_DIGIT = "digit"
CLASS_ATTACH = "punct_attach"
CLASS_INWORD = "punct_inword"
CLASS_STANDALONE = "punct_standalone"
CLASS_SEPARATOR = "separator"

KNOWN_CLASSES = (
    CLASS_UPPER,
    CLASS_LOWER,
    CLASS_DIGIT,
    CLASS_ATTACH,
    CLASS_INWORD,
    CLASS_STANDALONE,
    CLASS_SEPARATOR,
)

_MODES = ("lenient", "strict")

#: Arcs that open a word or a number.
_OPEN = {CLASS_UPPER: "w_cap", CLASS_LOWER: "w_lower", CLASS_DIGIT: "num"}
#: Arcs out of every word state.
_WORD_END = {CLASS_INWORD: "w_conn", CLASS_ATTACH: "post", CLASS_SEPARATOR: "gap"}

#: The automaton with every rule at its default, as ``state -> {class: next
#: state}``. "pre_start" and "pre" hold leading attached punctuation; a
#: word is all-lowercase, Capitalized or ALL-CAPS, and a connector restarts
#: its shape once a letter follows.
_STOCK = {
    "start": {**_OPEN, CLASS_ATTACH: "pre_start", CLASS_STANDALONE: "standalone"},
    "pre_start": {**_OPEN, CLASS_ATTACH: "pre_start"},
    "gap": {**_OPEN, CLASS_ATTACH: "pre", CLASS_STANDALONE: "standalone"},
    "pre": {**_OPEN, CLASS_ATTACH: "pre"},
    "w_lower": {CLASS_LOWER: "w_lower", **_WORD_END},
    "w_cap": {CLASS_LOWER: "w_caplow", CLASS_UPPER: "w_upper", **_WORD_END},
    "w_caplow": {CLASS_LOWER: "w_caplow", **_WORD_END},
    "w_upper": {CLASS_UPPER: "w_upper", **_WORD_END},
    "w_conn": {CLASS_LOWER: "w_lower", CLASS_UPPER: "w_cap"},
    "num": {CLASS_DIGIT: "num", CLASS_ATTACH: "post", CLASS_SEPARATOR: "gap"},
    "post": {CLASS_ATTACH: "post", CLASS_SEPARATOR: "gap"},
    "standalone": {CLASS_SEPARATOR: "gap"},
}
_STOCK_ACCEPTING = frozenset({"start", "w_lower", "w_cap", "w_caplow", "w_upper", "num", "post", "standalone"})


@dataclass(frozen=True)
class ExpressionModel:
    """Deterministic FSA over symbol classes.

    ``transitions`` maps ``(state, class)`` to the next state (absent key =
    dead end); ``symbol_classes`` assigns every printable symbol to exactly
    one class.
    """

    start: str
    transitions: Mapping[tuple[str, str], str]
    accepting: frozenset[str]
    symbol_classes: Mapping[str, str]
    #: The compiled table of each alphabet decoded with, made on the first
    #: decode (:meth:`_table`).
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def live_states(self) -> frozenset[str]:
        """States from which some accepting state is reachable."""
        inverse: dict[str, set[str]] = {}
        for (src, _), dst in self.transitions.items():
            inverse.setdefault(dst, set()).add(src)
        live = set(self.accepting)
        frontier = list(live)
        while frontier:
            state = frontier.pop()
            for prev in inverse.get(state, ()):
                if prev not in live:
                    live.add(prev)
                    frontier.append(prev)
        return frozenset(live)

    def step(self, state: str, symbol: str) -> str | None:
        cls = self.symbol_classes.get(symbol)
        if cls is None:
            return None
        return self.transitions.get((state, cls))

    def accepts(self, text: str) -> bool:
        state = self.start
        for ch in text:
            state = self.step(state, ch)
            if state is None:
                return False
        return state in self.accepting

    def _table(self, alphabet: Alphabet) -> Compiled:
        """The model over ``alphabet`` as one compiled table, made on the
        first call and kept for every later one; a model that does not fit
        the alphabet raises on every call, and nothing is kept for it.

        The table has the rows of every live state, the start state as id
        0: a row holds the symbols that step to a live state. It has no
        weights or ranks (it is not ``weighted``, so the search scores by
        mass alone), and an accepting state's ``final`` is 0."""
        key = (alphabet.symbols, alphabet.nac_index)
        if key not in self._tables:
            self.validate(alphabet)
            states = [self.start, *sorted(self.live_states - {self.start})]
            ids = {state: i for i, state in enumerate(states)}
            names = [alphabet.symbols[s] for s in alphabet.printable_indices]
            rows = [
                [(cell, ids[nxt]) for cell, name in enumerate(names, 1) if (nxt := self.step(state, name)) in ids]
                for state in states
            ]
            # Row by row, each after a slot for its stay; transposed and
            # copied, so that each array is contiguous.
            offset, child = np.array([arc for row in rows for arc in ((0, 0), *row)], dtype=np.intp).T.copy()
            length = np.array([len(row) for row in rows], dtype=np.intp)
            final = np.array([0.0 if state in self.accepting else NEG_INF for state in states])
            self._tables[key] = _frozen(np.zeros(len(states)), final, length, offset, child, np.zeros(offset.size), key)
        return self._tables[key]

    def validate(self, alphabet: Alphabet) -> None:
        """Check the partition and reachability invariants."""
        printable = alphabet.printable_symbols
        assigned = set(self.symbol_classes)
        missing = printable - assigned
        if missing:
            raise InvalidRule(f"symbols not assigned to a class: {sorted(missing)!r}")
        extra = assigned - printable
        if extra:
            raise InvalidRule(f"classes mention symbols outside the alphabet: {sorted(extra)!r}")
        if self.start not in self.live_states:
            raise EmptyLanguage("no accepting state is reachable from the start state")


@dataclass(frozen=True)
class RuleConfig:
    """Declarative rule set compiled into an :class:`ExpressionModel`.

    ``classes`` maps class names to symbol sets (a partition of the
    printable alphabet). ``line_start_capital`` is ``"lenient"`` (a line
    may start with any letter; lines often begin mid-sentence) or
    ``"strict"`` (the first word must start with a capital).
    """

    classes: Mapping[str, frozenset[str]] = field(default_factory=dict)
    line_start_capital: str = "lenient"
    attach_punctuation: bool = True
    digits_form_numbers: bool = True


def default_rule_config(alphabet: Alphabet) -> RuleConfig:
    """Classify the alphabet's printable symbols with the stock policy.

    Apostrophe and hyphen act as in-word connectors (contractions,
    compounds); quotes, stops and brackets attach to word boundaries; a
    handful of signs stand alone.
    """
    classes: dict[str, set[str]] = {name: set() for name in KNOWN_CLASSES}
    for sym in sorted(alphabet.printable_symbols):
        if sym == alphabet.separator:
            classes[CLASS_SEPARATOR].add(sym)
        elif sym.isupper():
            classes[CLASS_UPPER].add(sym)
        elif sym.islower():
            classes[CLASS_LOWER].add(sym)
        elif sym.isdigit():
            classes[CLASS_DIGIT].add(sym)
        elif sym in "'-":
            classes[CLASS_INWORD].add(sym)
        elif sym in "&+=/_":
            classes[CLASS_STANDALONE].add(sym)
        else:
            classes[CLASS_ATTACH].add(sym)
    return RuleConfig(classes={name: frozenset(syms) for name, syms in classes.items()})


def compile_rules(config: RuleConfig, alphabet: Alphabet) -> ExpressionModel:
    """Compile a rule set into a deterministic FSA: a copy of the stock
    table, with one edit for each rule that is not at its default.

    The empty string is always accepted (an empty line is valid). Raises
    :class:`InvalidRule` for unknown classes, symbols outside the
    alphabet, overlapping classes, or uncovered symbols;
    :class:`EmptyLanguage` if no accepting state is reachable.
    """
    if config.line_start_capital not in _MODES:
        raise InvalidRule(f"line_start_capital must be one of {_MODES}, got {config.line_start_capital!r}")
    printable = alphabet.printable_symbols
    symbol_classes: dict[str, str] = {}
    for name, syms in config.classes.items():
        if name not in KNOWN_CLASSES:
            raise InvalidRule(f"unknown symbol class {name!r}")
        for sym in syms:
            if sym not in printable:
                raise InvalidRule(f"class {name!r} lists {sym!r}, which is not a printable alphabet symbol")
            if sym in symbol_classes:
                raise InvalidRule(f"symbol {sym!r} assigned to both {symbol_classes[sym]!r} and {name!r}")
            symbol_classes[sym] = name

    states = {state: dict(arcs) for state, arcs in _STOCK.items()}
    accepting = set(_STOCK_ACCEPTING)
    if config.line_start_capital == "strict":
        for state in ("start", "pre_start"):
            del states[state][CLASS_LOWER]
    if not config.digits_form_numbers:
        del states["num"]
        accepting.discard("num")
        states = {state: {cls: nxt for cls, nxt in arcs.items() if nxt != "num"} for state, arcs in states.items()}
    if not config.attach_punctuation:
        # Leading punctuation may also stand on its own.
        for state in ("pre_start", "pre"):
            states[state][CLASS_SEPARATOR] = "gap"
        accepting.update(("pre_start", "pre"))

    model = ExpressionModel(
        start="start",
        transitions={(state, cls): nxt for state, arcs in states.items() for cls, nxt in arcs.items()},
        accepting=frozenset(accepting),
        symbol_classes=symbol_classes,
    )
    model.validate(alphabet)
    return model


#: Each ``rule`` directive names the :class:`RuleConfig` field it sets
#: and maps the spellings of its value to the field's values.
_RULES = {
    "line_start_capital": {mode: mode for mode in _MODES},
    "attach_punctuation": {"on": True, "off": False},
    "digits_form_numbers": {"on": True, "off": False},
}


def parse_rules(text: str) -> RuleConfig:
    """Parse the rule file format.

    One directive per line; a ``#`` starts a comment. ``class <name>
    <symbols>`` lists a class's symbols with ``\\s`` escaping the space
    symbol, ``\\#`` a ``#`` and ``\\\\`` a backslash. ``rule
    line_start_capital strict|lenient``, ``rule attach_punctuation
    on|off`` and ``rule digits_form_numbers on|off`` set the named rules.
    """
    classes: dict[str, set[str]] = {}
    rules = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Up to the first ``#`` that is not escaped.
        line = re.match(r"(?:[^\\#]|\\.)*\\?", raw)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "class" and len(parts) == 3:
            # The inverse of format_rules' escaping.
            syms = re.sub(r"\\([s#\\])", lambda m: " " if m[1] == "s" else m[1], parts[2])
            classes.setdefault(parts[1], set()).update(syms)
        elif parts[0] == "rule" and len(parts) == 3:
            name, value = parts[1], parts[2]
            if name not in _RULES:
                raise InvalidRule(f"line {lineno}: unknown rule {name!r}")
            if value not in _RULES[name]:
                raise InvalidRule(f"line {lineno}: rule {name} takes {' or '.join(_RULES[name])}")
            rules[name] = _RULES[name][value]
        else:
            raise InvalidRule(f"line {lineno}: cannot parse {raw!r}")
    return RuleConfig(classes={name: frozenset(syms) for name, syms in classes.items()}, **rules)


def format_rules(config: RuleConfig) -> str:
    """Serialize a rule config in the rule file format."""
    lines = []
    for name in KNOWN_CLASSES:
        syms = config.classes.get(name)
        if syms:
            listed = "".join(sorted(syms)).replace("\\", "\\\\").replace(" ", "\\s").replace("#", "\\#")
            lines.append(f"class {name} {listed}")
    for name, spellings in _RULES.items():
        value = getattr(config, name)
        lines.append(f"rule {name} {next((s for s, v in spellings.items() if v == value), value)}")
    return "\n".join(lines) + "\n"


def decode_expression(
    matrix: ConfidenceMatrix,
    model: ExpressionModel,
    beam_width: int | None = 64,
    min_symbol_prob: float = 0.0,
) -> Hypothesis:
    """Most confident string accepted by the expression model.

    Scores are string marginals over the explored prefixes; with
    ``beam_width=None`` the result is the exact constrained optimum.
    Raises :class:`NoAcceptedString` when the beam exhausts without an
    accepting completion.
    """
    table = model._table(matrix.alphabet)
    found = prefix_beam_search(matrix, table, beam_width=beam_width, min_symbol_prob=min_symbol_prob)
    return _hypothesis(matrix, matrix.alphabet.separator, *found)
