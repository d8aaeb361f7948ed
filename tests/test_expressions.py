import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import (
    Alphabet,
    ConfidenceMatrix,
    CtcDecError,
    DecodeParams,
    EmptyLanguage,
    ExpressionModel,
    InvalidRule,
    Lexicon,
    NoAcceptedString,
    RuleConfig,
    compile_rules,
    decode_dictionary,
    decode_expression,
    default_alphabet,
    default_rule_config,
    generate_synthetic,
    parse_rules,
)

from ctcdec.dictionary import _table
from ctcdec.experiment import _experiment_alphabet
from ctcdec.expressions import _MODES, KNOWN_CLASSES, format_rules
from ctcdec.search import prefix_beam_search
from oracles import (
    Constraint,
    accept_all_model,
    argmax_string,
    assert_table_matches_reference,
    enumerate_string_probs,
    random_matrix,
    reference_compile_rules,
)

ALPHA = default_alphabet()
DEFAULT_MODEL = compile_rules(default_rule_config(ALPHA), ALPHA)
AB2 = Alphabet.with_nac("ab")


def random_fsa(rng: np.random.Generator, alphabet: Alphabet) -> ExpressionModel:
    """Random DFA over singleton symbol classes, retried until non-empty."""
    printable = sorted(alphabet.printable_symbols)
    while True:
        n_states = int(rng.integers(1, 5))
        states = [f"q{i}" for i in range(n_states)]
        transitions = {}
        for state in states:
            for sym in printable:
                if rng.random() < 0.75:
                    transitions[(state, sym)] = states[int(rng.integers(0, n_states))]
        accepting = frozenset(s for s in states if rng.random() < 0.4)
        if not accepting:
            continue
        model = ExpressionModel(
            start="q0",
            transitions=transitions,
            accepting=accepting,
            symbol_classes={sym: sym for sym in printable},
        )
        try:
            model.validate(alphabet)
        except EmptyLanguage:
            continue
        return model


@st.composite
def _rule_sets(draw):
    """A small alphabet and a random class partition of it, which one
    flaw may break: an unknown class, a symbol in two classes, a symbol in
    none, or a symbol outside the alphabet."""
    printable = draw(st.sampled_from(["ab", "aB1,' ", "xY.-9 +/"]))
    alphabet = Alphabet.with_nac(printable, separator=" " if " " in printable else None)
    classes: dict[str, set[str]] = {}
    for sym in printable:
        classes.setdefault(draw(st.sampled_from(KNOWN_CLASSES)), set()).add(sym)
    flaw = draw(st.sampled_from([None, None, None, None, "unknown", "overlap", "missing", "outside"]))
    name = draw(st.sampled_from(sorted(classes)))
    sym = draw(st.sampled_from(sorted(classes[name])))
    if flaw == "unknown":
        classes["emoji"] = {sym}
    elif flaw == "overlap":
        classes.setdefault(draw(st.sampled_from(KNOWN_CLASSES)), set()).add(sym)
    elif flaw == "missing":
        classes[name].discard(sym)
    elif flaw == "outside":
        classes[name].add("~")
    return alphabet, {name: frozenset(syms) for name, syms in classes.items()}


def _compiled(compile, config, alphabet):
    """The compiled model, or the class and message of the error raised."""
    try:
        return compile(config, alphabet)
    except CtcDecError as exc:
        return type(exc), str(exc)


def _same_language(a: ExpressionModel, b: ExpressionModel) -> bool:
    """Whether two models over the same symbol classes accept the same
    strings: a walk over the pairs of states that each class leads to,
    where a dead end or a state with no accepting future is ``None``."""

    def step(model, state, cls):
        nxt = model.transitions.get((state, cls))
        return nxt if nxt in model.live_states else None

    classes = set(a.symbol_classes.values())
    start = (a.start if a.start in a.live_states else None, b.start if b.start in b.live_states else None)
    seen, frontier = {start}, [start]
    while frontier:
        p, q = frontier.pop()
        if (p in a.accepting) != (q in b.accepting):
            return False
        for cls in classes:
            pair = (step(a, p, cls), step(b, q, cls))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


class TestCompile:
    def test_default_rules_accept_normal_text(self):
        assert DEFAULT_MODEL.accepts("Hello, world.")
        assert DEFAULT_MODEL.accepts("don't stop")
        assert DEFAULT_MODEL.accepts("An ALL CAPS word")
        assert DEFAULT_MODEL.accepts("In 1842 we went")
        assert DEFAULT_MODEL.accepts("")

    def test_unattached_punctuation_rejected(self):
        assert not DEFAULT_MODEL.accepts(",,,")
        assert not DEFAULT_MODEL.accepts(", and")

    def test_strict_capitalization_rejects_lowercase_start(self):
        strict = compile_rules(replace(default_rule_config(ALPHA), line_start_capital="strict"), ALPHA)
        assert not strict.accepts("hello")
        assert strict.accepts("Hello")
        assert strict.accepts('"Hello there"')
        assert not strict.accepts('"hello there"')

    def test_word_shapes(self):
        assert DEFAULT_MODEL.accepts("USA")
        assert not DEFAULT_MODEL.accepts("hELLO")
        assert not DEFAULT_MODEL.accepts("HTml")

    def test_attach_punctuation_off_allows_punct_runs(self):
        config = default_rule_config(ALPHA)
        loose = compile_rules(
            RuleConfig(
                classes=config.classes,
                line_start_capital=config.line_start_capital,
                attach_punctuation=False,
            ),
            ALPHA,
        )
        assert loose.accepts(",,,")
        assert loose.accepts("well ... yes")

    def test_attach_punctuation_off_only_relaxes(self):
        # Turning the rule off must never reject previously valid text.
        config = default_rule_config(ALPHA)
        loose = compile_rules(
            RuleConfig(classes=config.classes, attach_punctuation=False), ALPHA
        )
        for text in ('"Hello, world."', "don't stop", "(yes) 1842", ""):
            assert DEFAULT_MODEL.accepts(text)
            assert loose.accepts(text)
        strict_loose = compile_rules(
            RuleConfig(
                classes=config.classes,
                line_start_capital="strict",
                attach_punctuation=False,
            ),
            ALPHA,
        )
        assert strict_loose.accepts('"Hello')
        assert not strict_loose.accepts('"hello')

    def test_digits_off_rejects_numbers(self):
        config = default_rule_config(ALPHA)
        no_digits = compile_rules(
            RuleConfig(classes=config.classes, digits_form_numbers=False), ALPHA
        )
        assert not no_digits.accepts("1842")
        assert no_digits.accepts("year")

    def test_unknown_class_rejected(self):
        with pytest.raises(InvalidRule):
            compile_rules(RuleConfig(classes={"emoji": frozenset("ab")}), AB2)

    def test_symbol_outside_alphabet_rejected(self):
        with pytest.raises(InvalidRule):
            compile_rules(RuleConfig(classes={"lowercase": frozenset("az")}), AB2)

    def test_overlapping_classes_rejected(self):
        with pytest.raises(InvalidRule):
            compile_rules(
                RuleConfig(
                    classes={"lowercase": frozenset("ab"), "uppercase": frozenset("a")}
                ),
                AB2,
            )

    def test_uncovered_symbol_rejected(self):
        with pytest.raises(InvalidRule):
            compile_rules(RuleConfig(classes={"lowercase": frozenset("a")}), AB2)

    def test_empty_language_detected(self):
        model = ExpressionModel(
            start="s",
            transitions={("s", "any"): "dead"},
            accepting=frozenset({"unreachable"}),
            symbol_classes={"a": "any", "b": "any"},
        )
        with pytest.raises(EmptyLanguage):
            model.validate(AB2)

    @pytest.mark.parametrize("mode, attach, digits", itertools.product(_MODES, (True, False), (True, False)))
    def test_every_state_is_reachable_from_the_start(self, mode, attach, digits):
        config = replace(
            default_rule_config(ALPHA), line_start_capital=mode, attach_punctuation=attach, digits_form_numbers=digits
        )
        model = compile_rules(config, ALPHA)
        seen, frontier = {model.start}, [model.start]
        while frontier:
            state = frontier.pop()
            for (src, _), dst in model.transitions.items():
                if src == state and dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        assert {state for (src, _), dst in model.transitions.items() for state in (src, dst)} == seen

    @settings(max_examples=300, deadline=None)
    @given(rule_set=_rule_sets())
    def test_compile_matches_the_arc_by_arc_reference(self, rule_set):
        alphabet, classes = rule_set
        for mode, attach, digits in itertools.product(_MODES + ("sometimes",), (True, False), (True, False)):
            config = RuleConfig(classes, mode, attach, digits)
            got, want = _compiled(compile_rules, config, alphabet), _compiled(reference_compile_rules, config, alphabet)
            assert type(got) is type(want)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got.symbol_classes == want.symbol_classes
            assert _same_language(got, want)
            if attach and digits:
                assert (got.transitions, got.accepting) == (want.transitions, want.accepting)


class TestRuleFile:
    def test_round_trip(self):
        config = replace(default_rule_config(ALPHA), line_start_capital="strict")
        parsed = parse_rules(format_rules(config))
        assert parsed == config

    @pytest.mark.parametrize(
        "line_start, attach, numbers", itertools.product(("lenient", "strict"), (True, False), (True, False))
    )
    def test_every_switch_combination_round_trips(self, line_start, attach, numbers):
        config = replace(
            default_rule_config(ALPHA),
            line_start_capital=line_start,
            attach_punctuation=attach,
            digits_form_numbers=numbers,
        )
        text = format_rules(config)
        assert parse_rules(text) == config
        assert compile_rules(parse_rules(text), ALPHA) == compile_rules(config, ALPHA)

    def test_space_escape(self):
        config = parse_rules("class separator \\s\nclass lowercase ab\n")
        assert config.classes["separator"] == frozenset(" ")

    def test_backslash_and_s_round_trip(self):
        # A class holding a literal backslash next to the letter s must not
        # collapse into an escaped space, and a "#" must not start a comment.
        for symbols in ("\\s", "#\\s"):
            config = RuleConfig(classes={"punct_standalone": frozenset(symbols)})
            parsed = parse_rules(format_rules(config))
            assert parsed.classes["punct_standalone"] == frozenset(symbols)

    def test_comments_and_blanks(self):
        config = parse_rules("# comment\n\nclass lowercase ab  # trailing\n")
        assert config.classes["lowercase"] == frozenset("ab")
        # An escaped backslash does not escape the "#" after it.
        config = parse_rules("class lowercase a\\\\#b\nclass uppercase A\\\n")
        assert config.classes["lowercase"] == frozenset("a\\")
        assert config.classes["uppercase"] == frozenset("A\\")

    def test_bad_directive(self):
        with pytest.raises(InvalidRule):
            parse_rules("wibble lowercase ab\n")

    def test_bad_rule_value(self):
        with pytest.raises(InvalidRule):
            parse_rules("rule line_start_capital maybe\n")
        with pytest.raises(InvalidRule):
            parse_rules("rule attach_punctuation sometimes\n")
        with pytest.raises(InvalidRule):
            parse_rules("rule unknown_rule on\n")

    @pytest.mark.parametrize(
        "directive, reason",
        [
            ("wibble lowercase ab", "cannot parse"),
            ("class lowercase", "cannot parse"),
            ("rule attach_punctuation", "cannot parse"),
            ("rule unknown_rule on", "unknown rule 'unknown_rule'"),
            ("rule line_start_capital maybe", "rule line_start_capital takes lenient or strict"),
            ("rule attach_punctuation sometimes", "rule attach_punctuation takes on or off"),
            ("rule digits_form_numbers true", "rule digits_form_numbers takes on or off"),
        ],
    )
    def test_bad_directive_names_its_line(self, directive, reason):
        text = "# rules\nclass lowercase ab\n\nrule attach_punctuation off\n" + directive + "\n"
        with pytest.raises(InvalidRule, match=f"^line 5: {reason}"):
            parse_rules(text)


class TestDecode:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=30)
    def test_unconstrained_equals_brute_force(self, seed, n_frames):
        m = random_matrix(np.random.default_rng(seed), AB2, n_frames)
        hyp = decode_expression(m, accept_all_model(AB2), beam_width=None)
        scores = enumerate_string_probs(m)
        assert hyp.text == argmax_string(scores, AB2)
        assert math.exp(hyp.score) == pytest.approx(scores[hyp.text], rel=1e-9)

    def test_constrained_to_a_star(self):
        model = ExpressionModel(
            start="s",
            transitions={("s", "A"): "s"},
            accepting=frozenset({"s"}),
            symbol_classes={"a": "A", "b": "B"},
        )
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_matrix(rng, AB2, 5)
            hyp = decode_expression(m, model, beam_width=None)
            assert set(hyp.text) <= {"a"}
            scores = enumerate_string_probs(m)
            accepted = {t: p for t, p in scores.items() if set(t) <= {"a"}}
            assert hyp.text == argmax_string(accepted, AB2)

    def test_epsilon_only_model(self):
        model = ExpressionModel(
            start="s",
            transitions={},
            accepting=frozenset({"s"}),
            symbol_classes={"a": "A", "b": "B"},
        )
        m = ConfidenceMatrix([[0.5, 0.4, 0.1]], AB2)
        assert decode_expression(m, model, beam_width=None).text == ""

    def test_no_accepted_string(self):
        # Only "b...": but b has zero probability everywhere.
        model = ExpressionModel(
            start="s",
            transitions={("s", "B"): "t", ("t", "B"): "t"},
            accepting=frozenset({"t"}),
            symbol_classes={"a": "A", "b": "B"},
        )
        m = ConfidenceMatrix([[0.9, 0.0, 0.1]] * 2, AB2)
        with pytest.raises(NoAcceptedString):
            decode_expression(m, model, beam_width=None)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_beamed_outputs_are_accepted(self, seed):
        rng = np.random.default_rng(seed)
        model = random_fsa(rng, AB2)
        m = random_matrix(rng, AB2, int(rng.integers(1, 7)))
        try:
            hyp = decode_expression(m, model, beam_width=4)
        except NoAcceptedString:
            return
        assert model.accepts(hyp.text)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_beam_width_monotone_score(self, seed):
        rng = np.random.default_rng(seed)
        model = random_fsa(rng, AB2)
        m = random_matrix(rng, AB2, int(rng.integers(1, 7)))
        scores = []
        for beam in (2, 8, None):
            try:
                scores.append(decode_expression(m, model, beam_width=beam).score)
            except NoAcceptedString:
                scores.append(float("-inf"))
        assert scores[0] <= scores[1] + 1e-12
        assert scores[1] <= scores[2] + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_exact_beam_matches_brute_force_on_random_fsa(self, seed):
        rng = np.random.default_rng(seed)
        model = random_fsa(rng, AB2)
        m = random_matrix(rng, AB2, int(rng.integers(1, 7)))
        scores = enumerate_string_probs(m)
        accepted = {t: p for t, p in scores.items() if model.accepts(t)}
        if not accepted:
            with pytest.raises(NoAcceptedString):
                decode_expression(m, model, beam_width=None)
            return
        hyp = decode_expression(m, model, beam_width=None)
        assert hyp.text == argmax_string(accepted, AB2)
        assert math.exp(hyp.score) == pytest.approx(accepted[hyp.text], rel=1e-9)

    def test_returned_text_accepted_by_default_model(self):
        rng = np.random.default_rng(123)
        rows = rng.dirichlet(np.ones(len(ALPHA)), size=12)
        m = ConfidenceMatrix(rows, ALPHA)
        hyp = decode_expression(m, DEFAULT_MODEL, beam_width=16)
        assert DEFAULT_MODEL.accepts(hyp.text)


_RULE_OPTIONS = {
    "stock": {},
    "relaxed": {"attach_punctuation": False, "digits_form_numbers": False},
    "strict": {"line_start_capital": "strict"},
}


class TestCompiledTable:
    """The expression constraint is compiled once per model and alphabet,
    on the first decode, and a search reads every row from the table."""

    @pytest.mark.parametrize("rules", sorted(_RULE_OPTIONS))
    @pytest.mark.parametrize("alphabet", [ALPHA, _experiment_alphabet()], ids=["default", "experiment"])
    def test_compiled_rows_equal_the_rows_a_search_fills(self, rules, alphabet):
        """The table holds a row for each live state, read-only. Walked
        from the start state (id 0), it reaches the live states that the
        alphabet's symbols reach, and each row equals the row that the
        reference search reads (``reference_successors``): the symbols
        that step to a live state, in cell order, with weights and ranks 0
        and finals 0 where the state accepts. So the table is not
        ``weighted``: the search scores by mass alone."""
        model = compile_rules(replace(default_rule_config(alphabet), **_RULE_OPTIONS[rules]), alphabet)
        table = model._table(alphabet)
        # The live states that the alphabet's symbols reach from the start.
        live, reached, todo = model.live_states, {model.start}, [model.start]
        while todo:
            state = todo.pop()
            for sym in alphabet.printable_symbols:
                nxt = model.step(state, sym)
                if nxt in live and nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
        states = assert_table_matches_reference(table, Constraint(alphabet, model))
        assert sorted(states.values()) == sorted(reached)
        assert table.rank.size == len(live)
        assert not table.weighted
        assert not any(array.flags.writeable for array in table if isinstance(array, np.ndarray))
        assert table.alphabet == (alphabet.symbols, alphabet.nac_index)

    def test_one_model_with_two_alphabets_gets_two_tables(self):
        """The same printable symbols in another order are another
        alphabet: the model keeps a table for each, and each decodes as a
        table compiled for that line alone, by a copy of the model."""
        first = Alphabet.with_nac("ab ", separator=" ")
        second = Alphabet(symbols=("\x00", " ", "b", "a"), nac_index=0, separator=" ")
        model = compile_rules(default_rule_config(first), first)
        rng = np.random.default_rng(3)
        for alphabet in (first, second, first, second):
            m = random_matrix(rng, alphabet, 6)
            got = decode_expression(m, model, beam_width=4)
            want = prefix_beam_search(m, replace(model)._table(alphabet), 4)
            assert (got.text, got.score.hex()) == (
                "".join(alphabet.symbols[i] for i in want[0]),
                (want[1] + want[2]).hex(),
            )
        assert len(model._tables) == 2
        one, two = model._tables.values()
        assert not np.array_equal(one.offset, two.offset)

    @pytest.mark.parametrize(
        "model, error",
        [
            (ExpressionModel("s", {("s", "A"): "s"}, frozenset({"s"}), {"a": "A"}), InvalidRule),
            (ExpressionModel("s", {("s", "A"): "t"}, frozenset({"u"}), {"a": "A", "b": "A"}), EmptyLanguage),
        ],
        ids=["InvalidRule", "EmptyLanguage"],
    )
    def test_an_invalid_model_raises_on_every_call(self, model, error):
        m = random_matrix(np.random.default_rng(0), AB2, 3)
        for _ in range(3):
            with pytest.raises(error):
                decode_expression(m, model)
        assert model._tables == {}

    def test_a_search_calls_successors_zero_times(self, monkeypatch):
        """Compiling the model's one table steps the model once per live
        state and symbol, and the searches after it step it no more."""
        calls = Counter()
        step = ExpressionModel.step

        def counted(self, state, symbol):
            calls[state, symbol] += 1
            return step(self, state, symbol)

        monkeypatch.setattr(ExpressionModel, "step", counted)
        model = compile_rules(default_rule_config(ALPHA), ALPHA)
        lines = ["the cat sat.", "Hello, World!", "it's 42 (or so)"]
        matrices = [generate_synthetic(line, ALPHA, frames_per_char=3, noise=0.2, seed=i) for i, line in enumerate(lines)]
        decode_expression(matrices[0], model, beam_width=64)
        assert list(model._tables) == [(ALPHA.symbols, ALPHA.nac_index)]
        assert calls == Counter(dict.fromkeys(itertools.product(model.live_states, ALPHA.printable_symbols), 1))
        calls.clear()
        for m in matrices:
            decode_expression(m, model, beam_width=64)
        assert calls == Counter()

    def test_the_rules_overlay_decodes_as_a_fresh_intersection(self):
        """dec-dm under the stock rules reuses the model's table from line
        to line: text and score hex equal those of a search under a table
        compiled for the line alone, from copies of the lexicon and the
        model."""
        model = compile_rules(default_rule_config(ALPHA), ALPHA)
        lexicon = Lexicon({"the": 5, "cat": 3, "sat": 2, "hat": 1, "a": 4}, separator=" ")
        params = DecodeParams(beam_width=16)
        for seed, line in enumerate(["the cat sat.", "a hat", "the cat, the hat"]):
            m = generate_synthetic(line, ALPHA, frames_per_char=3, noise=0.3, seed=seed)
            got = decode_dictionary(m, lexicon, params, model)
            copy = Lexicon(lexicon.counts, lexicon.separator, lexicon.attach_chars)
            prefix, mass, bonus = prefix_beam_search(m, _table(copy, ALPHA, params, replace(model)), 16)
            assert (got.text, got.score.hex()) == ("".join(ALPHA.symbols[i] for i in prefix), (mass + bonus).hex())
        assert list(model._tables) == [(ALPHA.symbols, ALPHA.nac_index)]
