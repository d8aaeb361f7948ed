import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctcdec import (
    Alphabet,
    ConfidenceMatrix,
    DecodeParams,
    EmptyLexicon,
    Lexicon,
    NoAcceptedString,
    build_lexicon,
    compile_rules,
    decode_dictionary,
    default_alphabet,
    default_rule_config,
    generate_synthetic,
    string_log_score,
)
from ctcdec.alphabet import NAC_CHAR
from ctcdec.ctc import NEG_INF
from ctcdec.dictionary import OOV_POLICIES, _determinized, _table
from ctcdec.lexicon import strip_attached
from ctcdec.search import _frozen, prefix_beam_search

from oracles import (
    _WORD,
    Constraint,
    assert_table_matches_reference,
    dm_objective,
    dm_text_valid,
    dm_valid_texts,
    enumerate_string_probs,
    random_matrix,
    trie_node_priors,
    trie_prefixes,
)

AB2 = Alphabet.with_nac("ab")
AB_SEP = Alphabet.with_nac("ab ", separator=" ")


def best_valid(scores: dict[str, float], alphabet: Alphabet) -> str:
    index = alphabet.index_of
    return min(scores, key=lambda t: (-scores[t], tuple(index[c] for c in t)))


def random_lexicon(rng: np.random.Generator, separator: str | None) -> Lexicon:
    n_words = int(rng.integers(1, 6))
    words = set()
    while len(words) < n_words:
        length = int(rng.integers(1, 4))
        words.add("".join(rng.choice(["a", "b"], size=length)))
    return Lexicon(
        {w: int(rng.integers(1, 10)) for w in words},
        separator=separator,
        attach_chars=frozenset(),
    )


def test_single_word_lexicon():
    rows = [
        [0.8, 0.05, 0.15],
        [0.1, 0.1, 0.8],
        [0.05, 0.85, 0.1],
    ]
    m = ConfidenceMatrix(rows, AB2)
    lex = Lexicon({"ab": 1}, separator=None)
    hyp = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=None))
    assert hyp.text == "ab"


def test_frequency_breaks_symmetric_tie():
    # Column-symmetric rows make P("ab") and P("ba") bitwise equal.
    m = ConfidenceMatrix([[0.45, 0.45, 0.1]] * 3, AB2)
    assert string_log_score(m, "ab") == string_log_score(m, "ba")
    lex = Lexicon({"ab": 9, "ba": 1}, separator=None)
    hyp = decode_dictionary(m, lex, DecodeParams(lm_weight=1.0, beam_width=None))
    assert hyp.text == "ab"
    # And the mirror counts select the mirror word.
    lex2 = Lexicon({"ab": 1, "ba": 9}, separator=None)
    hyp2 = decode_dictionary(m, lex2, DecodeParams(lm_weight=1.0, beam_width=None))
    assert hyp2.text == "ba"


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=40)
def test_alpha_zero_equals_pure_constrained_confidence(seed, n_frames):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng, separator=" ")
    m = random_matrix(rng, AB_SEP, n_frames)
    scores = enumerate_string_probs(m)
    valid = dm_valid_texts(scores, lex)
    expected = best_valid(valid, AB_SEP)
    hyp = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=None))
    assert hyp.text == expected
    assert math.exp(hyp.score) == pytest.approx(valid[expected], rel=1e-9)


@given(st.integers(0, 10_000), st.integers(1, 5))
@settings(max_examples=25)
def test_all_strings_lexicon_reduces_to_unconstrained(seed, n_frames):
    # Lexicon of every nonempty string up to length T: alpha=0 then matches
    # the unconstrained most-probable string.
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, AB2, n_frames)
    words = [
        "".join(w)
        for length in range(1, n_frames + 1)
        for w in itertools.product("ab", repeat=length)
    ]
    lex = Lexicon({w: 1 for w in words}, separator=None, attach_chars=frozenset())
    scores = enumerate_string_probs(m)
    expected = best_valid(scores, AB2)
    hyp = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=None))
    assert hyp.text == expected


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=40)
def test_full_objective_matches_brute_force(seed, pass_punct):
    # Exact argmax of the complete log-linear objective at unlimited beam,
    # with nonzero weights, attaching punctuation, and lexicon words that
    # themselves contain punctuation (forcing ambiguous word/attach parses).
    rng = np.random.default_rng(seed)
    alphabet = Alphabet.with_nac("ab. ", separator=" ")
    words = {"a.b"} if rng.random() < 0.5 else set()
    while len(words) < int(rng.integers(1, 5)):
        words.add("".join(rng.choice(["a", "b"], size=int(rng.integers(1, 4)))))
    lexicon = Lexicon(
        {w: int(rng.integers(1, 10)) for w in words},
        separator=" ",
        attach_chars=frozenset("."),
    )
    matrix = random_matrix(rng, alphabet, int(rng.integers(1, 7)))
    alpha, beta = 0.7, 0.4
    params = DecodeParams(
        lm_weight=alpha,
        word_bonus=beta,
        beam_width=None,
        oov_policy="pass-punct" if pass_punct else "reject",
    )
    scored = {}
    for text in enumerate_string_probs(matrix):
        objective = dm_objective(text, matrix, lexicon, alpha, beta, pass_punct)
        if objective is not None and objective > float("-inf"):
            scored[text] = objective
    if not scored:
        with pytest.raises(NoAcceptedString):
            decode_dictionary(matrix, lexicon, params)
        return
    index = alphabet.index_of
    expected = min(scored, key=lambda t: (-scored[t], tuple(index[c] for c in t)))
    hyp = decode_dictionary(matrix, lexicon, params)
    assert hyp.text == expected
    assert hyp.score == pytest.approx(scored[expected], rel=1e-9, abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_count_scaling_is_invariant(seed):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng, " ")
    m = random_matrix(rng, AB_SEP, 6)
    scaled = Lexicon(
        {w: 7 * c for w, c in lex.counts.items()},
        separator=" ",
        attach_chars=frozenset(),
    )
    params = DecodeParams(lm_weight=1.0, beam_width=None)
    assert decode_dictionary(m, lex, params).text == decode_dictionary(m, scaled, params).text


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_every_emitted_word_is_in_the_lexicon(seed):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng, " ")
    m = random_matrix(rng, AB_SEP, int(rng.integers(1, 7)))
    hyp = decode_dictionary(m, lex, DecodeParams(beam_width=4))
    for token in hyp.text.split(" "):
        if token:
            assert strip_attached(token, lex.attach_chars) in lex


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_beam_width_monotone_score(seed):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng, " ")
    m = random_matrix(rng, AB_SEP, int(rng.integers(1, 7)))
    scores = []
    for beam in (2, 8, None):
        try:
            scores.append(decode_dictionary(m, lex, DecodeParams(beam_width=beam)).score)
        except NoAcceptedString:
            scores.append(float("-inf"))
    assert scores[0] <= scores[1] + 1e-12
    assert scores[1] <= scores[2] + 1e-12


def test_empty_lexicon_raises():
    m = ConfidenceMatrix([[0.5, 0.3, 0.2]], AB2)
    with pytest.raises(EmptyLexicon):
        decode_dictionary(m, Lexicon({}), DecodeParams())


def test_narrow_beam_keeps_an_acceptable_anchor():
    # Every high-mass prefix is stuck inside a word that cannot complete
    # within the frame budget; the beam must still return the only
    # acceptable hypothesis (the empty line) instead of stranding itself.
    lex = Lexicon({"ababababab": 1}, separator=None)
    rows = []
    for t in range(6):
        row = [0.01, 0.01, 0.01]
        row[t % 2] = 0.98
        rows.append(row)
    m = ConfidenceMatrix(rows, AB2)
    hyp = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=2))
    assert hyp.text == ""


def test_word_insertion_bonus_prefers_more_words():
    ab = Alphabet.with_nac("a ", separator=" ")
    lex = Lexicon({"a": 1}, separator=" ", attach_chars=frozenset())
    rows = np.full((5, 3), [0.55, 0.25, 0.20])
    m = ConfidenceMatrix(rows, ab)
    short = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, word_bonus=0.0, beam_width=None))
    long = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, word_bonus=5.0, beam_width=None))
    assert len(long.text.split(" ")) >= len(short.text.split(" "))


def test_attached_punctuation_without_membership():
    ab = Alphabet.with_nac("ab. ", separator=" ")
    lex = Lexicon({"ab": 1}, separator=" ", attach_chars=frozenset("."))
    rows = np.array(
        [
            [0.9, 0.02, 0.02, 0.02, 0.04],
            [0.02, 0.9, 0.02, 0.02, 0.04],
            [0.02, 0.02, 0.9, 0.02, 0.04],
        ]
    )
    m = ConfidenceMatrix(rows, ab)
    hyp = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=None))
    assert hyp.text == "ab."


def test_oov_pass_punct_allows_pure_punctuation_token():
    ab = Alphabet.with_nac(".a ", separator=" ")
    lex = Lexicon({"a": 1}, separator=" ", attach_chars=frozenset("."))
    rows = np.array([[0.9, 0.04, 0.02, 0.04]] * 2)
    m = ConfidenceMatrix(rows, ab)
    rejecting = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=None))
    # "." alone is not a word under reject; it can only attach to "a".
    assert rejecting.text == ".a"
    passing = decode_dictionary(
        m, lex, DecodeParams(lm_weight=0.0, beam_width=None, oov_policy="pass-punct")
    )
    assert passing.text == "."
    assert dm_text_valid(".", lex, pass_punct=True)
    assert not dm_text_valid(".", lex, pass_punct=False)


def test_expression_overlay_restricts_results():
    # Lexicon allows "ab" and "ba"; the FSA only accepts strings starting
    # with "b", so the overlay flips the outcome.
    from ctcdec import ExpressionModel

    m = ConfidenceMatrix([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.2, 0.7, 0.1]], AB2)
    lex = Lexicon({"ab": 1, "ba": 1}, separator=None)
    plain = decode_dictionary(m, lex, DecodeParams(lm_weight=0.0, beam_width=None))
    assert plain.text == "ab"
    b_first = ExpressionModel(
        start="s",
        transitions={("s", "B"): "t", ("t", "A"): "u", ("t", "B"): "t", ("u", "A"): "u"},
        accepting=frozenset({"t", "u"}),
        symbol_classes={"a": "A", "b": "B"},
    )
    overlay = decode_dictionary(
        m, lex, DecodeParams(lm_weight=0.0, beam_width=None), expression_model=b_first
    )
    assert overlay.text == "ba"


def test_word_confidences_are_probabilities():
    alpha = Alphabet.with_nac("theca ", separator=" ")
    lex = build_lexicon(["the cat", "the"], alpha)
    from ctcdec import generate_synthetic

    m = generate_synthetic("the cat", alpha, frames_per_char=3, noise=0.2, seed=5)
    hyp = decode_dictionary(m, lex, DecodeParams(beam_width=8))
    assert len(hyp.word_confidences) == len(hyp.text.split(" "))
    assert all(0.0 <= c <= 1.0 for c in hyp.word_confidences)


def test_min_symbol_prob_skips_a_symbol_the_exact_best_needs():
    # "a" has probability 0.05 at the only frame but a much larger prior;
    # NaC has none, so the empty line is impossible.
    m = ConfidenceMatrix([[0.05, 0.95, 0.0]], AB2)
    lex = Lexicon({"a": 99, "b": 1}, separator=None)
    exact = decode_dictionary(m, lex, DecodeParams(beam_width=None, min_symbol_prob=0.0))
    assert exact.text == "a"
    assert exact.score == pytest.approx(dm_objective("a", m, lex, 1.0, 0.0))
    assert dm_objective("b", m, lex, 1.0, 0.0) < exact.score
    pruned = decode_dictionary(m, lex, DecodeParams(beam_width=None, min_symbol_prob=0.1))
    assert pruned.text == "b"


def test_params_validation():
    with pytest.raises(ValueError):
        DecodeParams(lm_weight=-1.0)
    with pytest.raises(ValueError):
        DecodeParams(beam_width=0)
    with pytest.raises(ValueError):
        DecodeParams(oov_policy="ignore")
    for value in (-0.1, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="min_symbol_prob"):
            DecodeParams(min_symbol_prob=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite_weights(value):
    """A NaN or infinite alpha or beta would reach the search's scores;
    they are refused up front, like the other bad numbers."""
    with pytest.raises(ValueError, match="lm_weight"):
        DecodeParams(lm_weight=value)
    with pytest.raises(ValueError, match="word_bonus"):
        DecodeParams(word_bonus=value)


@given(
    st.dictionaries(
        st.text("abc", min_size=1, max_size=5), st.integers(1, 1000), min_size=1, max_size=12
    ),
    st.sampled_from([0.0, 0.7, 1.0, 3.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_node_priors_equal_the_best_word_prior_bit_for_bit(counts, lm_weight, word_bonus):
    """A word state's ``rank`` (its look-ahead) is the prior of its trie
    node's best count, which equals the best prior of the words below it
    exactly, because the prior is monotone in the count; its ``final`` is
    the prior of the word ending there (-inf: none). The root is START,
    whose rank and final are 0."""
    lexicon = Lexicon(counts, separator=None, attach_chars=frozenset())
    params = DecodeParams(lm_weight=lm_weight, word_bonus=word_bonus)
    alphabet = Alphabet.with_nac("abc")
    table = _table(lexicon, alphabet, params)
    best, completed = trie_node_priors(lexicon, lm_weight, word_bonus)
    assert (table.rank[0], table.final[0]) == (0.0, 0.0)
    for node in range(1, lexicon.parent.size):
        assert table.rank[node] == best[node]
        assert table.final[node] == (NEG_INF if completed[node] is None else completed[node])


@given(
    st.dictionaries(st.text("ab.'", min_size=1, max_size=4), st.integers(1, 50), min_size=1, max_size=8),
    st.sampled_from(OOV_POLICIES),
    st.sampled_from([" ", None]),
    st.sampled_from([0.0, 0.7, 1.0, 3.0]),
    st.one_of(st.just(-0.0), st.floats(-5.0, 5.0, allow_nan=False)),
)
@example({"a.b": 10**30, "a": 2, "b'": 1}, "reject", " ", 1.0, 0.0)
@settings(max_examples=200, deadline=None)
def test_each_row_equals_the_analysis_merge_bit_for_bit(counts, oov_policy, separator, lm_weight, word_bonus):
    """Every state that the compiled table reaches from id 0 has the row
    of the reference loop (the same cells in order, arc weights as hex,
    and each target's state, ``rank`` and ``final``, -inf for ``None``),
    and each state has one id. Words hold attaching
    punctuation, so states with several analyses, and symbols that both
    extend a word and attach, occur; their rows are in the table too."""
    alphabet = Alphabet.with_nac("ab.' " if separator else "ab.'", separator=separator)
    lexicon = Lexicon(counts, separator=separator, attach_chars=frozenset(".'"))
    params = DecodeParams(lm_weight=lm_weight, word_bonus=word_bonus, oov_policy=oov_policy)
    constraint = Constraint(alphabet, lexicon=lexicon, params=params)
    assert_table_matches_reference(_table(lexicon, alphabet, params), constraint)


def test_a_row_of_several_analyses_may_reach_more():
    """After "a", a "." may end the word or go on to "a..b", and so may a
    second "." after that. The state after "a.." is reached only from the
    row of the state after "a.", which determinizing the automaton merges
    from its two analyses; both rows are in the table and equal the
    reference rows."""
    alphabet = Alphabet.with_nac("ab. ", separator=" ")
    lexicon = Lexicon({"a": 2, "a..b": 1}, separator=" ", attach_chars=frozenset("."))
    table = _table(lexicon, alphabet, DecodeParams())
    states = assert_table_matches_reference(table, Constraint(alphabet, lexicon=lexicon))
    spelled = trie_prefixes(lexicon)
    several = [state for state in states.values() if len(state) > 1]
    assert sorted(spelled[node] for state in several for phase, node, _ in state if phase == _WORD) == ["a.", "a.."]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_determinized_automaton_finds_the_best_string_and_path(data):
    """A random weighted automaton (acyclic, so that determinizing it
    ends), with parallel arcs on one cell, determinized and searched
    exactly, gives the string that maximizes its CTC mass plus its best
    path's weight plus that path's final, by brute force over every
    string; no such string raises ``NoAcceptedString``."""
    states, cells = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 3))
    finite = st.floats(-3.0, 3.0, allow_nan=False)
    arcs = []
    for _ in range(data.draw(st.integers(0, 12))):
        s = data.draw(st.integers(0, states - 2))
        arcs.append((s, data.draw(st.integers(1, cells)), data.draw(st.integers(s + 1, states - 1)), data.draw(finite)))
    rank = np.array(data.draw(st.lists(finite, min_size=states, max_size=states)))
    final = np.array(data.draw(st.lists(st.one_of(finite, st.just(NEG_INF)), min_size=states, max_size=states)))
    columns = list(zip(*arcs)) or [()] * 4
    src, cell, dst = (np.array(column, dtype=np.intp) for column in columns[:3])
    weight = np.array(columns[3], dtype=float)
    order = np.lexsort((cell, src))
    alphabet = Alphabet.with_nac("abc"[:cells])
    key = (alphabet.symbols, alphabet.nac_index)
    table = _frozen(*_determinized(rank, final, *(a[order] for a in (src, cell, dst, weight))), key)

    m = random_matrix(np.random.default_rng(data.draw(st.integers(0, 10_000))), alphabet, data.draw(st.integers(1, 4)))
    cell_of = {alphabet.symbols[i]: c for c, i in enumerate(alphabet.printable_indices, 1)}

    def bonus(text: str) -> float:
        # The best weight of a path spelling ``text`` from state 0, plus its final.
        best = {0: 0.0}
        for ch in text:
            reached = {}
            for s, c, d, w in arcs:
                if s in best and c == cell_of[ch]:
                    reached[d] = max(reached.get(d, NEG_INF), best[s] + w)
            best = reached
        return max((score + final[q] for q, score in best.items()), default=NEG_INF)

    scores = {text: math.log(p) + bonus(text) for text, p in enumerate_string_probs(m).items()}
    want = best_valid(scores, alphabet)
    if scores[want] == NEG_INF:
        with pytest.raises(NoAcceptedString):
            prefix_beam_search(m, table, beam_width=None)
        return
    prefix, mass, got = prefix_beam_search(m, table, beam_width=None)
    assert "".join(alphabet.symbols[i] for i in prefix) == want
    assert math.isclose(mass + got, scores[want], rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("rules", [False, True], ids=["dec-dm", "dec-dm-rules"])
def test_a_used_lexicon_pickles_and_its_copy_decodes_the_same(rules):
    """After a decode the lexicon keeps its compiled table, and with rules
    the product table, keyed on the rules' table. It still pickles,
    with the rules' model, and the copy decodes the same text and score
    hex from the tables it was sent with."""
    alphabet = default_alphabet()
    lexicon = Lexicon({"the": 5, "cat": 3, "sat": 2, "a": 4, "it's": 1}, separator=" ")
    model = compile_rules(default_rule_config(alphabet), alphabet) if rules else None
    params = DecodeParams(beam_width=16)
    lines = ["the cat sat.", "a cat, it's"]
    matrices = [generate_synthetic(line, alphabet, frames_per_char=3, noise=0.3, seed=i) for i, line in enumerate(lines)]
    want = [decode_dictionary(m, lexicon, params, model) for m in matrices]
    copy, copied_model = pickle.loads(pickle.dumps((lexicon, model)))
    assert len(copy._tables) == len(lexicon._tables) == 1 + rules
    got = [decode_dictionary(m, copy, params, copied_model) for m in matrices]
    assert [(h.text, h.score.hex()) for h in got] == [(h.text, h.score.hex()) for h in want]
    assert len(copy._tables) == 1 + rules


def test_freshly_compiled_rules_share_one_product_table():
    """The product table is kept under the contents of the rules' table,
    not the rules' model: five decodes, each with a newly compiled
    stock model, leave the lexicon's table and one product, and give the
    text and score hex of the first. The used lexicon still pickles."""
    alphabet = default_alphabet()
    lexicon = Lexicon({"the": 5, "cat": 3, "sat": 2, "a": 4, "it's": 1}, separator=" ")
    params = DecodeParams(beam_width=16)
    m = generate_synthetic("the cat sat.", alphabet, frames_per_char=3, noise=0.3, seed=0)
    got = [decode_dictionary(m, lexicon, params, compile_rules(default_rule_config(alphabet), alphabet)) for _ in range(5)]
    assert len({(h.text, h.score.hex()) for h in got}) == 1
    assert len(lexicon._tables) == 2
    assert len(pickle.loads(pickle.dumps(lexicon))._tables) == 2


@pytest.mark.parametrize(
    "params, weighted",
    [(DecodeParams(), True), (DecodeParams(word_bonus=0.5), True), (DecodeParams(lm_weight=0.0), False)],
    ids=["prior", "bonus", "flat"],
)
def test_a_table_is_weighted_where_a_rank_or_arc_weight_is_nonzero(params, weighted):
    """A lexicon table carries its word priors as weights, and so does its
    product with the (unweighted) stock rules; with no prior and no word
    bonus, every weight is zero and both tables are unweighted."""
    alphabet = default_alphabet()
    lexicon = Lexicon({"the": 5, "cat": 3, "sat": 2, "a": 4, "it's": 1}, separator=" ")
    rules = compile_rules(default_rule_config(alphabet), alphabet)
    assert not rules._table(alphabet).weighted
    assert _table(lexicon, alphabet, params).weighted == weighted
    assert _table(lexicon, alphabet, params, rules).weighted == weighted


@pytest.mark.parametrize("rules", [False, True], ids=["dec-dm", "dec-dm-rules"])
def test_one_lexicon_decodes_two_orders_of_one_alphabet(rules):
    """Two alphabets that hold the same printable symbols in different
    orders are two alphabets to the lexicon and the stock rules: decoding
    lines of both in turn, each line gives the text and score hex of a
    fresh lexicon and model, and the lexicon keeps one table per alphabet
    (and under the rules one product per alphabet too)."""
    first = Alphabet.with_nac("acht. ", separator=" ")
    second = Alphabet((NAC_CHAR, " ", ".", "t", "h", "c", "a"), nac_index=0, separator=" ")
    lexicon = Lexicon({"cat": 3, "hat": 2, "a": 4, "that": 1}, separator=" ")
    model = compile_rules(default_rule_config(first), first) if rules else None
    params = DecodeParams(beam_width=8)
    lines = ["a cat.", "that hat", "a hat", "that cat."]
    for i, line in enumerate(lines):
        alphabet = (first, second)[i % 2]
        m = generate_synthetic(line, alphabet, frames_per_char=3, noise=0.3, seed=i)
        got = decode_dictionary(m, lexicon, params, model)
        fresh = Lexicon(lexicon.counts, lexicon.separator, lexicon.attach_chars)
        want = decode_dictionary(m, fresh, params, replace(model) if rules else None)
        assert (got.text, got.score.hex()) == (want.text, want.score.hex())
    alphabets = [key[:2] for key in lexicon._tables]
    assert sorted(alphabets) == sorted([(first.symbols, first.nac_index), (second.symbols, second.nac_index)] * (1 + rules))
    if rules:
        assert list(model._tables) == [(first.symbols, first.nac_index), (second.symbols, second.nac_index)]
