"""Properties of the prefix beam search under pruning, and its agreement
with the scalar reference search, alone and batched over experts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import (
    Alphabet,
    ConfidenceMatrix,
    DecodeParams,
    InvariantViolation,
    Lexicon,
    NoAcceptedString,
    compile_rules,
    decode_dictionary,
    decode_expression,
    default_alphabet,
    default_rule_config,
    generate_synthetic,
    string_log_score,
)
from ctcdec import search
from ctcdec.ctc import NEG_INF
from ctcdec.dictionary import _table
from ctcdec.errors import SearchLimit
from ctcdec.experiment import _experiment_alphabet
from ctcdec.search import Compiled, _cut, prefix_beam_search, prefix_beam_search_many
from oracles import (
    Constraint,
    accept_all_model,
    argmax_string,
    assert_table_matches_reference,
    dm_text_valid,
    enumerate_string_probs,
    random_matrix,
    reference_cut,
    reference_prefix_beam_search,
)

ALPHA = Alphabet.with_nac("aB.' ", separator=" ")
RULES = compile_rules(default_rule_config(ALPHA), ALPHA)
BEAMS = [1, 2, 8, None]


def random_lexicon(rng: np.random.Generator) -> Lexicon:
    words = sorted({
        "".join(rng.choice(["a", "B", "'"], size=int(rng.integers(1, 4))))
        for _ in range(int(rng.integers(1, 6)))
    })
    return Lexicon(
        {w: int(rng.integers(1, 10)) for w in words},
        separator=" ",
        attach_chars=frozenset("."),
    )


#: Words that hold the attach symbol, so that a lexicon table has states of
#: two analyses (after "a", a "." ends the word or continues "a.B"), which
#: determinizing the lexicon automaton makes.
ATTACHED_LEXICON = Lexicon({"a.B": 3, "a": 2}, separator=" ", attach_chars=frozenset("."))


def check_mass_bound(matrix, hyp, beam) -> None:
    """A beam only loses paths: its mass never exceeds the string's, and
    an unlimited beam finds all of it."""
    exact = string_log_score(matrix, hyp.text)
    assert hyp.score <= exact + 1e-9
    if beam is None:
        assert math.isclose(hyp.score, exact, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("beam", BEAMS)
@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_expression_score_is_at_most_the_string_mass(beam, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, ALPHA, int(rng.integers(1, 7)))
    try:
        hyp = decode_expression(m, RULES, beam_width=beam)
    except NoAcceptedString:
        return
    check_mass_bound(m, hyp, beam)


@pytest.mark.parametrize("beam", BEAMS)
@given(st.integers(0, 10_000), st.sampled_from(["reject", "pass-punct"]))
@settings(max_examples=40, deadline=None)
def test_dictionary_score_without_prior_is_at_most_the_string_mass(beam, seed, oov):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng)
    m = random_matrix(rng, ALPHA, int(rng.integers(1, 7)))
    params = DecodeParams(lm_weight=0.0, word_bonus=0.0, beam_width=beam, oov_policy=oov)
    try:
        hyp = decode_dictionary(m, lex, params)
    except NoAcceptedString:
        return
    check_mass_bound(m, hyp, beam)


@pytest.mark.parametrize("beam", BEAMS)
@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_accept_all_overlay_changes_nothing(beam, seed):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng)
    m = random_matrix(rng, ALPHA, int(rng.integers(1, 7)))
    params = DecodeParams(
        lm_weight=float(rng.choice([0.0, 1.0])),
        word_bonus=float(rng.choice([0.0, 0.5])),
        beam_width=beam,
    )

    def outcome(**overlay):
        try:
            return decode_dictionary(m, lex, params, **overlay)
        except NoAcceptedString:
            return None

    assert outcome(expression_model=accept_all_model(ALPHA)) == outcome()


def search_outcome(search, matrix, constraint, beam, min_symbol_prob=0.0):
    try:
        return search(matrix, constraint, beam, min_symbol_prob)
    except NoAcceptedString:
        return None


def compiled(constraint: Constraint) -> Compiled:
    """The table that the decoders search under ``constraint``."""
    if constraint.lexicon is None:
        return constraint.model._table(constraint.alphabet)
    return _table(constraint.lexicon, constraint.alphabet, constraint.params, constraint.model)


def assert_matches_reference(matrix, constraint: Constraint, beam, min_symbol_prob=0.0):
    """The search under the compiled table returns the reference's
    prefix, mass and bonus."""
    got = search_outcome(prefix_beam_search, matrix, compiled(constraint), beam, min_symbol_prob)
    want = search_outcome(reference_prefix_beam_search, matrix, constraint, beam, min_symbol_prob)
    if want is None:
        assert got is None
        return None
    assert got is not None and got[0] == want[0]
    assert math.isclose(got[1], want[1], rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(got[2], want[2], rel_tol=0.0, abs_tol=1e-12)
    return got


def constraint_of(kind: str, alphabet, rules, lexicon, params) -> Constraint:
    """The rules (``"fsa"``), the lexicon, or the lexicon under the rules."""
    return Constraint(alphabet, None if kind == "lexicon" else rules, None if kind == "fsa" else lexicon, params)


@pytest.mark.parametrize("beam", BEAMS)
@given(
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from(["fsa", "lexicon", "rules"]),
    st.sampled_from(["reject", "pass-punct"]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_search_matches_the_scalar_reference(beam, seed, min_symbol_prob, kind, oov, attached):
    rng = np.random.default_rng(seed)
    lex = ATTACHED_LEXICON if attached else random_lexicon(rng)
    m = random_matrix(rng, ALPHA, int(rng.integers(1, 7)))
    if rng.random() < 0.3:
        probs = np.where(rng.random(m.probs.shape) < 0.3, 0.0, m.probs)
        probs[:, ALPHA.nac_index] += 1e-3
        m = ConfidenceMatrix(probs / probs.sum(axis=1, keepdims=True), ALPHA)
    params = DecodeParams(
        lm_weight=float(rng.choice([0.0, 1.0, 0.7])),
        word_bonus=float(rng.choice([0.0, 0.5, -0.3])),
        oov_policy=oov,
    )
    assert_matches_reference(m, constraint_of(kind, ALPHA, RULES, lex, params), beam, min_symbol_prob)


# Degenerate matrices. A wider alphabet, so that the first frame already
# has more candidates than a beam of 8 keeps.
WIDE = Alphabet.with_nac("abcdefg.' ", separator=" ")
WIDE_RULES = compile_rules(default_rule_config(WIDE), WIDE)
WIDE_LEXICON = Lexicon(
    {"ab": 3, "bad": 2, "cafe": 1, "g": 4, "fed": 2, "a'b": 1, "dab": 2},
    separator=" ",
    attach_chars=frozenset("."),
)
SCHEMES = {"dec-ce": "fsa", "dec-dm": "lexicon"}
DEGENERATE_BEAMS = [1, 8, None]


def wide_constraint(scheme: str, params: DecodeParams = DecodeParams()) -> Constraint:
    return constraint_of(SCHEMES[scheme], WIDE, WIDE_RULES, WIDE_LEXICON, params)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_frame(scheme, beam):
    for seed in range(20):
        m = random_matrix(np.random.default_rng(seed), WIDE, 1)
        assert_matches_reference(m, wide_constraint(scheme), beam)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_nac_matrix_decodes_to_the_empty_string(scheme, beam):
    probs = np.zeros((4, len(WIDE)))
    probs[:, WIDE.nac_index] = 1.0
    got = assert_matches_reference(ConfidenceMatrix(probs, WIDE), wide_constraint(scheme), beam)
    assert got == ((), 0.0, 0.0)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_exact_zero_on_the_symbol_at_the_beam_edge(scheme, beam):
    """Each row's k-th most probable symbol (k = the beam width, 3 for an
    unlimited beam) has probability exactly 0, so its log is -inf where
    the pruning boundary falls; some rows carry a second zero."""
    k = beam or 3
    for seed in range(15):
        rng = np.random.default_rng(seed)
        probs = random_matrix(rng, WIDE, 3).probs.copy()
        for row in probs:
            order = np.argsort(-row, kind="stable")
            row[order[k - 1]] = 0.0
            if rng.random() < 0.5:
                row[order[-1]] = 0.0
        m = ConfidenceMatrix(probs / probs.sum(axis=1, keepdims=True), WIDE)
        for params in (DecodeParams(), DecodeParams(lm_weight=0.0)):
            assert_matches_reference(m, wide_constraint(scheme, params), beam)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_uniform_matrix_breaks_ties_on_the_prefix(scheme, beam):
    """Every path has the same probability, so equally long prefixes tie
    exactly at the pruning boundary and in the result. Rows drawn from
    three weights tie too, between prefixes the beam holds out of
    lexicographic order."""
    params = DecodeParams(lm_weight=0.0, word_bonus=0.0)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        weights = rng.choice([1.0, 2.0, 4.0], size=(int(rng.integers(2, 5)), len(WIDE)))
        m = ConfidenceMatrix(weights / weights.sum(axis=1, keepdims=True), WIDE)
        assert_matches_reference(m, wide_constraint(scheme, params), beam)
    m = ConfidenceMatrix(np.full((3, len(WIDE)), 1.0 / len(WIDE)), WIDE)
    got = assert_matches_reference(m, wide_constraint(scheme, params), beam)
    if beam is None:
        scores = enumerate_string_probs(m)
        accepts = {
            "dec-ce": WIDE_RULES.accepts,
            "dec-dm": lambda text: dm_text_valid(text, WIDE_LEXICON),
        }[scheme]
        best = argmax_string({t: p for t, p in scores.items() if accepts(t)}, WIDE)
        assert "".join(WIDE.symbols[i] for i in got[0]) == best


@pytest.mark.parametrize("scheme", SCHEMES)
def test_beam_one_anchor_keeps_an_accepted_prefix(scheme):
    """The one prefix a beam of 1 keeps cannot be finished ("." needs a
    word after it; "a" is no word), so only the anchor fallback keeps
    the empty string, the one accepted hypothesis."""
    probs = np.zeros((1, len(WIDE)))
    probs[0, WIDE.index("." if scheme == "dec-ce" else "a")] = 0.6
    probs[0, WIDE.nac_index] = 0.4
    m = ConfidenceMatrix(probs, WIDE)
    params = DecodeParams(lm_weight=0.0, word_bonus=0.0)
    got = assert_matches_reference(m, wide_constraint(scheme, params), 1)
    assert got == ((), math.log(0.4), 0.0)
    # As the shorter expert of a committee, the matrix ends with the anchor
    # in its beam four frames before the other expert's; the padding frames
    # change nothing, so the result is the solo one exactly.
    longer = random_matrix(np.random.default_rng(0), WIDE, 5)
    batched = prefix_beam_search_many([m, longer], compiled(wide_constraint(scheme, params)), 1)
    assert batched[0] == got


@pytest.mark.parametrize("beam", BEAMS)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([0.0, 0.1]))
@settings(max_examples=40, deadline=None)
def test_an_unweighted_table_scores_by_mass_alone_exactly(beam, seed, n, min_symbol_prob):
    """An expression table has no weights, so the search scores by mass
    alone; repr for repr, it returns what the same table returns on the
    weighted path. One to three experts of unequal lengths (so padding
    runs), the stock or relaxed rules, and rows quantized to a few levels,
    some zero, so that scores tie exactly at the beam edge and between
    anchor candidates."""
    rng = np.random.default_rng(seed)
    # The wide alphabet only under a beam: unpruned, its prefixes multiply
    # tenfold per frame.
    alphabet = WIDE if beam is not None and rng.random() < 0.5 else ALPHA
    config = default_rule_config(alphabet)
    if rng.random() < 0.5:
        config = replace(config, attach_punctuation=False, digits_form_numbers=False)
    table = compile_rules(config, alphabet)._table(alphabet)
    assert not table.weighted
    matrices = []
    for frames in rng.choice(np.arange(1, 7), size=n, replace=False):
        weights = rng.choice([0.0, 1.0, 2.0, 4.0], size=(int(frames), len(alphabet)))
        weights[:, alphabet.nac_index] += 1.0
        matrices.append(ConfidenceMatrix(weights / weights.sum(axis=1, keepdims=True), alphabet))
    got = prefix_beam_search_many(matrices, table, beam, min_symbol_prob)
    want = prefix_beam_search_many(matrices, table._replace(weighted=True), beam, min_symbol_prob)
    assert repr(got) == repr(want)


@st.composite
def cut_frames(draw):
    """One frame's candidates for the beam cut: 1-5 experts' runs, some
    empty and some no longer than the beam, with scores on a few levels so
    that exact ties fall on the beam edge, dead candidates (mass -inf),
    live ones scoring -inf, and final flags."""
    runs = np.cumsum([0] + draw(st.lists(st.integers(0, 12), min_size=1, max_size=5)))
    size = int(runs[-1])
    levels = draw(st.lists(st.sampled_from(["dead", "-inf", -2.0, -1.0, 0.0]), min_size=size, max_size=size))
    cand = np.array([NEG_INF if v == "dead" else 0.0 for v in levels])
    score = np.array([NEG_INF if isinstance(v, str) else v for v in levels])
    finals = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    # Candidates of one frame have distinct prefixes, in any order.
    order = draw(st.permutations(range(size)))
    return cand, score, finals, runs, lambda x: (order[x],)


@settings(max_examples=400, deadline=None)
@given(frame=cut_frames(), beam=st.sampled_from([1, 2, 8]))
def test_cut_keeps_what_the_reference_cut_keeps(frame, beam):
    cand, score, finals, runs, prefix_of = frame
    got = _cut(cand, score, runs, beam, finals.__getitem__, prefix_of)
    want = reference_cut(cand, score, finals, runs, beam, prefix_of)
    assert got.tolist() == sorted(want.tolist())


# Batched search: several experts' matrices under one constraint.


def separator_only(alphabet, frames: int) -> ConfidenceMatrix:
    """A matrix whose one string is a lone separator, which no constraint
    here accepts."""
    probs = np.zeros((frames, len(alphabet)))
    probs[:, alphabet.index(alphabet.separator)] = 1.0
    return ConfidenceMatrix(probs, alphabet)


def assert_each_expert_matches_reference(matrices, constraint: Constraint, beam, min_symbol_prob=0.0):
    """The batched search gives every expert the reference's result on
    that expert's matrix alone."""
    got = prefix_beam_search_many(matrices, compiled(constraint), beam, min_symbol_prob)
    assert len(got) == len(matrices)
    for m, result in zip(matrices, got):
        want = search_outcome(reference_prefix_beam_search, m, constraint, beam, min_symbol_prob)
        if want is None:
            assert isinstance(result, NoAcceptedString)
            continue
        assert not isinstance(result, NoAcceptedString) and result[0] == want[0]
        assert math.isclose(result[1], want[1], rel_tol=0.0, abs_tol=1e-12)
        assert math.isclose(result[2], want[2], rel_tol=0.0, abs_tol=1e-12)
    return got


@pytest.mark.parametrize("beam", BEAMS)
@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from(["fsa", "lexicon", "rules"]),
    st.sampled_from(["reject", "pass-punct"]),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batched_search_matches_the_reference_per_expert(beam, seed, n, min_symbol_prob, kind, oov, attached):
    rng = np.random.default_rng(seed)
    lex = ATTACHED_LEXICON if attached else random_lexicon(rng)
    matrices = []
    for _ in range(n):
        # Unequal lengths, down to one frame; zeroed cells make the columns
        # each expert can extend with differ, as does the floor.
        m = random_matrix(rng, ALPHA, int(rng.choice([1, rng.integers(1, 7)])))
        if rng.random() < 0.5:
            probs = np.where(rng.random(m.probs.shape) < 0.3, 0.0, m.probs)
            probs[:, ALPHA.nac_index] += 1e-3
            m = ConfidenceMatrix(probs / probs.sum(axis=1, keepdims=True), ALPHA)
        matrices.append(m)
    if n > 1 and rng.random() < 0.4:
        matrices[int(rng.integers(n))] = separator_only(ALPHA, int(rng.integers(1, 4)))
    params = DecodeParams(
        lm_weight=float(rng.choice([0.0, 1.0, 0.7])),
        word_bonus=float(rng.choice([0.0, 0.5, -0.3])),
        oov_policy=oov,
    )
    constraint = constraint_of(kind, ALPHA, RULES, lex, params)
    assert_each_expert_matches_reference(matrices, constraint, beam, min_symbol_prob)


@given(
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from(["fsa", "lexicon"]),
)
@settings(max_examples=80, deadline=None)
def test_long_peaky_matrices_match_the_reference_per_expert(seed, beam, min_symbol_prob, kind):
    """8 to 30 frames of peaky rows under a narrow beam: a prefix leaves
    the beam and comes back frames later, while its extensions are still
    in it, which short matrices rarely show. One to three experts, of
    unequal lengths."""
    rng = np.random.default_rng(seed)
    lengths = rng.choice(np.arange(8, 31), size=int(rng.integers(1, 4)), replace=False)
    matrices = [ConfidenceMatrix(rng.dirichlet(np.full(len(ALPHA), 0.3), size=int(t)), ALPHA) for t in lengths]
    params = DecodeParams(
        lm_weight=float(rng.choice([0.0, 1.0])),
        word_bonus=float(rng.choice([0.0, 0.5])),
        oov_policy=str(rng.choice(["reject", "pass-punct"])),
    )
    constraint = constraint_of(kind, ALPHA, RULES, random_lexicon(rng), params)
    assert_each_expert_matches_reference(matrices, constraint, beam, min_symbol_prob)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("kind", ["fsa", "lexicon", "rules"])
def test_a_failing_expert_leaves_the_others_alone(kind, beam):
    """One expert's matrix admits no accepted string; the experts around
    it, of other lengths, still get their own results."""
    rng = np.random.default_rng(7)
    matrices = [random_matrix(rng, WIDE, 4), separator_only(WIDE, 2), random_matrix(rng, WIDE, 1)]
    constraint = constraint_of(kind, WIDE, WIDE_RULES, WIDE_LEXICON, DecodeParams())
    got = assert_each_expert_matches_reference(matrices, constraint, beam)
    assert [isinstance(r, NoAcceptedString) for r in got] == [False, True, False]


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_experts_tie_exactly(scheme, beam):
    """Experts whose rows are uniform or drawn from three weights tie at
    every beam edge and between anchor candidates, each in its own way."""
    params = DecodeParams(lm_weight=0.0, word_bonus=0.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        matrices = []
        for _ in range(3):
            weights = rng.choice([1.0, 2.0, 4.0], size=(int(rng.integers(1, 5)), len(WIDE)))
            if rng.random() < 0.3:
                weights[:] = 1.0
            matrices.append(ConfidenceMatrix(weights / weights.sum(axis=1, keepdims=True), WIDE))
        assert_each_expert_matches_reference(matrices, wide_constraint(scheme, params), beam)


DEFAULT = default_alphabet()
DEFAULT_RULES = compile_rules(default_rule_config(DEFAULT), DEFAULT)
DEFAULT_LEXICON = Lexicon({"the": 5, "cat": 3, "a": 8, "sat": 2, "on": 4, "mat": 1, "at": 2}, separator=" ")


def tying_matrix(rng: np.random.Generator, alphabet, frames: int) -> ConfidenceMatrix:
    """Peaky Dirichlet rows, a random share of them uniform or drawn from
    three weights, so that prefixes tie exactly."""
    probs = rng.dirichlet(np.full(len(alphabet), 0.3), size=frames)
    weights = np.ones((frames, len(alphabet)))
    if rng.random() < 0.5:
        weights = rng.choice([1.0, 2.0, 4.0], size=weights.shape)
    ties = rng.random(frames) < rng.choice([0.0, 0.5, 1.0])
    probs[ties] = (weights / weights.sum(axis=1, keepdims=True))[ties]
    return ConfidenceMatrix(probs, alphabet)


@given(
    st.integers(0, 10_000),
    st.integers(2, 5),
    st.sampled_from([1, 2, 8, 64]),
    st.sampled_from([0.0, 0.01]),
    st.sampled_from(["fsa", "lexicon"]),
)
@settings(max_examples=60, deadline=None)
def test_each_expert_gets_its_solo_result_exactly(seed, n, beam, min_symbol_prob, kind):
    """An expert's result does not depend on the other experts of the call
    or on its place among them: repr for repr, it is the result of its
    search alone and of the search with the experts permuted. 84 symbols,
    1 to 24 frames per expert."""
    rng = np.random.default_rng(seed)
    matrices = [tying_matrix(rng, DEFAULT, int(rng.integers(1, 25))) for _ in range(n)]
    table = compiled(constraint_of(kind, DEFAULT, DEFAULT_RULES, DEFAULT_LEXICON, DecodeParams()))
    got = [repr(r) for r in prefix_beam_search_many(matrices, table, beam, min_symbol_prob)]
    for m, result in zip(matrices, got):
        assert result == repr(prefix_beam_search_many([m], table, beam, min_symbol_prob)[0])
    order = rng.permutation(n)
    permuted = prefix_beam_search_many([matrices[e] for e in order], table, beam, min_symbol_prob)
    assert [repr(r) for r in permuted] == [got[e] for e in order]


def test_experts_must_share_an_alphabet():
    other = Alphabet.with_nac("aB.'x ", separator=" ")
    rng = np.random.default_rng(0)
    matrices = [random_matrix(rng, ALPHA, 3), random_matrix(rng, other, 3)]
    with pytest.raises(InvariantViolation, match="share an alphabet"):
        prefix_beam_search_many(matrices, RULES._table(ALPHA), 8)


@pytest.mark.parametrize("table_of, matrix_of", [("default", "experiment"), ("experiment", "default")])
def test_a_table_of_another_alphabet_is_an_invariant_violation(table_of, matrix_of):
    """A table records the alphabet it was compiled over, and the search
    rejects matrices of another: a table of the 84-symbol default alphabet
    over a 17-column matrix (which would index past its columns), and a
    16-symbol table over an 84-column matrix (which would spell a prefix
    of the wrong symbols)."""
    alphabets = {"default": default_alphabet(), "experiment": _experiment_alphabet()}
    table_alphabet, alphabet = alphabets[table_of], alphabets[matrix_of]
    table = compile_rules(default_rule_config(table_alphabet), table_alphabet)._table(table_alphabet)
    m = random_matrix(np.random.default_rng(0), alphabet, 6)
    with pytest.raises(InvariantViolation, match="the table was compiled over"):
        prefix_beam_search(m, table, 8)
    with pytest.raises(InvariantViolation, match="the table was compiled over"):
        prefix_beam_search_many([m, m], table, 8)


@pytest.mark.parametrize("value", [2.0, 1.0, -0.1, -1.0, float("nan")])
def test_min_symbol_prob_outside_unit_interval_is_rejected(value):
    alphabet = default_alphabet()
    m = generate_synthetic("the cat", alphabet, frames_per_char=3, noise=0.1, seed=1)
    rules = compile_rules(default_rule_config(alphabet), alphabet)
    with pytest.raises(ValueError, match="min_symbol_prob"):
        decode_expression(m, rules, beam_width=8, min_symbol_prob=value)
    with pytest.raises(ValueError, match="min_symbol_prob"):
        prefix_beam_search(m, rules._table(alphabet), 8, value)
    with pytest.raises(ValueError, match="beam_width"):
        prefix_beam_search(m, rules._table(alphabet), 0)


@pytest.mark.parametrize("limit, count", [("MAX_CANDIDATES", "candidates"), ("MAX_PREFIXES", "prefixes")])
@pytest.mark.parametrize("kind", ["fsa", "lexicon"])
def test_a_search_past_a_fixed_limit_raises_search_limit(monkeypatch, kind, limit, count):
    """An unlimited beam multiplies the candidates by the alphabet size
    each frame. Past a limit, the search raises ``SearchLimit``, naming the
    frame and the count, before it builds that frame's arrays."""
    m = random_matrix(np.random.default_rng(0), WIDE, 5)
    constraint = constraint_of(kind, WIDE, WIDE_RULES, WIDE_LEXICON, DecodeParams())
    assert_matches_reference(m, constraint, None)
    monkeypatch.setattr(search, limit, 200)
    with pytest.raises(SearchLimit, match=rf"^frame \d+ .*{count}, over the limit of 200;"):
        prefix_beam_search(m, compiled(constraint), None)
    with pytest.raises(SearchLimit):
        prefix_beam_search_many([m, m], compiled(constraint), None)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("kind", ["fsa", "lexicon", "rules"])
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.1]))
@settings(max_examples=25, deadline=None)
def test_each_state_row_is_built_once_per_search(kind, beam, seed, min_symbol_prob):
    """Each state's row is built once, when its constraint is compiled,
    and no search builds one: after searches, single or batched, under the
    compiled table, compiling again gives that table, and the lexicon
    keeps no new table (``ATTACHED_LEXICON`` has states of several
    analyses). A batched search gives each matrix its single search's
    result."""
    rng = np.random.default_rng(seed)
    # The wide alphabet only under a beam: unpruned, its prefixes multiply
    # tenfold per frame.
    if beam is not None and rng.random() < 0.5:
        alphabet, rules, lexicon = WIDE, WIDE_RULES, WIDE_LEXICON
    else:
        alphabet, rules = ALPHA, RULES
        lexicon = ATTACHED_LEXICON if rng.random() < 0.5 else random_lexicon(rng)
    # A copy, so that this search's table is compiled here.
    lexicon = Lexicon(lexicon.counts, lexicon.separator, lexicon.attach_chars)
    matrices = [random_matrix(rng, alphabet, int(rng.integers(1, 7))) for _ in range(3)]
    params = DecodeParams(oov_policy=str(rng.choice(["reject", "pass-punct"])))
    constraint = constraint_of(kind, alphabet, rules, lexicon, params)
    table = compiled(constraint)
    kept = dict(lexicon._tables)
    got = [search_outcome(prefix_beam_search, m, table, beam, min_symbol_prob) for m in matrices]
    batched = prefix_beam_search_many(matrices, table, beam, min_symbol_prob)
    assert compiled(constraint) is table
    assert lexicon._tables.keys() == kept.keys()
    assert [None if isinstance(r, NoAcceptedString) else r for r in batched] == got


@given(
    st.integers(0, 10_000),
    st.sampled_from(["fsa", "lexicon", "rules"]),
    st.sampled_from(["reject", "pass-punct"]),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_every_compiled_row_equals_the_reference_row(seed, kind, oov, attached):
    """Walking each kind of table from id 0, every row it reaches equals
    the reference row of its state bit for bit (cells, weights, ranks and
    finals), states of several analyses and their pairs with the rules'
    states included."""
    rng = np.random.default_rng(seed)
    lex = ATTACHED_LEXICON if attached else random_lexicon(rng)
    params = DecodeParams(
        lm_weight=float(rng.choice([0.0, 1.0, 0.7])),
        word_bonus=float(rng.choice([0.0, 0.5, -0.3])),
        oov_policy=oov,
    )
    constraint = constraint_of(kind, ALPHA, RULES, lex, params)
    states = assert_table_matches_reference(compiled(constraint), constraint)
    if kind != "fsa":
        lexical = [s if kind == "lexicon" else s[1] for s in states.values()]
        assert any(len(state) > 1 for state in lexical) == attached


RELAXED_RULES = compile_rules(
    replace(default_rule_config(ALPHA), attach_punctuation=False, digits_form_numbers=False), ALPHA
)


@pytest.mark.parametrize("kind", ["fsa", "fsa-relaxed", "lexicon", "rules"])
def test_each_row_follows_its_stay_and_each_slot_knows_its_target(kind):
    """The table contract the frame loop relies on, for the stock and
    relaxed rules, ``ATTACHED_LEXICON`` (states of several analyses) and
    their product. Each state's slots are its stay (offset 0, child the
    state itself, weight -0.0) and then its row, in id order. Per slot,
    ``child_rank`` and ``child_accepts`` are the target's rank and whether
    its final is above -inf, and ``repeat`` is 1 + where the target's row
    holds the slot's cell, or 0 (a stay's cell, 0, is in no row). Every
    array is read-only, and the table records its alphabet."""
    rules = RELAXED_RULES if kind == "fsa-relaxed" else RULES
    constraint = constraint_of(kind.split("-")[0], ALPHA, rules, ATTACHED_LEXICON, DecodeParams())
    table = compiled(constraint)
    states = assert_table_matches_reference(table, constraint)
    if not kind.startswith("fsa"):
        assert any(len(s if kind == "lexicon" else s[1]) > 1 for s in states.values())
    n = table.rank.size
    rows = [table.offset[table.start[i] : table.start[i] + table.length[i]].tolist() for i in range(n)]
    stays = table.start - 1
    assert stays.tolist() == [0, *(table.start[:-1] + table.length[:-1]).tolist()]
    assert table.offset.size == table.start[-1] + table.length[-1]
    assert table.offset[stays].tolist() == [0] * n
    assert table.child[stays].tolist() == list(range(n))
    assert [w.hex() for w in table.weight[stays].tolist()] == ["-0x0.0p+0"] * n
    for x in range(table.offset.size):
        j, cell = int(table.child[x]), int(table.offset[x])
        assert float(table.child_rank[x]).hex() == float(table.rank[j]).hex()
        assert bool(table.child_accepts[x]) == (table.final[j] > NEG_INF)
        assert int(table.repeat[x]) == (rows[j].index(cell) + 1 if cell in rows[j] else 0)
    assert not any(array.flags.writeable for array in table if isinstance(array, np.ndarray))
    assert table.alphabet == (ALPHA.symbols, ALPHA.nac_index)
