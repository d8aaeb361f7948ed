"""Properties of the prefix beam search under pruning, and its agreement
with the scalar reference search, alone and batched over experts."""

import math
from collections import Counter

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
from ctcdec.dictionary import _Intersection, _LexiconConstraint
from ctcdec.expressions import _FsaConstraint
from ctcdec.search import prefix_beam_search, prefix_beam_search_many
from oracles import (
    accept_all_model,
    argmax_string,
    dm_text_valid,
    enumerate_string_probs,
    random_matrix,
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


def assert_matches_reference(matrix, make_constraint, beam, min_symbol_prob=0.0):
    """The search returns the reference's prefix, mass and bonus."""
    got = search_outcome(prefix_beam_search, matrix, make_constraint(), beam, min_symbol_prob)
    want = search_outcome(
        reference_prefix_beam_search, matrix, make_constraint(), beam, min_symbol_prob
    )
    if want is None:
        assert got is None
        return None
    assert got is not None and got[0] == want[0]
    assert math.isclose(got[1], want[1], rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(got[2], want[2], rel_tol=0.0, abs_tol=1e-12)
    return got


def constraint_maker(kind: str, alphabet, rules, lexicon, params):
    def make():
        if kind == "fsa":
            return _FsaConstraint(rules, alphabet)
        lexical = _LexiconConstraint(lexicon, alphabet, params)
        if kind == "lexicon":
            return lexical
        return _Intersection(_FsaConstraint(rules, alphabet), lexical)

    return make


@pytest.mark.parametrize("beam", BEAMS)
@given(
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from(["fsa", "lexicon", "rules"]),
    st.sampled_from(["reject", "pass-punct"]),
)
@settings(max_examples=40, deadline=None)
def test_search_matches_the_scalar_reference(beam, seed, min_symbol_prob, kind, oov):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng)
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
    make = constraint_maker(kind, ALPHA, RULES, lex, params)
    assert_matches_reference(m, make, beam, min_symbol_prob)


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


def wide_constraint(scheme: str, params: DecodeParams = DecodeParams()):
    return constraint_maker(SCHEMES[scheme], WIDE, WIDE_RULES, WIDE_LEXICON, params)


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
    batched = prefix_beam_search_many([m, longer], wide_constraint(scheme, params)(), 1)
    assert batched[0] == got


# Batched search: several experts' matrices under one constraint.


def separator_only(alphabet, frames: int) -> ConfidenceMatrix:
    """A matrix whose one string is a lone separator, which no constraint
    here accepts."""
    probs = np.zeros((frames, len(alphabet)))
    probs[:, alphabet.index(alphabet.separator)] = 1.0
    return ConfidenceMatrix(probs, alphabet)


def assert_each_expert_matches_reference(matrices, make_constraint, beam, min_symbol_prob=0.0):
    """The batched search gives every expert the reference's result on
    that expert's matrix alone."""
    got = prefix_beam_search_many(matrices, make_constraint(), beam, min_symbol_prob)
    assert len(got) == len(matrices)
    for m, result in zip(matrices, got):
        want = search_outcome(reference_prefix_beam_search, m, make_constraint(), beam, min_symbol_prob)
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
)
@settings(max_examples=30, deadline=None)
def test_batched_search_matches_the_reference_per_expert(beam, seed, n, min_symbol_prob, kind, oov):
    rng = np.random.default_rng(seed)
    lex = random_lexicon(rng)
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
    make = constraint_maker(kind, ALPHA, RULES, lex, params)
    assert_each_expert_matches_reference(matrices, make, beam, min_symbol_prob)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("kind", ["fsa", "lexicon", "rules"])
def test_a_failing_expert_leaves_the_others_alone(kind, beam):
    """One expert's matrix admits no accepted string; the experts around
    it, of other lengths, still get their own results."""
    rng = np.random.default_rng(7)
    matrices = [random_matrix(rng, WIDE, 4), separator_only(WIDE, 2), random_matrix(rng, WIDE, 1)]
    make = constraint_maker(kind, WIDE, WIDE_RULES, WIDE_LEXICON, DecodeParams())
    got = assert_each_expert_matches_reference(matrices, make, beam)
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


def test_experts_must_share_an_alphabet():
    other = Alphabet.with_nac("aB.'x ", separator=" ")
    rng = np.random.default_rng(0)
    matrices = [random_matrix(rng, ALPHA, 3), random_matrix(rng, other, 3)]
    with pytest.raises(InvariantViolation, match="share an alphabet"):
        prefix_beam_search_many(matrices, _FsaConstraint(RULES, ALPHA), 8)


@pytest.mark.parametrize("value", [2.0, 1.0, -0.1, -1.0, float("nan")])
def test_min_symbol_prob_outside_unit_interval_is_rejected(value):
    alphabet = default_alphabet()
    m = generate_synthetic("the cat", alphabet, frames_per_char=3, noise=0.1, seed=1)
    rules = compile_rules(default_rule_config(alphabet), alphabet)
    with pytest.raises(ValueError, match="min_symbol_prob"):
        decode_expression(m, rules, beam_width=8, min_symbol_prob=value)
    with pytest.raises(ValueError, match="min_symbol_prob"):
        prefix_beam_search(m, _FsaConstraint(rules, alphabet), 8, value)


class CountingConstraint:
    """Passes a constraint through, counting ``successors`` calls per state."""

    def __init__(self, inner):
        self.initial = inner.initial
        self._successors = inner.successors
        self.calls = Counter()

    def successors(self, state):
        self.calls[state] += 1
        return self._successors(state)


@pytest.mark.parametrize("beam", DEGENERATE_BEAMS)
@pytest.mark.parametrize("kind", ["fsa", "lexicon", "rules"])
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.1]))
@settings(max_examples=25, deadline=None)
def test_each_state_row_is_built_once_per_search(kind, beam, seed, min_symbol_prob):
    rng = np.random.default_rng(seed)
    # The wide alphabet only under a beam: unpruned, its prefixes multiply
    # tenfold per frame.
    if beam is not None and rng.random() < 0.5:
        alphabet, rules, lexicon = WIDE, WIDE_RULES, WIDE_LEXICON
    else:
        alphabet, rules, lexicon = ALPHA, RULES, random_lexicon(rng)
    m = random_matrix(rng, alphabet, int(rng.integers(1, 7)))
    params = DecodeParams(oov_policy=str(rng.choice(["reject", "pass-punct"])))
    make = constraint_maker(kind, alphabet, rules, lexicon, params)
    counted = CountingConstraint(make())
    want = search_outcome(prefix_beam_search, m, make(), beam, min_symbol_prob)
    assert search_outcome(prefix_beam_search, m, counted, beam, min_symbol_prob) == want
    assert max(counted.calls.values()) == 1
    # No row outlives its search: a second search asks again.
    search_outcome(prefix_beam_search, m, counted, beam, min_symbol_prob)
    assert counted.calls[counted.initial.state] == 2
    assert max(counted.calls.values()) == 2
    # One batched search asks for each state's row once, however many
    # experts reach the state.
    matrices = [m] + [random_matrix(rng, alphabet, int(rng.integers(1, 6))) for _ in range(2)]
    counted = CountingConstraint(make())
    got = prefix_beam_search_many(matrices, counted, beam, min_symbol_prob)
    assert max(counted.calls.values()) == 1
    assert [None if isinstance(r, NoAcceptedString) else r for r in got] == [
        search_outcome(prefix_beam_search, x, make(), beam, min_symbol_prob) for x in matrices
    ]
