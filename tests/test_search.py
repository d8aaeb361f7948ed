"""Properties of the prefix beam search under pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import (
    Alphabet,
    DecodeParams,
    Lexicon,
    NoAcceptedString,
    accept_all_model,
    compile_rules,
    decode_dictionary,
    decode_expression,
    default_rule_config,
    string_log_score,
)
from oracles import random_matrix

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
