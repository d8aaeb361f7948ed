"""Dictionary-constrained decoding (scheme ``dec-dm``).

Searches for the most confident string whose every word belongs to the
lexicon, scored jointly with unigram word frequencies:

    score(text) = log P_ctc(text) + alpha * sum_w log(count(w) / total)
                  + beta * #words

Words may be wrapped in attaching punctuation without dictionary
membership. Within a line, words are separated by the separator symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .ctc import NEG_INF
from .errors import EmptyLexicon, NoAcceptedString
from .expressions import ExpressionModel
from .lexicon import Lexicon
from .matrix import ConfidenceMatrix
from .search import Compiled, _frozen, _hypotheses, _hypothesis, prefix_beam_search, prefix_beam_search_many
from .types import Hypothesis

OOV_POLICIES = ("reject", "pass-punct")


@dataclass(frozen=True)
class DecodeParams:
    """Knobs for dictionary decoding.

    ``lm_weight`` (alpha) scales the unigram log frequencies;
    ``word_bonus`` (beta) is a per-word additive bonus countering the
    prior's preference for fewer words. ``oov_policy`` is ``"reject"``
    (every word must be in the lexicon) or ``"pass-punct"`` (tokens made
    purely of attaching punctuation are also permitted).
    ``min_symbol_prob``, in [0, 1), prunes extensions below that
    per-frame probability; keep at 0 for exact search.
    """

    lm_weight: float = 1.0
    word_bonus: float = 0.0
    beam_width: int | None = 64
    oov_policy: str = "reject"
    min_symbol_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.lm_weight < math.inf:
            raise ValueError("lm_weight must be finite and >= 0")
        if not math.isfinite(self.word_bonus):
            raise ValueError("word_bonus must be finite")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1 or None")
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"oov_policy must be one of {OOV_POLICIES}")
        if not 0.0 <= self.min_symbol_prob < 1.0:
            raise ValueError("min_symbol_prob must be in [0, 1)")


def _table(
    lexicon: Lexicon, alphabet, params: DecodeParams, expression_model: ExpressionModel | None = None
) -> Compiled:
    """The lexicon constraint over ``alphabet`` as one compiled table,
    intersected with the expression model's table if any: made on the
    first call and kept on the lexicon for every later one with the same
    alphabet and params. An empty lexicon raises, then a model that does
    not fit the alphabet, before anything is compiled.

    The lexicon is a weighted automaton over its trie (:func:`_automaton`),
    determinized once (:func:`_determinized`). The product with the rules
    (:func:`_product`) is kept under the contents of the rules' table, so
    models compiled alike share it.
    """
    if len(lexicon) == 0:
        raise EmptyLexicon("cannot decode with an empty lexicon")
    rules = None if expression_model is None else expression_model._table(alphabet)
    # What a table depends on besides the lexicon; the floats as hex, so
    # that -0.0 and 0.0 get tables of their own.
    key = (
        alphabet.symbols, alphabet.nac_index,
        float(params.lm_weight).hex(), float(params.word_bonus).hex(), params.oov_policy,
    )
    tables = lexicon._tables
    if key not in tables:
        tables[key] = _frozen(*_determinized(*_automaton(lexicon, alphabet, params)), key[:2])
    if rules is None:
        return tables[key]
    both = (*key, tuple(array.tobytes() for array in rules if isinstance(array, np.ndarray)))
    if both not in tables:
        tables[both] = _product(rules, tables[key])
    return tables[both]


def _automaton(lexicon: Lexicon, alphabet, params: DecodeParams):
    """The lexicon automaton over the printable symbols of ``alphabet``
    (search cell ``i`` holds ``printable_indices[i - 1]``): ``rank`` and
    ``final`` per state, and the arcs ``src``, ``cell``, ``dst`` (int32)
    and ``weight``, sorted by ``(src, cell)``.

    START is state 0, and a word in progress is its trie node n; then come
    BETWEEN (after a separator), PRE (after leading punctuation) and POST
    (after trailing punctuation). Trie arcs spell words; a complete word
    leaves by the separator to BETWEEN, or by attaching punctuation to
    POST, with its prior (weighted unigram score plus word bonus) as the
    arc weight. A state's ``rank`` is the best prior of a word at or below
    it (0 off a word), so a word in progress ranks comparably to a
    finished one. A symbol that both extends a word and attaches (an
    apostrophe that may end the word or continue it) gives a state two
    arcs on one cell, which :func:`_determinized` merges.
    """
    n = lexicon.parent.size
    between, pre, post = n, n + 1, n + 2
    states = n + 3
    pass_punct = params.oov_policy == "pass-punct"
    cell_of = {alphabet.symbols[s]: c for c, s in enumerate(alphabet.printable_indices, 1)}
    separator = cell_of.get(lexicon.separator)
    parent, cell = lexicon.parent.astype(np.int32), np.zeros(n, dtype=np.int32)
    distinct, at = np.unique(lexicon.char[1:], return_inverse=True)
    cell[1:] = np.array([cell_of.get(chr(c), 0) for c in distinct.tolist()], dtype=np.int32)[at]
    # ``0.0 + prior`` of each node's word count (-inf: no word) and best
    # count, one ``math.log`` per distinct count. The prior is monotone in
    # the count (``lm_weight >= 0``), so the best prior of the words below
    # a node is the prior of their best count.
    log_total = math.log(lexicon.total_count)
    distinct, at = np.unique(np.concatenate((lexicon.word_count, lexicon.best_count)), return_inverse=True)
    prior = np.array([
        0.0 + (params.lm_weight * (math.log(c) - log_total) + params.word_bonus) if c else NEG_INF
        for c in distinct.tolist()
    ])
    done, best = prior[at[:n]], prior[at[n:]]
    rank, final = np.zeros(states), np.full(states, NEG_INF)
    rank[1:n], final[1:n] = best[1:], done[1:]
    final[[0, post]] = 0.0
    if pass_punct:
        final[pre] = 0.0
    # Where each state's attach arcs go (-1: it has none), and the weight
    # of its attach and separator arcs, a complete word's prior.
    complete = (done > NEG_INF).nonzero()[0].astype(np.int32)
    attach_to = np.full(states, -1, dtype=np.int32)
    attach_to[complete] = post
    attach_to[[0, between, pre, post]] = [pre, pre, pre, post]
    leave = np.zeros(states)
    leave[complete] = done[complete]
    attaching = (attach_to >= 0).nonzero()[0].astype(np.int32)
    separating = np.zeros(0, dtype=np.int32)
    if separator is not None:
        separating = np.append(complete, [post, pre] if pass_punct else [post]).astype(np.int32)

    # The trie children (the root's from START, BETWEEN and PRE), then
    # each attaching state's attach arcs and separator arc.
    kids = cell.nonzero()[0].astype(np.int32)
    roots = kids[parent[kids] == 0]
    attach = np.array(
        sorted(c for ch, c in cell_of.items() if ch in lexicon.attach_chars and c != separator), dtype=np.int32
    )
    between_of, pre_of = (np.full(roots.size, s, dtype=np.int32) for s in (between, pre))
    src = np.concatenate((parent[kids], between_of, pre_of, attaching.repeat(attach.size), separating))
    dst = np.concatenate(
        (kids, roots, roots, attach_to[attaching].repeat(attach.size), np.full(separating.size, between, dtype=np.int32))
    )
    trie = kids.size + 2 * roots.size
    arc = np.concatenate((cell[dst[:trie]], np.tile(attach, attaching.size)))
    arc = np.concatenate((arc, np.full(separating.size, separator or 0, dtype=np.int32)))
    weight = leave[src]
    weight[:trie] = 0.0
    order = np.lexsort((arc, src))
    return rank, final, src[order], arc[order], dst[order], weight[order]


def _determinized(rank, final, src, cell, dst, weight):
    """The rows of a weighted automaton made deterministic, as
    :func:`search._frozen` takes them. The automaton is ``rank`` and
    ``final`` per state, and the arcs ``src``, ``cell``, ``dst`` and
    ``weight``, sorted by ``(src, cell)``.

    This is subset construction in the (max, +) semiring with residual
    weights (Mohri 1997). Every state keeps its id and, on a cell where it
    has one arc, that arc. On a cell where it has several, the arc goes to
    the set of their targets, each stored as ``(target, score - top)``, and
    ``top``, the best score, becomes the arc weight. A set's ``rank`` and
    ``final`` are the best over its members of residual plus the member's
    value, and its row merges its members' arcs the same way. A set of one
    state is that state; the other sets get the next ids, in the order they
    are first reached. The one-arc cells are copied as arrays, and a
    Python worklist builds the sets. It ends when finitely many sets can
    be reached, as in a lexicon automaton: every separator arc goes to
    BETWEEN, and the punctuation loops weigh 0.
    """
    states = rank.size
    # The first arc of each (state, cell), and those followed by others.
    head = np.ones(src.size, dtype=bool)
    head[1:] = (src[1:] != src[:-1]) | (cell[1:] != cell[:-1])
    several = (head[:-1] & ~head[1:]).nonzero()[0].tolist()
    ids: dict[tuple, int] = {}
    members: list[tuple] = []

    def target(scores: dict[int, float]) -> tuple[int, float]:
        # The id of the set of ``{target: score}``, and its ``top``.
        top = max(scores.values())
        key = tuple(sorted((q, score - top) for q, score in scores.items()))
        if len(key) == 1:
            return key[0][0], top
        if key not in ids:
            ids[key] = states + len(members)
            members.append(key)
        return ids[key], top

    def merge(row: dict, arcs, residual: float) -> None:
        # Adds ``arcs`` at ``residual`` to ``row``: per cell, each target's best score.
        for x in arcs:
            scores = row.setdefault(int(cell[x]), {})
            q, score = int(dst[x]), residual + float(weight[x])
            if score > scores.get(q, NEG_INF):
                scores[q] = score

    rows = []
    if several:
        # Each state's arcs are ``first[state]:first[state + 1]``.
        first = src.searchsorted(np.arange(states + 1)).tolist()
        heads = []
        for x in several:
            row: dict = {}
            merge(row, range(first[src[x]], first[src[x] + 1]), 0.0)
            heads.append((x, *target(row[int(cell[x])])))
        for key in members:  # also visits the sets that ``target`` appends
            row = {}
            for q, residual in key:
                merge(row, range(first[q], first[q + 1]), residual)
            rows.append([(c, *target(row[c])) for c in sorted(row)])
        dst, weight = dst.copy(), weight.copy()
        for x, q, top in heads:
            dst[x], weight[x] = q, top
        src, cell, dst, weight = (a[head] for a in (src, cell, dst, weight))

    # Rows in id order, each after a slot for its stay (which ``_frozen``
    # fills): the automaton's, then the sets'.
    length = np.bincount(src, minlength=states + len(rows))
    length[states:] = [len(row) for row in rows]
    size = states + int(length[:states].sum())
    arcs = np.ones(size, dtype=bool)
    arcs[np.cumsum(length[:states] + 1) - 1 - length[:states]] = False
    slots = [slot for row in rows for slot in ((0, 0, 0.0), *row)]
    offset, child = (np.zeros(size + len(slots), dtype=np.intp) for _ in range(2))
    weights = np.zeros(size + len(slots))
    for out, values in ((offset, cell), (child, dst), (weights, weight)):
        out[:size][arcs] = values
    if slots:
        offset[size:], child[size:], weights[size:] = zip(*slots)
    return (
        np.append(rank, [max(r + float(rank[q]) for q, r in key) for key in members]),
        np.append(final, [max(r + float(final[q]) for q, r in key) for key in members]),
        length, offset, child, weights,
    )


def _product(a: Compiled, b: Compiled) -> Compiled:
    """The intersection of two tables, over the pairs of states that the
    pair of initial states reaches, numbered breadth first: a pair's row
    holds the cells that both rows hold, and ranks, finals and arc weights
    add. ``a`` is read through a dense state-by-cell array, so it should be
    the smaller table."""
    na, nb = a.rank.size, b.rank.size
    # ``a``'s slot of each (state, cell), -1 where it has none (a stay's cell is 0).
    slots = np.full((na, int(max(a.offset.max(), b.offset.max())) + 1), -1, dtype=np.intp)
    slots[np.arange(na).repeat(a.length + 1), a.offset] = np.arange(a.offset.size)
    # Each pair is keyed ``state_a * nb + state_b``; ``ids`` numbers them.
    ids = np.full(na * nb, -1, dtype=np.intp)
    ids[0] = 0
    keys, level, n = [np.zeros(1, dtype=np.intp)], np.zeros(1, dtype=np.intp), 1
    lengths, offsets, children, weights = [], [], [], []
    while level.size:
        # ``b``'s stays and rows of the level's pairs, slot by slot, kept
        # where ``a``'s row has the cell too: a pair's stay is its two stays.
        pa, pb = np.divmod(level, nb)
        count = b.length[pb] + 1
        pair = np.arange(level.size).repeat(count)
        slot_b = np.arange(count.sum()) + (b.start[pb] - 1 - np.cumsum(count) + count).repeat(count)
        slot_a = slots[pa[pair], b.offset[slot_b]]
        both = (slot_a >= 0).nonzero()[0]
        pair, slot_a, slot_b = pair[both], slot_a[both], slot_b[both]
        lengths.append(np.bincount(pair, minlength=level.size) - 1)
        # The pairs reached, numbered in key order: the next level.
        key = a.child[slot_a] * nb + b.child[slot_b]
        level = np.unique(key[ids[key] < 0])
        ids[level] = np.arange(n, n + level.size)
        n += level.size
        keys.append(level)
        offsets.append(b.offset[slot_b])
        children.append(ids[key])
        weights.append(a.weight[slot_a] + b.weight[slot_b])
    ka, kb = np.divmod(np.concatenate(keys), nb)
    return _frozen(
        a.rank[ka] + b.rank[kb],
        a.final[ka] + b.final[kb],
        np.concatenate(lengths),
        *(np.concatenate(arrays) for arrays in (offsets, children, weights)),
        a.alphabet,
    )


def decode_dictionary(
    matrix: ConfidenceMatrix,
    lexicon: Lexicon,
    params: DecodeParams = DecodeParams(),
    expression_model: ExpressionModel | None = None,
) -> Hypothesis:
    """Best lexicon-constrained hypothesis for the matrix.

    ``expression_model`` optionally intersects the search with an
    expression FSA (dictionary decoding on top of expression rules). The
    hypothesis score is the full log-linear objective; word confidences
    are per-word CTC marginals over the decoded frame spans.
    """
    found = prefix_beam_search(
        matrix,
        _table(lexicon, matrix.alphabet, params, expression_model),
        beam_width=params.beam_width,
        min_symbol_prob=params.min_symbol_prob,
    )
    return _hypothesis(matrix, lexicon.separator, *found)


def _decode_dictionary_many(
    matrices: list[ConfidenceMatrix],
    lexicon: Lexicon,
    params: DecodeParams,
    expression_model: ExpressionModel | None = None,
    votes_only: bool = False,
) -> list[Hypothesis | NoAcceptedString]:
    """:func:`decode_dictionary` of each matrix (the experts of one line),
    as one search under one constraint.

    Errors that do not depend on a matrix (an empty lexicon, an invalid
    expression model, experts with different alphabets) raise; an
    expert whose search finds no accepted string gets the
    :class:`NoAcceptedString` in its place. ``votes_only`` is for a
    committee that votes by count alone: see ``search._hypotheses``.
    """
    found = prefix_beam_search_many(
        matrices,
        _table(lexicon, matrices[0].alphabet, params, expression_model),
        beam_width=params.beam_width,
        min_symbol_prob=params.min_symbol_prob,
    )
    return _hypotheses(matrices, lexicon.separator, found, votes_only)

