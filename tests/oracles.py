"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: path enumeration instead of the
forward DP, recursive edit distance instead of the tabulated one. Slow
but obviously correct, so decoder outputs can be checked against them.
The scalar references (the prefix search, and the CTC lattice stepped
one lattice and one frame at a time) keep the arithmetic of the batched
code, so its results must match them bit for bit. So do the plain
references for the text-matrix parse (one ``float`` per value, row by
row) and the edit alignment (a ``min()`` per cell). The rule compiler's
reference builds the automaton arc by arc.
"""

from __future__ import annotations

import io
import itertools
import math
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ctcdec import (
    Alphabet,
    ConfidenceMatrix,
    DecodeParams,
    ExpressionModel,
    InvalidSymbol,
    LengthMismatch,
    Lexicon,
    NoAcceptedString,
    ParseError,
)
from ctcdec.alphabet import file_alphabet
from ctcdec.ctc import NEG_INF
from ctcdec.errors import InvalidRule
from ctcdec.expressions import (
    _MODES,
    CLASS_ATTACH,
    CLASS_DIGIT,
    CLASS_INWORD,
    CLASS_LOWER,
    CLASS_SEPARATOR,
    CLASS_STANDALONE,
    CLASS_UPPER,
    KNOWN_CLASSES,
    RuleConfig,
)
from ctcdec.matio import TEXT_MAGIC, _decode, _parse_frame_count


def enumerate_string_probs(matrix: ConfidenceMatrix) -> dict[str, float]:
    """Marginal probability of every string, by enumerating all S^T paths."""
    n_frames, n_symbols = matrix.probs.shape
    paths = np.array(
        list(itertools.product(range(n_symbols), repeat=n_frames)), dtype=np.intp
    )
    probs = matrix.probs[np.arange(n_frames), paths].prod(axis=1)
    symbols = matrix.alphabet.symbols
    nac = matrix.alphabet.nac_index
    out: dict[str, float] = {}
    for row, p in zip(paths.tolist(), probs.tolist()):
        prev = -1
        chars = []
        for idx in row:
            if idx != prev:
                if idx != nac:
                    chars.append(symbols[idx])
                prev = idx
        text = "".join(chars)
        out[text] = out.get(text, 0.0) + p
    return out


def argmax_string(scores: dict[str, float], alphabet: Alphabet) -> str:
    """Highest-probability string; ties toward the smallest index tuple
    (matching the decoder's tie-break)."""
    index = alphabet.index_of

    def key(text: str):
        return (-scores[text], tuple(index[c] for c in text))

    return min(scores, key=key)


def recursive_edit_distance(a, b) -> int:
    """Levenshtein distance straight from the recursive definition."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = rec(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1)
        return min(sub, rec(i - 1, j) + 1, rec(i, j - 1) + 1)

    return rec(len(a), len(b))


def random_matrix(
    rng: np.random.Generator, alphabet: Alphabet, n_frames: int
) -> ConfidenceMatrix:
    rows = rng.dirichlet(np.ones(len(alphabet)), size=n_frames)
    return ConfidenceMatrix(rows, alphabet)


def accept_all_model(alphabet: Alphabet) -> ExpressionModel:
    """FSA accepting every string over the printable alphabet."""
    classes = {sym: "any" for sym in alphabet.printable_symbols}
    return ExpressionModel(
        start="s",
        transitions={("s", "any"): "s"},
        accepting=frozenset({"s"}),
        symbol_classes=classes,
    )


def reference_collapse(path, alphabet: Alphabet) -> str:
    """Two-pass reference: merge runs with groupby, then drop NaC."""
    merged = [label for label, _ in itertools.groupby(path)]
    return "".join(
        alphabet.symbols[i] for i in merged if i != alphabet.nac_index
    )


def path_log_score(matrix: ConfidenceMatrix, path) -> float:
    """Log probability of a single path; -inf if any factor is zero."""
    labels = np.asarray(path, dtype=np.intp)
    if labels.shape != (matrix.num_frames,):
        raise LengthMismatch(
            f"path has {labels.shape[0] if labels.ndim == 1 else '?'} labels, "
            f"matrix has {matrix.num_frames} frames"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= matrix.num_symbols):
        raise InvalidSymbol("path label out of range")
    factors = matrix.probs[np.arange(matrix.num_frames), labels]
    if np.any(factors == 0.0):
        return NEG_INF
    return float(np.log(factors).sum())


def reference_runs(values) -> list[tuple[int, int]]:
    """Maximal runs of equal values as ``(start, end)`` pairs, one value
    at a time."""
    out: list[tuple[int, int]] = []
    for t, value in enumerate(values):
        if out and values[out[-1][0]] == value:
            out[-1] = (out[-1][0], t + 1)
        else:
            out.append((t, t + 1))
    return out


def reference_detect_boundaries(matrix: ConfidenceMatrix, threshold: float) -> list[tuple[int, int]]:
    """NaC intervals at or above ``threshold``, one frame at a time."""
    mask = matrix.probs[:, matrix.alphabet.nac_index] >= threshold
    intervals: list[tuple[int, int]] = []
    start = None
    for t, hit in enumerate(mask):
        if hit and start is None:
            start = t
        elif not hit and start is not None:
            intervals.append((start, t))
            start = None
    if start is not None:
        intervals.append((start, matrix.num_frames))
    return intervals


def reference_best_path_confidences(matrix: ConfidenceMatrix) -> tuple[float, ...]:
    """Best-path word confidences, one frame at a time: per word, the
    minimum of the per-frame maximum confidence over the frames from its
    first character to its last, NaC frames between them included."""
    alphabet = matrix.alphabet
    out: list[float] = []
    word_min = None  # None: not inside a word
    gap: list[float] = []  # NaC frames since the word's last character
    for row in matrix.probs.tolist():
        top = max(row)
        label = row.index(top)
        if label == alphabet.nac_index:
            gap.append(top)
        elif alphabet.symbols[label] == alphabet.separator:
            if word_min is not None:
                out.append(word_min)
            word_min, gap = None, []
        else:
            word_min = top if word_min is None else min([word_min, top, *gap])
            gap = []
    if word_min is not None:
        out.append(word_min)
    return tuple(out)


def dm_valid_texts(
    scores: dict[str, float],
    lexicon,
    pass_punct: bool = False,
) -> dict[str, float]:
    """Filter enumerated strings down to the dictionary decoder's language."""
    return {
        text: p for text, p in scores.items() if dm_text_valid(text, lexicon, pass_punct)
    }


def dm_text_valid(text: str, lexicon, pass_punct: bool = False) -> bool:
    if text == "":
        return True
    sep = lexicon.separator
    if sep is None:
        tokens = [text]
    else:
        if text.startswith(sep) or text.endswith(sep) or (sep + sep) in text:
            return False
        tokens = text.split(sep)
    return all(_token_valid(tok, lexicon, pass_punct) for tok in tokens)


def _token_valid(token: str, lexicon, pass_punct: bool) -> bool:
    attach = lexicon.attach_chars
    if pass_punct and all(c in attach for c in token):
        return True
    n = len(token)
    for i in range(n):
        if any(c not in attach for c in token[:i]):
            break
        for j in range(i + 1, n + 1):
            if token[i:j] in lexicon and all(c in attach for c in token[j:]):
                return True
    return False


def log_unigram(lexicon, word: str) -> float:
    """log(count / total) of ``word`` in ``lexicon``; -inf for unknown words."""
    count = lexicon.counts.get(word)
    if count is None:
        return float("-inf")
    return math.log(count) - math.log(lexicon.total_count)


def _token_best_prior(token: str, lexicon, alpha: float, beta: float, pass_punct: bool):
    """Best (lead, core, trail) parse prior of a token; None if invalid."""
    import math

    attach = lexicon.attach_chars
    best = None
    if pass_punct and all(c in attach for c in token):
        best = 0.0
    n = len(token)
    for i in range(n):
        if any(c not in attach for c in token[:i]):
            break
        for j in range(i + 1, n + 1):
            if token[i:j] in lexicon and all(c in attach for c in token[j:]):
                prior = alpha * log_unigram(lexicon, token[i:j]) + beta
                if best is None or prior > best:
                    best = prior
    return best


def dm_objective(
    text: str,
    matrix: ConfidenceMatrix,
    lexicon,
    alpha: float,
    beta: float,
    pass_punct: bool = False,
):
    """Full dictionary-decoding objective of a text; None if invalid.

    ``log P_ctc + alpha * sum log p(word) + beta * #words`` with the best
    parse chosen per token. The CTC term comes from the forward DP, which
    the suite separately verifies against path enumeration.
    """
    from ctcdec import string_log_score

    if text == "":
        return string_log_score(matrix, "")
    sep = lexicon.separator
    if sep is None:
        tokens = [text]
    else:
        if text.startswith(sep) or text.endswith(sep) or (sep + sep) in text:
            return None
        tokens = text.split(sep)
    prior = 0.0
    for token in tokens:
        token_prior = _token_best_prior(token, lexicon, alpha, beta, pass_punct)
        if token_prior is None:
            return None
        prior += token_prior
    return string_log_score(matrix, text) + prior


def trie_prefixes(lexicon) -> dict[int, str]:
    """The string spelled by each trie node, from its parent's and the
    character into it (a parent comes before its children)."""
    out = {0: ""}
    for node in range(1, lexicon.parent.size):
        out[node] = out[int(lexicon.parent[node])] + chr(lexicon.char[node])
    return out


def reference_trie(counts) -> tuple[list[dict[str, int]], list[int], list[int]]:
    """The lexicon trie as a dict per node, built word by word in sorted
    order (nodes are ints, the root is 0): ``children[node]`` maps a
    character to its child node, and ``word_count[node]`` is the count of
    the word ending at the node (0: none). ``best_count[node]``, the
    largest count of a word at or below the node, comes from a reverse
    sweep. ``Lexicon``'s arrays must equal these."""
    children: list[dict[str, int]] = [{}]
    word_count: list[int] = [0]
    for word, count in dict(sorted(counts.items())).items():
        node = 0
        for ch in word:
            nxt = children[node].get(ch)
            if nxt is None:
                nxt = len(children)
                children[node][ch] = nxt
                children.append({})
                word_count.append(0)
            node = nxt
        word_count[node] = count
    best = word_count.copy()
    # Children always have larger ids than their parent, so a reverse
    # sweep propagates bottom-up.
    for node in range(len(best) - 1, -1, -1):
        for child in children[node].values():
            if best[child] > best[node]:
                best[node] = best[child]
    return children, word_count, best


def trie_node_priors(lexicon, lm_weight: float, word_bonus: float):
    """Per trie node, the best word prior at or below it and the prior of
    the word ending there (None if no word ends there), with the word
    prior ``lm_weight * (log count - log total) + word_bonus`` evaluated
    for every word and maximized directly."""
    log_total = math.log(lexicon.total_count)
    word_prior = {
        word: lm_weight * (math.log(count) - log_total) + word_bonus
        for word, count in lexicon.counts.items()
    }
    best, completed = {}, {}
    for node, prefix in trie_prefixes(lexicon).items():
        best[node] = max(p for w, p in word_prior.items() if w.startswith(prefix))
        completed[node] = word_prior.get(prefix)
    return best, completed


class Node(NamedTuple):
    """A reference constraint state with its bonuses, as a row of
    ``reference_successors`` gives it.

    ``rank`` is the score bonus used when pruning (0 when scores are pure
    CTC mass); ``final`` is the bonus if the prefix is an accepted
    complete string, else ``None``; ``weight`` is the weight of the arc
    that reached this node. Equal states must have equal ``rank`` and
    ``final``.
    """

    state: object
    rank: float
    final: float | None
    weight: float = 0.0


class Constraint(NamedTuple):
    """A search constraint as the tests describe it, over ``alphabet``: the
    expression ``model``, the ``lexicon`` decoded with ``params``, or both
    (the lexicon under the model's rules). The references read nothing
    else."""

    alphabet: Alphabet
    model: ExpressionModel | None = None
    lexicon: Lexicon | None = None
    params: DecodeParams = DecodeParams()


# Parse phases of a lexicon analysis, word by word.
_START, _BETWEEN, _PRE, _WORD, _POST = range(5)


def reference_lexicon_successors(constraint: Constraint, state) -> dict:
    """The row of a lexicon constraint's ``state`` (a tuple of analyses
    ``(phase, trie_node, prior)``), built from the lexicon's words as
    ``trie_node_priors`` builds the priors: a word analysis spells its
    node's prefix, it may go on by any symbol that some word continues it
    with, and it may end where it spells a word. Per symbol, the analyses
    reached keep their best prior, relative to the best, which becomes the
    arc weight; ``rank`` and ``final`` are maxima over the analyses
    reached. Only the trie node ids come from the lexicon's numbering
    (``trie_prefixes``). The rows of the compiled table must equal these
    bit for bit."""
    lexicon, alphabet, params = constraint.lexicon, constraint.alphabet, constraint.params
    pass_punct = params.oov_policy == "pass-punct"
    log_total = math.log(lexicon.total_count)
    word_prior = {
        word: params.lm_weight * (math.log(count) - log_total) + params.word_bonus
        for word, count in lexicon.counts.items()
    }
    spelled = trie_prefixes(lexicon)
    node_of = {prefix: node for node, prefix in spelled.items()}
    separator = lexicon.separator
    attach = lexicon.attach_chars - {separator}

    def node(reached: dict) -> Node:
        top = max(reached.values())
        analyses = tuple(sorted((phase, nd, prior - top) for (phase, nd), prior in reached.items()))
        rank = max(
            prior + (max(p for w, p in word_prior.items() if w.startswith(spelled[nd])) if phase == _WORD else 0.0)
            for phase, nd, prior in analyses
        )
        finals = []
        for phase, nd, prior in analyses:
            if phase == _WORD and spelled[nd] in word_prior:
                finals.append(prior + word_prior[spelled[nd]])
            elif phase in (_START, _POST) or (phase == _PRE and pass_punct):
                finals.append(prior)
        return Node(analyses, rank, max(finals) if finals else None, top)

    row = {}
    for c in alphabet.printable_indices:
        ch = alphabet.symbols[c]
        reached: dict[tuple[int, int], float] = {}

        def reach(phase: int, nd: int, prior: float) -> None:
            if prior > reached.get((phase, nd), NEG_INF):
                reached[phase, nd] = prior

        for phase, nd, prior in state:
            word = spelled[nd] if phase == _WORD else ""
            done = word_prior.get(word) if phase == _WORD else None
            if ch == separator:
                # A complete word, trailing punctuation, or (pass-punct)
                # leading punctuation standing alone ends a token.
                if done is not None:
                    reach(_BETWEEN, 0, prior + done)
                elif phase == _POST or (phase == _PRE and pass_punct):
                    reach(_BETWEEN, 0, prior)
                continue
            if phase != _POST and word + ch in node_of:
                reach(_WORD, node_of[word + ch], prior)
            if ch in attach:
                if phase in (_START, _BETWEEN, _PRE):
                    reach(_PRE, 0, prior)
                elif phase == _POST:
                    reach(_POST, 0, prior)
                elif done is not None:
                    reach(_POST, 0, prior + done)
        if reached:
            row[c] = node(reached)
    return row


def logadd(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving the log domain."""
    if a < b:
        a, b = b, a
    if b == NEG_INF:
        return a
    return a + math.log1p(math.exp(b - a))


def reference_successors(constraint: Constraint):
    """``(initial, successors)`` of a search constraint, built from its
    description alone: the initial ``Node`` and a function from a state to
    its row ``{symbol_index: Node}``, holding the symbols that some
    accepted string continues with.

    An expression model's state is a model state: its row steps the model
    by each printable symbol and keeps the targets from which an accepting
    state can be reached (found here by a walk back from the accepting
    states), with no weights, ranks 0 and finals 0 where they accept. A
    lexicon's state is a tuple of analyses, START's alone at first, and its
    rows are ``reference_lexicon_successors``. Under both, a state is the
    pair of the model's and the lexicon's states: its row holds the symbols
    of both rows, with ranks, finals and weights added.
    """
    if constraint.model is not None and constraint.lexicon is not None:
        first_initial, first = reference_successors(constraint._replace(lexicon=None))
        second_initial, second = reference_successors(constraint._replace(model=None))

        def pair(a: Node, b: Node) -> Node:
            final = None if a.final is None or b.final is None else a.final + b.final
            return Node((a.state, b.state), a.rank + b.rank, final, a.weight + b.weight)

        def paired(state) -> dict:
            row = second(state[1])
            return {c: pair(a, row[c]) for c, a in first(state[0]).items() if c in row}

        return pair(first_initial, second_initial), paired
    if constraint.lexicon is not None:
        return Node(((_START, 0, 0.0),), 0.0, 0.0), lambda state: reference_lexicon_successors(constraint, state)
    model, alphabet = constraint.model, constraint.alphabet
    live, grew = set(model.accepting), True
    while grew:
        reached = {src for (src, _), dst in model.transitions.items() if dst in live}
        grew = not reached <= live
        live |= reached

    def node(state: str) -> Node:
        return Node(state, 0.0, 0.0 if state in model.accepting else None)

    def successors(state: str) -> dict:
        steps = {i: model.step(state, alphabet.symbols[i]) for i in alphabet.printable_indices}
        return {i: node(nxt) for i, nxt in steps.items() if nxt in live}

    return node(model.start), successors


def assert_table_matches_reference(table, constraint: Constraint) -> dict:
    """Walks a compiled ``table`` from id 0 and the rows of
    ``reference_successors(constraint)`` from the initial state together,
    breadth first, over every state they reach (search cell ``i`` holds
    the alphabet's ``printable_indices[i - 1]``). Each id stands for one
    state and each state has one id. Every reached row equals the
    reference row bit for bit: the same cells in order, and per arc the
    weight and the target's rank and final as hex (-inf for a final of
    ``None``); so do the initial state's rank and final. Returns the state
    of each id reached."""
    initial, successors = reference_successors(constraint)
    cells = {s: c for c, s in enumerate(constraint.alphabet.printable_indices, 1)}

    def bonuses(node) -> tuple[str, str]:
        return node.rank.hex(), (NEG_INF if node.final is None else node.final).hex()

    assert (float(table.rank[0]).hex(), float(table.final[0]).hex()) == bonuses(initial)
    state_of, layer = {0: initial.state}, [0]
    while layer:
        following = []
        for i in layer:
            row = sorted((cells[c], node) for c, node in successors(state_of[i]).items())
            slots = range(table.start[i], table.start[i] + table.length[i])
            assert [
                (int(table.offset[x]), float(table.weight[x]).hex(),
                 float(table.rank[table.child[x]]).hex(), float(table.final[table.child[x]]).hex())
                for x in slots
            ] == [(cell, node.weight.hex(), *bonuses(node)) for cell, node in row], state_of[i]
            for x, (_, node) in zip(slots, row):
                j = int(table.child[x])
                if j not in state_of:
                    state_of[j] = node.state
                    following.append(j)
                assert state_of[j] == node.state
        layer = following
    assert len(set(state_of.values())) == len(state_of)
    return state_of


def reference_prefix_beam_search(
    matrix: ConfidenceMatrix, constraint: Constraint, beam_width=64, min_symbol_prob=0.0
):
    """The scalar prefix beam search: one dict entry per prefix, one
    ``logadd`` per candidate, the constraint's rows (``reference_successors``)
    asked wherever a new prefix appears. Same contract, tie order and
    result as ``ctcdec.search.prefix_beam_search``."""
    PB, PNB, NODE, ACC = 0, 1, 2, 3
    nac = matrix.alphabet.nac_index
    logp = matrix.log_probs
    floor = math.log(min_symbol_prob) if min_symbol_prob > 0.0 else NEG_INF
    printable = matrix.alphabet.printable_indices

    initial, successors = reference_successors(constraint)
    beam = {(): [0.0, NEG_INF, initial, initial.weight]}

    for t in range(matrix.num_frames):
        row = logp[t]
        blank = row[nac]
        cands = [c for c in printable if row[c] > floor]
        nxt = {}

        for prefix, entry in beam.items():
            pb, pnb, node, acc = entry
            total = logadd(pb, pnb)

            ent = nxt.get(prefix)
            if ent is None:
                ent = [NEG_INF, NEG_INF, node, acc]
                nxt[prefix] = ent
            if blank != NEG_INF:
                ent[PB] = logadd(ent[PB], total + blank)
            last = prefix[-1] if prefix else -1
            if last >= 0 and pnb != NEG_INF and row[last] != NEG_INF:
                ent[PNB] = logadd(ent[PNB], pnb + row[last])

            for c in cands:
                mass = (pb + row[c]) if c == last else (total + row[c])
                if mass == NEG_INF:
                    continue
                new_prefix = prefix + (c,)
                ent2 = nxt.get(new_prefix)
                if ent2 is None:
                    new_node = successors(node.state).get(c)
                    if new_node is None:
                        continue
                    ent2 = [NEG_INF, NEG_INF, new_node, acc + new_node.weight]
                    nxt[new_prefix] = ent2
                ent2[PNB] = logadd(ent2[PNB], mass)

        live = {p: e for p, e in nxt.items() if e[PB] != NEG_INF or e[PNB] != NEG_INF}
        if beam_width is not None and len(live) > beam_width:
            ranked = sorted(
                live.items(),
                key=lambda kv: (-(logadd(kv[1][PB], kv[1][PNB]) + kv[1][ACC] + kv[1][NODE].rank), kv[0]),
            )
            kept = ranked[:beam_width]
            if all(e[NODE].final is None for _, e in kept):
                for candidate in ranked[beam_width:]:
                    if candidate[1][NODE].final is not None:
                        kept.append(candidate)
                        break
            live = dict(kept)
        beam = live

    best_prefix = None
    best_score = NEG_INF
    best_parts = (NEG_INF, 0.0)
    for prefix, (pb, pnb, node, acc) in beam.items():
        if node.final is None:
            continue
        bonus = acc + node.final
        mass = logadd(pb, pnb)
        if mass == NEG_INF:
            continue
        score = mass + bonus
        if best_prefix is None or score > best_score or (score == best_score and prefix < best_prefix):
            best_prefix = prefix
            best_score = score
            best_parts = (mass, bonus)
    if best_prefix is None:
        raise NoAcceptedString("beam exhausted with no accepted hypothesis")
    return best_prefix, best_parts[0], best_parts[1]


def reference_cut(cand, score, finals, runs, beam_width, prefix_of) -> np.ndarray:
    """The beam cut of one frame, as the search made it before it read each
    expert's run as a slice of the candidate list: the finite candidates
    first, then one cut per expert's run of those. ``runs`` bounds each
    expert's run of the whole list, ``finals`` flags the final
    candidates."""
    keep = (cand > NEG_INF).nonzero()[0]
    if beam_width is not None and keep.size > beam_width:
        bounds = keep.searchsorted(runs).tolist()
        keep = np.concatenate([
            _reference_cut_run(keep[lo:hi], score, finals, beam_width, prefix_of) for lo, hi in zip(bounds, bounds[1:])
        ])
    return keep


def _reference_cut_run(run: np.ndarray, score: np.ndarray, finals: np.ndarray, beam_width: int, prefix_of) -> np.ndarray:
    """The candidates of one expert's ``run`` that survive the beam.

    The ``beam_width`` best by score, ties broken toward the smaller
    ``prefix_of(candidate)``, plus an anchor when none of them is final.
    """
    if run.size <= beam_width:
        return run
    score, finals = score[run], finals[run]
    # Everything scoring at least the beam_width-th best score; only when
    # exact ties cross that edge does the prefix order decide.
    cut = score.size - beam_width
    edge = score.copy()
    edge.partition(cut)
    top = (score >= edge[cut]).nonzero()[0]
    if top.size > beam_width:
        s = score.tolist()
        top = np.array(sorted(top.tolist(), key=lambda x: (-s[x], prefix_of(int(run[x]))))[:beam_width])
    # Keep the best already-accepted prefix alive as an anchor, so a narrow
    # beam full of unfinishable prefixes cannot strand the search without
    # any acceptable hypothesis at the last frame.
    if finals[top].any() or not finals.any():
        return run[top]
    best = run[finals & (score == score[finals].max())].tolist()
    return np.concatenate((run[top], [best[0] if len(best) == 1 else min(best, key=prefix_of)]))


class _ReferenceLattice:
    """The scalar CTC lattice of one text: ``[NaC, c1, NaC, ..., cN, NaC]``
    over the frames of ``log_probs`` (a T x S log-probability array),
    stepped one frame at a time on 1-D arrays."""

    def __init__(self, log_probs: np.ndarray, text: str, alphabet: Alphabet):
        nac = alphabet.nac_index
        labels = np.empty(2 * len(text) + 1, dtype=np.intp)
        labels[0::2] = nac
        labels[1::2] = [alphabet.index_of[ch] for ch in text]
        self.emit = log_probs[:, labels]
        self.init = np.full(labels.shape[0], NEG_INF)
        self.init[:2] = self.emit[0, :2]
        self._jump_mask = np.full(labels.shape[0], NEG_INF)
        self._jump_mask[2:][(labels[2:] != nac) & (labels[2:] != labels[:-2])] = 0.0

    def moves(self, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores entering each state by a stay, a step and a jump over a NaC."""
        padded = np.concatenate(([NEG_INF, NEG_INF], prev))
        return prev, padded[1:-1], padded[:-2] + self._jump_mask


def reference_log_marginal(log_probs: np.ndarray, text: str, alphabet: Alphabet) -> float:
    """The scalar forward pass: log marginal of ``text`` over ``log_probs``."""
    lattice = _ReferenceLattice(log_probs, text, alphabet)
    alpha = lattice.init
    for emit in lattice.emit[1:]:
        stay, step, jump = lattice.moves(alpha)
        alpha = np.logaddexp(np.logaddexp(stay, step), jump) + emit
    if alpha.shape[0] == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def reference_force_align(matrix: ConfidenceMatrix, text: str) -> list[tuple[int, int]]:
    """The scalar Viterbi alignment: per character of ``text``, its
    end-exclusive frame interval; ``LengthMismatch`` when none exists."""
    lattice = _ReferenceLattice(matrix.log_probs, text, matrix.alphabet)
    n_frames = matrix.num_frames
    score = lattice.init
    back = np.zeros((n_frames, score.shape[0]), dtype=np.intp)
    for t in range(1, n_frames):
        moves = np.stack(lattice.moves(score))
        back[t] = moves.argmax(axis=0)
        score = moves.max(axis=0) + lattice.emit[t]
    end = score.shape[0] - 1
    if end > 0 and score[end - 1] > score[end]:
        end -= 1
    if score[end] == NEG_INF:
        raise LengthMismatch(f"no valid alignment of {text!r} in {n_frames} frames")
    states = np.empty(n_frames, dtype=np.intp)
    for t in range(n_frames - 1, -1, -1):
        states[t] = end
        end -= back[t, end]
    chars = np.arange(1, 2 * len(text), 2)
    starts = np.searchsorted(states, chars, side="left")
    ends = np.searchsorted(states, chars, side="right")
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


def reference_group_word_spans(
    text: str, char_spans: list[tuple[int, int]], separator: str | None
) -> list[tuple[str, int, int]]:
    """``ctc.group_word_spans`` as a walk over character positions: each
    separator-split token (the whole text without a separator) moves the
    position past itself and one separator, and the non-empty ones are
    the words."""
    out = []
    pos = 0
    for word in text.split(separator) if separator is not None else [text]:
        if word:
            out.append((word, char_spans[pos][0], char_spans[pos + len(word) - 1][1]))
        pos += len(word) + 1
    return out


def reference_word_confidences(
    matrix: ConfidenceMatrix, text: str, separator: str | None
) -> tuple[float, ...]:
    """Per-word CTC marginals over the words' Viterbi spans, one scalar
    forward pass per word."""
    if not text:
        return ()
    return tuple(
        math.exp(reference_log_marginal(matrix.log_probs[start:end], word, matrix.alphabet))
        for word, start, end in reference_group_word_spans(text, reference_force_align(matrix, text), separator)
    )


def reference_edit_alignment(reference, hypothesis, deletion_costs) -> tuple[int, list[tuple[str, int, int]]]:
    """``evaluate.edit_alignment`` with a ``min()`` per DP cell."""
    n, m = len(reference), len(hypothesis)
    dist = [list(range(m + 1))]
    for ref, cost in zip(reference, deletion_costs):
        prev = dist[-1]
        left = prev[0] + cost
        row = [left]
        for diag, up, tok in zip(prev, prev[1:], hypothesis):
            left = min(diag + (0 if ref == tok else 1), up + cost, left + 1)
            row.append(left)
        dist.append(row)
    ops: list[tuple[str, int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        sub = i > 0 and j > 0 and reference[i - 1] != hypothesis[j - 1]
        if i > 0 and j > 0 and here == dist[i - 1][j - 1] + sub:
            ops.append(("sub" if sub else "match", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and here == dist[i - 1][j] + deletion_costs[i - 1]:
            ops.append(("del", i - 1, j))
            i -= 1
        else:
            ops.append(("ins", i, j - 1))
            j -= 1
    ops.reverse()
    return dist[n][m], ops


def reference_load_text_matrix(path: str | Path) -> ConfidenceMatrix:
    """A text matrix read row by row, one ``float`` per value: the parse
    ``load_matrix``'s one-call path must agree with, value for value and
    error for error. Only whitespace may follow the last row."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("utf-8", errors="replace").rstrip("\n")
        if magic != TEXT_MAGIC:
            raise ParseError(1, f"bad magic {magic!r}")
        try:
            alphabet = file_alphabet(_decode(fh.readline(), 2).split("\t"))
        except ValueError as exc:
            raise ParseError(2, str(exc)) from None
        n_frames = _parse_frame_count(_decode(fh.readline(), 3), 3)
        lines = io.BytesIO(fh.read())
    values: list[float] = []
    for lineno in range(4, 4 + n_frames):
        raw = lines.readline()
        if not raw:
            raise ParseError(lineno, f"expected {n_frames} rows, file ends at row {lineno - 4}")
        parts = _decode(raw, lineno).split("\t")
        if len(parts) != len(alphabet):
            raise ParseError(lineno, f"expected {len(alphabet)} values, got {len(parts)}")
        try:
            values.extend(float(part) for part in parts)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    for lineno, raw in enumerate(lines, start=4 + n_frames):
        if raw.strip():
            raise ParseError(lineno, "trailing content after the last row")
    return ConfidenceMatrix.from_rows(np.reshape(values, (n_frames, len(alphabet))), alphabet)


def reference_compile_rules(config: RuleConfig, alphabet: Alphabet) -> ExpressionModel:
    """Compile a rule set into a deterministic FSA.

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

    lenient = config.line_start_capital == "lenient"
    t: dict[tuple[str, str], str] = {}

    def arc(src: str, cls: str, dst: str) -> None:
        t[(src, cls)] = dst

    # Line start; "pre_start"/"pre" hold leading attached punctuation.
    for src, first_lower_ok in (("start", lenient), ("pre_start", lenient)):
        arc(src, CLASS_UPPER, "w_cap")
        if first_lower_ok:
            arc(src, CLASS_LOWER, "w_lower")
        if config.digits_form_numbers:
            arc(src, CLASS_DIGIT, "num")
        arc(src, CLASS_ATTACH, "pre_start")
    arc("start", CLASS_STANDALONE, "standalone")

    for src in ("gap", "pre"):
        arc(src, CLASS_UPPER, "w_cap")
        arc(src, CLASS_LOWER, "w_lower")
        if config.digits_form_numbers:
            arc(src, CLASS_DIGIT, "num")
        arc(src, CLASS_ATTACH, "pre")
    arc("gap", CLASS_STANDALONE, "standalone")

    # Word shapes: all-lowercase, Capitalized, ALL-CAPS; connectors restart
    # the shape after a letter follows.
    arc("w_lower", CLASS_LOWER, "w_lower")
    arc("w_cap", CLASS_LOWER, "w_caplow")
    arc("w_cap", CLASS_UPPER, "w_upper")
    arc("w_caplow", CLASS_LOWER, "w_caplow")
    arc("w_upper", CLASS_UPPER, "w_upper")
    for word_state in ("w_lower", "w_cap", "w_caplow", "w_upper"):
        arc(word_state, CLASS_INWORD, "w_conn")
        arc(word_state, CLASS_ATTACH, "post")
        arc(word_state, CLASS_SEPARATOR, "gap")
    arc("w_conn", CLASS_LOWER, "w_lower")
    arc("w_conn", CLASS_UPPER, "w_cap")

    arc("num", CLASS_DIGIT, "num")
    arc("num", CLASS_ATTACH, "post")
    arc("num", CLASS_SEPARATOR, "gap")

    arc("post", CLASS_ATTACH, "post")
    arc("post", CLASS_SEPARATOR, "gap")
    arc("standalone", CLASS_SEPARATOR, "gap")

    if not config.attach_punctuation:
        # Attachment not required: leading punctuation may also stand on its
        # own, so the pre states are replaced by accepting punct-run states
        # that can still open a word (capitalization policy preserved at
        # line start).
        arc("start", CLASS_ATTACH, "punct_run_start")
        arc("gap", CLASS_ATTACH, "punct_run_mid")
        for src, lower_ok in (("punct_run_start", lenient), ("punct_run_mid", True)):
            arc(src, CLASS_ATTACH, src)
            arc(src, CLASS_SEPARATOR, "gap")
            arc(src, CLASS_UPPER, "w_cap")
            if lower_ok:
                arc(src, CLASS_LOWER, "w_lower")
            if config.digits_form_numbers:
                arc(src, CLASS_DIGIT, "num")

    accepting = {"start", "w_lower", "w_cap", "w_caplow", "w_upper", "num", "post", "standalone"}
    if not config.attach_punctuation:
        accepting.update({"punct_run_start", "punct_run_mid"})

    model = ExpressionModel(
        start="start",
        transitions=t,
        accepting=frozenset(accepting),
        symbol_classes=symbol_classes,
    )
    model.validate(alphabet)
    return model
