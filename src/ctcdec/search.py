"""Constrained CTC prefix beam search.

The search keeps one entry per decoded prefix (string of printable symbol
indices). Paths collapsing to the same prefix merge; per prefix the mass
splits into paths ending in NaC (``pb``) and paths ending in the prefix's
last symbol (``pnb``), which the extension rules need to keep apart. With
an unlimited beam the accumulated mass of a prefix is its exact CTC
marginal, so the search returns the exact constrained argmax.

A constraint is a weighted automaton. It has an ``initial`` :class:`Node`
for the empty prefix and one method, ``successors(state)``, which returns
``{symbol_index: Node}``: the node of the prefix extended by each
printable symbol that some accepted string continues with (any other
symbol discards the prefix). A node's ``weight`` is the weight of the arc
that reached it; ``rank`` and ``final`` belong to its state. A prefix
accumulates the weights along its path (``acc``); the search ranks it by
``mass + acc + rank`` and finishes it with the bonus ``acc + final``.

Each frame is one array step over the beam x symbol grid (Hannun et al.
2014): every entry stays (NaC, or its last symbol again) and extends with
every symbol whose probability clears ``min_symbol_prob``; an extension
that lands on a prefix already in the beam merges into that entry.
Constraint states are interned to integer ids on first sight, and a
state's row of the ``id x symbol`` transition table is filled the first
time the state is expanded, so ``successors`` runs once per state per
search. Score ties break toward the lexicographically smallest prefix, at
the beam edge and in the result.

The matrices of a committee's experts are searched together
(:func:`prefix_beam_search_many`): frames are stacked T x expert x
symbol, every beam entry belongs to one expert, and the beam cut, its tie
rule and the anchor apply per expert, so each expert's result is that of
its search alone. The experts share the call's transition table. A
shorter matrix is padded with frames where NaC has probability 1, which
is exact: such a frame moves ``pb + pnb`` into ``pb``, allows no
extension and changes no score or beam. So every expert runs to the last
frame, and each one's result is read from the final beam. A beam entry's
prefix starts with its expert's index, so one lookup per frame finds
every entry's parent.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ctc import NEG_INF, marginal_word_confidences
from .errors import InvariantViolation, NoAcceptedString
from .matrix import ConfidenceMatrix
from .types import Hypothesis

Prefix = tuple[int, ...]

_DEAD = -1


class Node(NamedTuple):
    """A constraint state with its bonuses.

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


class _Transitions:
    """A constraint's transitions over interned state ids, one row per state.

    ``child[id, col]`` is the target id of printable column ``col``
    (``_DEAD`` where the constraint has no successor, and before the
    state's row is filled) and ``weight[id, col]`` its arc weight;
    ``rank`` and ``final`` are indexed by id, ``final`` -inf where the
    state does not accept.
    """

    def __init__(self, constraint, symbols: list[int]):
        self._successors = constraint.successors
        self._col = {s: c for c, s in enumerate(symbols)}
        self._ids: dict = {}
        self._states: list = []
        self._filled = np.zeros(16, dtype=bool)
        self.child = np.full((16, len(symbols)), _DEAD, dtype=np.intp)
        self.weight = np.zeros((16, len(symbols)))
        self.rank = np.zeros(16)
        self.final = np.zeros(16)

    def intern(self, node: Node) -> int:
        i = self._ids.get(node.state)
        if i is None:
            i = self._ids[node.state] = len(self._states)
            self._states.append(node.state)
            if i == len(self.rank):
                self.child = np.concatenate((self.child, np.full_like(self.child, _DEAD)))
                self.weight, self.rank, self.final, self._filled = (
                    np.concatenate((a, np.zeros_like(a))) for a in (self.weight, self.rank, self.final, self._filled)
                )
            self.rank[i] = node.rank
            self.final[i] = NEG_INF if node.final is None else node.final
        return i

    def children(self, ids: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``child[ids x cols]``, first filling the rows of unexpanded ids."""
        for i in dict.fromkeys(ids[~self._filled[ids]].tolist()):
            row = self._successors(self._states[i])
            cs = [self._col[s] for s in row]
            known = [self._ids.get(node.state) for node in row.values()]
            targets = [self.intern(node) if t is None else t for t, node in zip(known, row.values())]
            self.child[i, cs] = targets
            self.weight[i, cs] = [node.weight for node in row.values()]
            self._filled[i] = True
        return self.child[ids[:, None], cols]


def prefix_beam_search(
    matrix: ConfidenceMatrix,
    constraint,
    beam_width: int | None = 64,
    min_symbol_prob: float = 0.0,
) -> tuple[Prefix, float, float]:
    """Best accepted string under the constraint.

    Returns ``(prefix, ctc_log_mass, bonus)`` for the accepted prefix
    maximizing ``ctc_log_mass + bonus``, where ``bonus`` is the prefix's
    accumulated arc weight plus its node's ``final``; score ties break
    toward the lexicographically smallest index sequence.
    ``beam_width=None`` disables pruning (exact on small inputs).
    ``min_symbol_prob``, in [0, 1), skips extending with symbols below
    that per-frame probability (speed knob; keep at 0 for exact search).

    Raises :class:`NoAcceptedString` when no accepted prefix survives.
    """
    (result,) = prefix_beam_search_many([matrix], constraint, beam_width, min_symbol_prob)
    if isinstance(result, NoAcceptedString):
        raise result
    return result


def prefix_beam_search_many(
    matrices: list[ConfidenceMatrix],
    constraint,
    beam_width: int | None = 64,
    min_symbol_prob: float = 0.0,
) -> list[tuple[Prefix, float, float] | NoAcceptedString]:
    """:func:`prefix_beam_search` of each matrix, as one search.

    The matrices (the experts) must share an alphabet, else
    :class:`InvariantViolation`. Every beam entry belongs to one expert,
    and the beam cut, its tie rule and the anchor apply per expert, so
    each expert gets exactly the result of searching its matrix alone:
    ``(prefix, ctc_log_mass, bonus)``, or the :class:`NoAcceptedString`
    that search would raise. The experts share one transition table, so
    ``successors`` runs once per state for the whole call.
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1 or None")
    if not 0.0 <= min_symbol_prob < 1.0:
        raise ValueError("min_symbol_prob must be in [0, 1)")
    alphabet = matrices[0].alphabet
    for e, m in enumerate(matrices):
        if (m.alphabet.symbols, m.alphabet.nac_index) != (alphabet.symbols, alphabet.nac_index):
            raise InvariantViolation(
                f"experts must share an alphabet: expert {e} has {m.alphabet.symbols!r}, "
                f"expert 0 has {alphabet.symbols!r}"
            )
    n = len(matrices)
    symbols = list(alphabet.printable_indices)
    width = len(symbols)
    # Frames stacked T x expert x column: the printable columns plus a -inf
    # column, read through index -1 (no last symbol). A shorter expert's
    # frames are padded with NaC at probability 1.
    num_frames = max(m.num_frames for m in matrices)
    rows = np.full((num_frames, n, width + 1), NEG_INF)
    blanks = np.zeros((num_frames, n))
    for e, m in enumerate(matrices):
        rows[: m.num_frames, e, :width] = m.log_probs[:, symbols]
        blanks[: m.num_frames, e] = m.log_probs[:, alphabet.nac_index]
    # The cells each expert may extend with (-inf below its floor), and
    # the columns some expert may extend with.
    floor = math.log(min_symbol_prob) if min_symbol_prob > 0.0 else NEG_INF
    ext_rows = rows if floor == NEG_INF else np.where(rows > floor, rows, NEG_INF)
    usable = (ext_rows[:, :, :width] > NEG_INF).any(axis=1)
    table = _Transitions(constraint, symbols)

    # The beam: parallel arrays, grouped by expert, plus each entry's prefix
    # as a tuple (its expert, then its printable columns, ordered as their
    # symbol indices; ties compare prefixes of one expert only) and the beam
    # index of that prefix minus its last column (-1 if not in the beam).
    # It starts with the empty prefix.
    prefixes: list[Prefix] = [(e,) for e in range(n)]
    expert = np.arange(n)
    parent = np.full(n, -1)
    pb, pnb = np.zeros(n), np.full(n, NEG_INF)
    acc = np.full(n, constraint.initial.weight)
    nid = np.full(n, table.intern(constraint.initial))
    last = np.full(n, -1)

    for t in range(num_frames):
        cols = usable[t].nonzero()[0]
        n_entries, k = len(prefixes), len(cols)
        tot = np.logaddexp(pb, pnb)
        # The n == 1 branches here, in the grouping and in the cut give the
        # same results as the general code, which decoded 10-20% fewer lines
        # per second on one-expert beam-64 searches (dm-b64, ce-b64).
        if n == 1:
            # One expert: its row broadcasts over the entries.
            blank, stay_cells, cells = blanks[t, 0], rows[t, 0][last], ext_rows[t, 0][cols]
        else:
            blank, stay_cells, cells = blanks[t, expert], rows[t, expert, last], ext_rows[t][:, cols][expert]
        stay_pb = tot + blank
        # Same symbol again with no NaC in between: absorbed by the run.
        stay_pnb = pnb + stay_cells
        ext = np.where(last[:, None] == cols, pb[:, None], tot[:, None]) + cells
        child = table.children(nid, cols)
        # Extending an entry's parent by the entry's last symbol reaches the
        # entry itself: add that mass to it instead of a new candidate.
        col_at = np.full(width + 1, -1)
        col_at[cols] = np.arange(k)
        into = ((parent >= 0) & (col_at[last] >= 0)).nonzero()[0]
        if into.size:
            src = (parent[into], col_at[last[into]])
            stay_pnb[into] = np.logaddexp(stay_pnb[into], ext[src])
            ext[src] = NEG_INF
        ext[child < 0] = NEG_INF
        ext_acc = acc[:, None] + table.weight[nid[:, None], cols]

        # Candidates: the stays, then the extensions entry by entry.
        cand_pb = np.concatenate((stay_pb, np.full(n_entries * k, NEG_INF)))
        cand_pnb = np.concatenate((stay_pnb, ext.ravel()))
        cand_tot = np.concatenate((np.logaddexp(stay_pb, stay_pnb), ext.ravel()))
        cand_acc = np.concatenate((acc, ext_acc.ravel()))
        cand_node = np.concatenate((nid, child.ravel()))
        keep = (cand_tot > NEG_INF).nonzero()[0]
        prefix_of = _prefix_maker(prefixes, cols.tolist(), n_entries, k)
        if n > 1:
            # Group the candidates by expert, which each takes from its entry
            # (with k == 0 every candidate is a stay).
            of = expert[np.where(keep < n_entries, keep, (keep - n_entries) // max(k, 1))]
            by_expert = np.argsort(of, kind="stable")
            keep, expert = keep[by_expert], of[by_expert]

        if beam_width is not None and keep.size > beam_width:
            score = cand_tot[keep] + cand_acc[keep] + table.rank[cand_node[keep]]
            finals = table.final[cand_node[keep]] > NEG_INF
            if n == 1:
                keep = keep[_cut(score, finals, beam_width, lambda x: prefix_of(int(keep[x])))]
            else:
                bounds = _bounds(expert, n)
                chosen = np.concatenate([
                    lo + _cut(score[lo:hi], finals[lo:hi], beam_width, lambda x, lo=lo: prefix_of(int(keep[lo + x])))
                    for lo, hi in zip(bounds, bounds[1:])
                ])
                keep, expert = keep[chosen], expert[chosen]

        prefixes = [prefix_of(x) for x in keep.tolist()]
        at = {p: i for i, p in enumerate(prefixes)}
        parent = np.array([at.get(p[:-1], -1) for p in prefixes], dtype=np.intp)
        last = np.array([p[-1] if len(p) > 1 else -1 for p in prefixes], dtype=np.intp)
        pb, pnb, acc, nid = cand_pb[keep], cand_pnb[keep], cand_acc[keep], cand_node[keep]

    # Each expert's result, from its entries in the final beam.
    mass = np.logaddexp(pb, pnb)
    bonus = acc + table.final[nid]
    bounds = _bounds(expert, n) if n > 1 else [0, len(prefixes)]
    return [_best(prefixes[lo:hi], mass[lo:hi], bonus[lo:hi], symbols) for lo, hi in zip(bounds, bounds[1:])]


def _hypothesis(matrix: ConfidenceMatrix, separator: str | None, prefix: Prefix, mass: float, bonus: float) -> Hypothesis:
    """A search result ``(prefix, mass, bonus)`` as a :class:`Hypothesis`
    scored ``mass + bonus``, with word confidences split on ``separator``."""
    text = "".join(matrix.alphabet.symbols[i] for i in prefix)
    return Hypothesis(text, mass + bonus, marginal_word_confidences(matrix, text, separator))


def _best(prefixes: list[Prefix], mass: np.ndarray, bonus: np.ndarray, symbols: list[int]):
    """``(prefix, mass, bonus)`` of one expert's best accepted beam entry,
    ties toward the smaller prefix, or :class:`NoAcceptedString`. A
    prefix that is not accepted has bonus -inf."""
    score = mass + bonus
    top = score.max(initial=NEG_INF)
    if top == NEG_INF:
        return NoAcceptedString("beam exhausted with no accepted hypothesis")
    i = min((score == top).nonzero()[0].tolist(), key=prefixes.__getitem__)
    return tuple(symbols[c] for c in prefixes[i][1:]), float(mass[i]), float(bonus[i])


def _cut(score: np.ndarray, finals: np.ndarray, beam_width: int, prefix_of) -> np.ndarray:
    """Positions of one expert's candidates that survive the beam.

    The ``beam_width`` best by score, ties broken toward the smaller
    ``prefix_of(position)``, plus an anchor when none of them is final.
    """
    if score.size <= beam_width:
        return np.arange(score.size)
    # Everything scoring at least the beam_width-th best score; only when
    # exact ties cross that edge does the prefix order decide.
    cut = score.size - beam_width
    top = (score >= np.partition(score, cut)[cut]).nonzero()[0]
    if top.size > beam_width:
        s = score.tolist()
        top = np.array(sorted(top.tolist(), key=lambda x: (-s[x], prefix_of(x)))[:beam_width])
    # Keep the best already-accepted prefix alive as an anchor, so a narrow
    # beam full of unfinishable prefixes cannot strand the search without
    # any acceptable hypothesis at the last frame.
    if not finals[top].any() and finals.any():
        best = (finals & (score == score[finals].max())).nonzero()[0].tolist()
        top = np.append(top, min(best, key=prefix_of))
    return top


def _bounds(expert: np.ndarray, n: int) -> list[int]:
    """Start of each expert's run in ``expert`` (non-decreasing), plus the end."""
    return np.searchsorted(expert, np.arange(n + 1)).tolist()


def _prefix_maker(prefixes: list[Prefix], cols: list[int], n: int, k: int):
    """Prefix of candidate ``x``: a stay (``x < n``) or an extension."""

    def prefix_of(x: int) -> Prefix:
        if x < n:
            return prefixes[x]
        b, j = divmod(x - n, k)
        return prefixes[b] + (cols[j],)

    return prefix_of
