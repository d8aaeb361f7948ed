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
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ctc import NEG_INF
from .errors import NoAcceptedString
from .matrix import ConfidenceMatrix

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
    ``rank``, ``final`` and ``has_final`` are indexed by id.
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
        self.has_final = np.zeros(16, dtype=bool)

    def intern(self, node: Node) -> int:
        i = self._ids.get(node.state)
        if i is None:
            i = self._ids[node.state] = len(self._states)
            self._states.append(node.state)
            if i == len(self.rank):
                self.child = np.concatenate((self.child, np.full_like(self.child, _DEAD)))
                self.weight, self.rank, self.final, self.has_final, self._filled = (
                    np.concatenate((a, np.zeros_like(a)))
                    for a in (self.weight, self.rank, self.final, self.has_final, self._filled)
                )
            self.rank[i] = node.rank
            if node.final is not None:
                self.final[i] = node.final
                self.has_final[i] = True
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
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1 or None")
    if not 0.0 <= min_symbol_prob < 1.0:
        raise ValueError("min_symbol_prob must be in [0, 1)")
    symbols = list(matrix.alphabet.printable_indices)
    logp = matrix.log_probs
    blanks = logp[:, matrix.alphabet.nac_index].tolist()
    # Printable columns plus a -inf column, read through index -1 (no last symbol).
    rows = np.concatenate((logp[:, symbols], np.full((matrix.num_frames, 1), NEG_INF)), axis=1)
    floor = math.log(min_symbol_prob) if min_symbol_prob > 0.0 else NEG_INF
    table = _Transitions(constraint, symbols)

    # The beam: parallel arrays, plus each entry's prefix as a tuple of
    # printable columns (ordered as their symbol indices) and the beam
    # index of that prefix minus its last column (-1 if not in the beam).
    prefixes: list[Prefix] = [()]
    parent = np.array([-1])
    pb, pnb = np.zeros(1), np.full(1, NEG_INF)
    acc = np.full(1, constraint.initial.weight)
    nid = np.array([table.intern(constraint.initial)])
    last = np.array([-1])

    for t in range(matrix.num_frames):
        row = rows[t]
        cols = (row[:-1] > floor).nonzero()[0]
        n, k = len(prefixes), len(cols)
        tot = np.logaddexp(pb, pnb)
        stay_pb = tot + blanks[t]
        # Same symbol again with no NaC in between: absorbed by the run.
        stay_pnb = pnb + row[last]
        ext = np.where(last[:, None] == cols, pb[:, None], tot[:, None]) + row[cols]
        child = table.children(nid, cols)
        # Extending an entry's parent by the entry's last symbol reaches the
        # entry itself: add that mass to it instead of a new candidate.
        col_at = np.full(len(row), -1)
        col_at[cols] = np.arange(k)
        into = ((parent >= 0) & (col_at[last] >= 0)).nonzero()[0]
        if into.size:
            src = (parent[into], col_at[last[into]])
            stay_pnb[into] = np.logaddexp(stay_pnb[into], ext[src])
            ext[src] = NEG_INF
        ext[child < 0] = NEG_INF
        ext_acc = acc[:, None] + table.weight[nid[:, None], cols]

        # Candidates: the n stays, then the n x k extensions row by row.
        cand_pb = np.concatenate((stay_pb, np.full(n * k, NEG_INF)))
        cand_pnb = np.concatenate((stay_pnb, ext.ravel()))
        cand_tot = np.concatenate((np.logaddexp(stay_pb, stay_pnb), ext.ravel()))
        cand_acc = np.concatenate((acc, ext_acc.ravel()))
        cand_node = np.concatenate((nid, child.ravel()))
        keep = (cand_tot > NEG_INF).nonzero()[0]
        prefix_of = _prefix_maker(prefixes, cols.tolist(), n, k)

        if beam_width is not None and keep.size > beam_width:
            score = cand_tot[keep] + cand_acc[keep] + table.rank[cand_node[keep]]
            # Everything scoring at least the beam_width-th best score; only
            # when exact ties cross that edge does the prefix order decide.
            cut = keep.size - beam_width
            top = (score >= np.partition(score, cut)[cut]).nonzero()[0]
            if top.size > beam_width:
                s, kl = score.tolist(), keep.tolist()
                top = np.array(sorted(top.tolist(), key=lambda x: (-s[x], prefix_of(kl[x])))[:beam_width])
            # Keep the best already-accepted prefix alive as an anchor, so a
            # narrow beam full of unfinishable prefixes cannot strand the
            # search without any acceptable hypothesis at the last frame.
            finals = table.has_final[cand_node[keep]]
            if not finals[top].any() and finals.any():
                finals[top] = False
                best = (finals & (score == score[finals].max())).nonzero()[0].tolist()
                top = np.append(top, min(best, key=lambda x: prefix_of(int(keep[x]))))
            keep = keep[top]

        prefixes = [prefix_of(x) for x in keep.tolist()]
        at = {p: i for i, p in enumerate(prefixes)}
        parent = np.array([at.get(p[:-1], -1) if p else -1 for p in prefixes], dtype=np.intp)
        last = np.array([p[-1] if p else -1 for p in prefixes], dtype=np.intp)
        pb, pnb, acc, nid = cand_pb[keep], cand_pnb[keep], cand_acc[keep], cand_node[keep]

    mass = np.logaddexp(pb, pnb)
    bonus = acc + table.final[nid]
    score = mass + bonus
    done = table.has_final[nid] & (mass > NEG_INF)
    if not done.any():
        raise NoAcceptedString("beam exhausted with no accepted hypothesis")
    best = (done & (score == score[done].max())).nonzero()[0].tolist()
    i = min(best, key=prefixes.__getitem__)
    return tuple(symbols[c] for c in prefixes[i]), float(mass[i]), float(bonus[i])


def _prefix_maker(prefixes: list[Prefix], cols: list[int], n: int, k: int):
    """Prefix of candidate ``x``: a stay (``x < n``) or an extension."""

    def prefix_of(x: int) -> Prefix:
        if x < n:
            return prefixes[x]
        b, j = divmod(x - n, k)
        return prefixes[b] + (cols[j],)

    return prefix_of
