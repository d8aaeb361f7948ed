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

Each frame is one array step over the beam's live extensions (Hannun et
al. 2014): every entry stays (NaC, or its last symbol again) and extends
with every symbol that its constraint state has a successor for and whose
probability clears ``min_symbol_prob``; an extension that lands on a
prefix already in the beam merges into that entry. Constraint states are
interned to integer ids on first sight, and a state's transitions are
stored as one flat row (its successor columns, ascending, with their
target ids and arc weights) the first time the state is expanded, so
``successors`` runs once per state per search. A frame gathers the rows
of its entries into one candidate list, ordered by entry and then column.

A beam entry is an id in a per-search prefix tree: a prefix is its parent
prefix's id plus its last column, and each such pair has one id. The
frame loop therefore holds no prefix tuples. An entry's parent is found
through its tree parent's position in the beam, and the extension that
reaches it by one sorted lookup in the candidate list. Prefixes are
spelled out, by walking up the tree, only where exact score ties must be
broken: toward the lexicographically smallest prefix, at the beam edge,
between anchor candidates and in the result.

The matrices of a committee's experts are searched together
(:func:`prefix_beam_search_many`): frames are stacked T x expert x
symbol, every beam entry belongs to one expert (whose own empty prefix
is its tree root), and the beam cut, its tie rule and the anchor apply
per expert, so each expert's result is that of its search alone. The
experts share the call's transition table. A shorter matrix is padded
with frames where NaC has probability 1, which is exact: such a frame
moves ``pb + pnb`` into ``pb``, allows no extension and changes no score
or beam. So every expert runs to the last frame, and each one's result is
read from the final beam. On a frame where an expert has no usable cell,
as on all of its padding, its entries only stay: they gather no row and
expand no state.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ctc import NEG_INF, marginal_word_confidences, word_confidences_many
from .errors import InvariantViolation, NoAcceptedString
from .matrix import ConfidenceMatrix
from .types import Hypothesis

Prefix = tuple[int, ...]


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
    """A constraint's transitions over interned state ids, as flat rows.

    ``rank`` and ``final`` are indexed by id, ``final`` -inf where the
    state does not accept. Only a state the search expands has a row: its
    printable columns with a successor, ascending, are ``cols[start[id] :
    start[id] + length[id]]``, and ``child`` and ``weight`` hold the
    target id and the arc weight at the same positions. ``start`` is -1
    until the row is filled.
    """

    def __init__(self, constraint, symbols: list[int]):
        self._successors = constraint.successors
        self._col = {s: c for c, s in enumerate(symbols)}
        self._ids: dict = {}
        self._states: list = []
        self.rank, self.final = np.zeros(0), np.zeros(0)
        self.start, self.length = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        self._size = 0
        self.cols, self.child = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        self.weight = np.zeros(0)

    def intern(self, nodes: list[Node]) -> list[int]:
        """The id of each node's state; a new state gets the next id."""
        ids, new = [], []
        for node in nodes:
            i = self._ids.get(node.state)
            if i is None:
                i = self._ids[node.state] = len(self._states)
                self._states.append(node.state)
                new.append(node)
            ids.append(i)
        if new:
            end = len(self._states)
            self.rank, self.final, self.length = (_grown(a, end) for a in (self.rank, self.final, self.length))
            self.start = _grown(self.start, end, -1)
            self.rank[end - len(new) : end] = [node.rank for node in new]
            self.final[end - len(new) : end] = [NEG_INF if node.final is None else node.final for node in new]
        return ids

    def gather(self, ids: np.ndarray, grow) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the states ``ids`` where ``grow`` (a mask, or one
        bool for all) as one flat list, state by state and column by
        column: each item's position in ``ids`` and its index into
        ``cols``/``child``/``weight``. Rows not filled yet are filled
        first."""
        start = self.start[ids]
        unfilled = ids[grow & (start < 0)]
        if unfilled.size:
            self._fill(list(dict.fromkeys(unfilled.tolist())))
            start = self.start[ids]
        lengths = self.length[ids] * grow
        at = np.repeat(np.arange(ids.size), lengths)
        return at, np.arange(at.size) + np.repeat(start - (np.cumsum(lengths) - lengths), lengths)

    def _fill(self, ids: list[int]) -> None:
        # Symbol order is column order, so each row's columns ascend.
        rows = [sorted(self._successors(self._states[i]).items()) for i in ids]
        arcs = [arc for row in rows for arc in row]
        nodes = [node for _, node in arcs]
        size, end = self._size, self._size + len(arcs)
        self.cols, self.child, self.weight = (_grown(a, end) for a in (self.cols, self.child, self.weight))
        self.cols[size:end] = [self._col[s] for s, _ in arcs]
        self.child[size:end] = self.intern(nodes)
        self.weight[size:end] = [node.weight for node in nodes]
        lengths = [len(row) for row in rows]
        self.length[ids] = lengths
        self.start[ids] = size + np.cumsum(lengths) - lengths
        self._size = end


def _grown(a: np.ndarray, size: int, fill=0) -> np.ndarray:
    """``a``, or when shorter than ``size`` a copy padded with ``fill``
    (at least doubled, so that appending one item at a time stays linear)."""
    if size <= a.size:
        return a
    return np.concatenate((a, np.full(max(size, 2 * a.size, 16) - a.size, fill, dtype=a.dtype)))


class _PrefixTree:
    """The prefixes of one search as integer ids.

    A non-empty prefix is keyed ``up * stride + col``: the id of the
    prefix without its last column, and that column. Ids ``0 .. n-1`` are
    the empty prefixes of the ``n`` experts, keyed ``-1 .. -n``. A key has
    one id, so a prefix keeps its id however often it leaves the beam and
    comes back.
    """

    def __init__(self, n: int, stride: int):
        self.stride = stride
        self.size = n
        self._key = np.arange(-1, -n - 1, -1)
        self._id = dict(zip(self._key.tolist(), range(n)))

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """The id of each of the distinct ``keys``, numbering new ones in order."""
        ids = np.array([self._id.setdefault(k, len(self._id)) for k in keys.tolist()], dtype=np.intp)
        new = keys[ids >= self.size]
        self._key = _grown(self._key, self.size + new.size)
        self._key[self.size : self.size + new.size] = new
        self.size += new.size
        return ids

    def prefix(self, i: int) -> Prefix:
        """The columns of prefix ``i``, walking up to its root."""
        cols = []
        key = int(self._key[i])
        while key >= 0:
            i, c = divmod(key, self.stride)
            cols.append(c)
            key = int(self._key[i])
        return tuple(reversed(cols))


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
    # whether an expert has any such cell in a frame (never on padding).
    floor = math.log(min_symbol_prob) if min_symbol_prob > 0.0 else NEG_INF
    ext_rows = rows if floor == NEG_INF else np.where(rows > floor, rows, NEG_INF)
    live = (ext_rows[:, :, :width] > NEG_INF).any(axis=2)
    table = _Transitions(constraint, symbols)
    stride = width + 1
    tree = _PrefixTree(n, stride)

    # The beam: parallel arrays, grouped by expert. An entry is a prefix
    # tree id, with the id of its prefix minus the last column (``up``, -1
    # for an empty prefix) and that column (``last``, -1 for none). ``pos``
    # maps a tree id to its beam index, -1 if not in the beam; it is kept
    # longer than the tree, so ``pos[-1]`` (an empty prefix's ``up``) is -1
    # too. The beam starts with each expert's empty prefix.
    ids = np.arange(n)
    up, last = np.full(n, -1), np.full(n, -1)
    pos = _grown(ids, n + 1, -1)
    expert = np.arange(n)
    pb, pnb = np.zeros(n), np.full(n, NEG_INF)
    acc = np.full(n, constraint.initial.weight)
    nid = np.full(n, table.intern([constraint.initial])[0])

    for t in range(num_frames):
        n_entries = len(ids)
        tot = np.logaddexp(pb, pnb)
        # The n == 1 branches here, in the gather, in the grouping and in the
        # cut give the same results as the general code, whose one-expert
        # beam-64 searches took 1.2-1.3x as long (dm-b64, ce-b64).
        if n == 1:
            blank, stay_cells = blanks[t, 0], rows[t, 0][last]
        else:
            blank, stay_cells = blanks[t, expert], rows[t, expert, last]
        stay_pb = tot + blank
        # Same symbol again with no NaC in between: absorbed by the run.
        stay_pnb = pnb + stay_cells

        # Extensions: the row of every entry whose expert has a usable cell
        # (so padding frames build and gather no row), as flat candidates
        # (entry ``b``, column ``c``, row index ``idx``), kept where the
        # expert's cell is usable.
        b, idx = table.gather(nid, live[t, 0] if n == 1 else live[t, expert])
        c = table.cols[idx]
        cells = ext_rows[t, 0][c] if n == 1 else ext_rows[t, expert[b], c]
        above = (cells > NEG_INF).nonzero()[0]
        if above.size < cells.size:
            b, c, idx, cells = b[above], c[above], idx[above], cells[above]
        ext = np.where(last[b] == c, pb[b], tot[b]) + cells
        # Extending an entry's parent by the entry's last symbol reaches the
        # entry itself: add that mass to it instead of a new candidate. The
        # candidates' keys ascend (entries in order, columns ascending in a
        # row), so one sorted lookup finds each such extension. An entry
        # whose parent is not in the beam (or that has none) looks up a
        # negative key, which no candidate has; one whose expert has no
        # usable cell finds nothing, as its parent gathered no row.
        if b.size:
            keys = b * stride + c
            want = pos[up] * stride + last
            at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
            into = (keys[at] == want).nonzero()[0]
            at = at[into]
            stay_pnb[into] = np.logaddexp(stay_pnb[into], ext[at])
            ext[at] = NEG_INF

        # Candidates: the stays, then the extensions entry by entry.
        cand_pb = np.concatenate((stay_pb, np.full(b.size, NEG_INF)))
        cand_pnb = np.concatenate((stay_pnb, ext))
        cand_tot = np.concatenate((np.logaddexp(stay_pb, stay_pnb), ext))
        cand_acc = np.concatenate((acc, acc[b] + table.weight[idx]))
        cand_node = np.concatenate((nid, table.child[idx]))
        keep = (cand_tot > NEG_INF).nonzero()[0]
        if n > 1:
            # Group the candidates by expert, which each takes from its entry.
            of = np.concatenate((expert, expert[b]))[keep]
            by_expert = np.argsort(of, kind="stable")
            keep, expert = keep[by_expert], of[by_expert]

        if beam_width is not None and keep.size > beam_width:

            def prefix_of(x: int) -> Prefix:
                # Candidate ``x``: a stay, or an extension of entry ``b``.
                if x < n_entries:
                    return tree.prefix(int(ids[x]))
                return tree.prefix(int(ids[b[x - n_entries]])) + (int(c[x - n_entries]),)

            score = (cand_tot + cand_acc + table.rank[cand_node])[keep]
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

        # The survivors: a stay keeps its id, an extension gets the id of its
        # entry's prefix extended by its column.
        pos[ids] = -1
        up = np.concatenate((up, ids[b]))[keep]
        last = np.concatenate((last, c))[keep]
        ids = np.concatenate((ids, np.full(b.size, -1)))[keep]
        fresh = (keep >= n_entries).nonzero()[0]
        if fresh.size:
            ids[fresh] = tree.ids(up[fresh] * stride + last[fresh])
            pos = _grown(pos, tree.size + 1, -1)
        pos[ids] = np.arange(ids.size)
        pb, pnb, acc, nid = cand_pb[keep], cand_pnb[keep], cand_acc[keep], cand_node[keep]

    # Each expert's result, from its entries in the final beam.
    mass = np.logaddexp(pb, pnb)
    bonus = acc + table.final[nid]
    bounds = _bounds(expert, n) if n > 1 else [0, len(ids)]
    return [_best(tree, ids[lo:hi], mass[lo:hi], bonus[lo:hi], symbols) for lo, hi in zip(bounds, bounds[1:])]


def _hypothesis(matrix: ConfidenceMatrix, separator: str | None, prefix: Prefix, mass: float, bonus: float) -> Hypothesis:
    """A search result ``(prefix, mass, bonus)`` as a :class:`Hypothesis`
    scored ``mass + bonus``, with word confidences split on ``separator``."""
    text = "".join(matrix.alphabet.symbols[i] for i in prefix)
    return Hypothesis(text, mass + bonus, marginal_word_confidences(matrix, text, separator))


def _hypotheses(matrices: list[ConfidenceMatrix], separator: str | None, found: list) -> list[Hypothesis | NoAcceptedString]:
    """:func:`_hypothesis` of each expert's search result, with the word
    confidences of all experts from one lattice pass; a
    :class:`NoAcceptedString` stays in its expert's place."""
    texts = {
        i: "".join(matrices[i].alphabet.symbols[c] for c in result[0])
        for i, result in enumerate(found)
        if not isinstance(result, NoAcceptedString)
    }
    confs = dict(zip(texts, word_confidences_many([(matrices[i], text) for i, text in texts.items()], separator)))
    return [
        Hypothesis(texts[i], result[1] + result[2], confs[i]) if i in texts else result
        for i, result in enumerate(found)
    ]


def _best(tree: _PrefixTree, ids: np.ndarray, mass: np.ndarray, bonus: np.ndarray, symbols: list[int]):
    """``(prefix, mass, bonus)`` of one expert's best accepted beam entry,
    ties toward the smaller prefix, or :class:`NoAcceptedString`. A
    prefix that is not accepted has bonus -inf."""
    score = mass + bonus
    top = score.max(initial=NEG_INF)
    if top == NEG_INF:
        return NoAcceptedString("beam exhausted with no accepted hypothesis")
    best = (score == top).nonzero()[0].tolist()
    i = best[0] if len(best) == 1 else min(best, key=lambda x: tree.prefix(int(ids[x])))
    return tuple(symbols[c] for c in tree.prefix(int(ids[i]))), float(mass[i]), float(bonus[i])


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
        top = np.append(top, best[0] if len(best) == 1 else min(best, key=prefix_of))
    return top


def _bounds(expert: np.ndarray, n: int) -> list[int]:
    """Start of each expert's run in ``expert`` (non-decreasing), plus the end."""
    return np.searchsorted(expert, np.arange(n + 1)).tolist()
