"""Constrained CTC prefix beam search.

The search keeps one entry per decoded prefix (string of printable symbol
indices). Paths collapsing to the same prefix merge; per prefix the mass
splits into paths ending in NaC (``pb``) and paths ending in the prefix's
last symbol (``pnb``), which the extension rules need to keep apart. With
an unlimited beam the accumulated mass of a prefix is its exact CTC
marginal, so the search returns the exact constrained argmax, or raises
:class:`SearchLimit` when a frame's candidates or the call's prefixes
would pass a fixed limit.

A constraint is a weighted automaton compiled into one table, a
:class:`Compiled` over the matrix's alphabet, complete and read-only, in
which every state it reaches has a row of the printable symbols that
some accepted string continues with (any other symbol discards the
prefix). The search takes the table itself, which records the alphabet
it was compiled over. An arc has a weight; a state has a ``rank`` and, if
it accepts, a ``final``. A prefix accumulates the weights along its path
(``acc``); the search ranks it by ``mass + acc + rank`` and finishes it
with the bonus ``acc + final``. Under a table with no weights or ranks
(an expression model's), ``acc`` stays +0.0 and the search ranks by
``mass`` alone, which keeps every comparison and so every result. The
search reads nothing but the table and builds no row.

Each frame is one array step over the beam's live extensions (Hannun et
al. 2014): every entry stays (NaC, or its last symbol again) and extends
with every symbol in its state's row whose probability clears
``min_symbol_prob``; an extension that lands on a prefix already in the
beam merges into that entry. :func:`_gather` lists each entry's stay and
then its row, one run of table slots, as one candidate list: an entry's
values are repeated over its candidates, and the table's are taken by slot.

A beam entry is an id in a per-search prefix tree: a prefix is its parent
prefix's id plus the cell of its last symbol, and each such pair has one
id. The frame loop therefore holds no prefix tuples. An entry carries
where its two merges sit in the fixed rows: its last symbol's position in
its parent's row (``rel``; the parent's run is found through its beam
position) and in its own row (``own``). Prefixes are spelled out, by
walking up the tree, only where exact score ties must be broken toward
the lexicographically smallest prefix: among the candidates at the beam
edge's score, between anchor candidates and in the result.

One search covers the matrices of a committee's experts
(:func:`prefix_beam_search_many`; one matrix is the one-expert case). A
frame is one flat row of cells, one block per expert: its NaC column
(the expert's ``home`` cell), then its printable columns. A beam entry
carries the cell of its last symbol (``last``; for an empty prefix its
``home``, never read, as its pnb is -inf), and a row's symbols are
offsets from ``home``, so every read is one 1-D index. The beam is
grouped by expert, and the cut, its tie rule and the anchor apply to each
expert's run of candidates, so each expert gets the result of its search
alone. The experts share the table. A shorter matrix is padded with
frames where NaC has probability 1, which is exact: such a frame moves
``pb + pnb`` into ``pb``, allows no extension and changes no score or
beam, so every result is read from the final beam. On a frame
where an expert has no usable cell, as on all of its padding, its entries
only stay: they gather no row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ctc import NEG_INF, marginal_word_confidences, word_confidences_many
from .errors import InvariantViolation, NoAcceptedString, SearchLimit
from .matrix import ConfidenceMatrix
from .types import Hypothesis

Prefix = tuple[int, ...]

#: The most candidates one frame of one call may gather, and the most
#: prefix ids one call may number. At its peak a frame takes about 330
#: bytes a candidate (its arrays, the beam and the prefix tree), so a
#: search stays under about 350 MB. Past either limit, the search raises
#: :class:`SearchLimit`: with an unlimited beam, candidates multiply by the
#: alphabet size each frame.
MAX_CANDIDATES = 1 << 20
MAX_PREFIXES = 1 << 22


class Compiled(NamedTuple):
    """A constraint compiled into flat transition rows over the printable
    symbols of one alphabet (cell ``i`` holds ``printable_indices[i - 1]``),
    read-only and shared by every search under it.

    States are ids, the initial state 0. ``rank`` and ``final`` are
    indexed by id, ``final`` -inf where the state does not accept. Every
    state has a row: the symbols with a successor, as cell offsets from
    the NaC cell (1 + the printable column), ascending, are
    ``offset[start[id] : start[id] + length[id]]``, and ``child`` and
    ``weight`` hold the target id and the arc weight in the same slots.
    Rows come in id order, each after its state's stay slot (offset 0;
    child ``id``; weight -0.0, which leaves a sum bit-exact). Per slot,
    ``child_rank`` and ``child_accepts`` are the target's ``rank`` and
    whether it accepts, and ``repeat`` is 1 + where its row holds the
    slot's cell, or 0.

    ``alphabet`` is the key ``(symbols, nac_index)`` of the alphabet the
    table was compiled over, which the search checks. ``weighted`` says
    whether any ``rank`` or arc weight is nonzero (-0.0 counts as zero);
    without weights, every sum the search would add them into adds +0.0,
    so it ranks a prefix by its mass alone."""

    rank: np.ndarray
    final: np.ndarray
    start: np.ndarray
    length: np.ndarray
    offset: np.ndarray
    child: np.ndarray
    weight: np.ndarray
    child_rank: np.ndarray
    child_accepts: np.ndarray
    repeat: np.ndarray
    alphabet: tuple
    weighted: bool


def _frozen(rank, final, length, offset, child, weight, alphabet: tuple) -> Compiled:
    """The read-only :class:`Compiled` over the alphabet keyed ``alphabet``
    of rows stored in id order, each after a slot for its stay, which this
    fills in ``offset``, ``child`` and ``weight``; it adds the per-slot
    arrays and the ``weighted`` flag."""
    start = np.cumsum(length + 1) - length
    stay = start - 1
    offset[stay], child[stay], weight[stay] = 0, np.arange(length.size), -0.0
    # Slot keys ``state * span + offset`` ascend, so one sorted lookup finds
    # each target's slot of the same cell (a stay finds its own); int32
    # where they fit, to keep the peak down.
    span = int(offset.max()) + 1
    dtype = np.int32 if length.size * span < 1 << 31 else np.intp
    keys = np.arange(length.size, dtype=dtype).repeat(length + 1) * span + offset.astype(dtype)
    want = child.astype(dtype) * span + offset.astype(dtype)
    at = keys.searchsorted(want)
    found = keys.take(at, mode="clip") == want
    del keys, want
    at -= stay[child]
    repeat = (at * found).astype(np.int32)
    del at, found
    table = Compiled(
        rank, final, start, length, offset, child, weight, rank[child], final[child] > NEG_INF, repeat,
        alphabet, bool(rank.any() or weight.any()),
    )
    for array in table:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return table


def _gather(table: Compiled, ids: np.ndarray, grow: np.ndarray, frame: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of the states ``ids``, its stay and, where ``grow``, its
    row in ``table``, as one flat list, state by state and offset by
    offset: each item's slot, where each state's items start (its stay),
    plus the end, and each state's number of items. More than
    ``MAX_CANDIDATES`` items raise :class:`SearchLimit`, naming
    ``frame``."""
    lengths = table.length.take(ids) * grow + 1
    items = np.zeros(ids.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=items[1:])
    if items[-1] > MAX_CANDIDATES:
        raise SearchLimit(
            f"frame {frame} has {items[-1]:,} candidates, over the limit of {MAX_CANDIDATES:,}; "
            "use a finite beam (--beam) or a symbol floor (--min-symbol-prob)"
        )
    slot = np.arange(items[-1]) + (table.start.take(ids) - 1 - items[:-1]).repeat(lengths)
    return slot, items, lengths


def _grown(a: np.ndarray, size: int, fill=0) -> np.ndarray:
    """``a``, or when shorter than ``size`` a copy padded with ``fill``
    (at least doubled, so that appending one item at a time stays linear)."""
    if size <= a.size:
        return a
    return np.concatenate((a, np.full(max(size, 2 * a.size, 16) - a.size, fill, dtype=a.dtype)))


class _PrefixTree:
    """The prefixes of one search as integer ids.

    A non-empty prefix is keyed ``up * span + cell``: the id of the prefix
    without its last symbol, and that symbol's cell (below ``span``). Ids
    ``0 .. n-1`` are the empty prefixes of the ``n`` experts, keyed ``-1
    .. -n``. A key has one id, so a prefix keeps its id however often it
    leaves the beam and comes back.
    """

    def __init__(self, n: int, span: int):
        self.span = span
        self.size = n
        self._key = np.arange(-1, -n - 1, -1)
        self._id = dict(zip(self._key.tolist(), range(n)))

    def ids(self, keys: np.ndarray, frame: int) -> np.ndarray:
        """The id of each of the distinct ``keys``, numbering new ones in
        order. Past ``MAX_PREFIXES`` ids, raises :class:`SearchLimit`,
        naming ``frame``."""
        ids = np.array([self._id.setdefault(k, len(self._id)) for k in keys.tolist()], dtype=np.intp)
        if len(self._id) > MAX_PREFIXES:
            raise SearchLimit(
                f"frame {frame} brings the search to {len(self._id):,} prefixes, over the limit of "
                f"{MAX_PREFIXES:,}; use a finite beam (--beam) or a symbol floor (--min-symbol-prob)"
            )
        new = keys[ids >= self.size]
        self._key = _grown(self._key, self.size + new.size)
        self._key[self.size : self.size + new.size] = new
        self.size += new.size
        return ids

    def prefix(self, i: int) -> Prefix:
        """The cells of prefix ``i``, walking up to its root. Within one
        expert, cells order as their symbols do."""
        cells = []
        key = int(self._key[i])
        while key >= 0:
            i, c = divmod(key, self.span)
            cells.append(c)
            key = int(self._key[i])
        return tuple(reversed(cells))


def prefix_beam_search(
    matrix: ConfidenceMatrix,
    table: Compiled,
    beam_width: int | None = 64,
    min_symbol_prob: float = 0.0,
) -> tuple[Prefix, float, float]:
    """Best accepted string under the constraint compiled into ``table``.

    Returns ``(prefix, ctc_log_mass, bonus)`` for the accepted prefix
    maximizing ``ctc_log_mass + bonus``, where ``bonus`` is the prefix's
    accumulated arc weight plus its node's ``final``; score ties break
    toward the lexicographically smallest index sequence.
    ``beam_width=None`` disables pruning (exact on small inputs).
    ``min_symbol_prob``, in [0, 1), skips extending with symbols below
    that per-frame probability (speed knob; keep at 0 for exact search).

    Raises :class:`NoAcceptedString` when no accepted prefix survives,
    and :class:`SearchLimit` past ``MAX_CANDIDATES`` or ``MAX_PREFIXES``.
    """
    (result,) = prefix_beam_search_many([matrix], table, beam_width, min_symbol_prob)
    if isinstance(result, NoAcceptedString):
        raise result
    return result


def prefix_beam_search_many(
    matrices: list[ConfidenceMatrix],
    table: Compiled,
    beam_width: int | None = 64,
    min_symbol_prob: float = 0.0,
) -> list[tuple[Prefix, float, float] | NoAcceptedString]:
    """:func:`prefix_beam_search` of each matrix, as one search.

    The matrices (the experts) must share an alphabet, the one the
    ``table`` was compiled over, else :class:`InvariantViolation`. Every
    beam entry belongs to one expert, and the beam cut, its tie rule and
    the anchor apply per expert, so each expert gets exactly the result
    of searching its matrix alone: ``(prefix, ctc_log_mass, bonus)``, or
    the :class:`NoAcceptedString` that search would raise. The experts
    share the ``table``.
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1 or None")
    if not 0.0 <= min_symbol_prob < 1.0:
        raise ValueError("min_symbol_prob must be in [0, 1)")
    for e, m in enumerate(matrices):
        if (m.alphabet.symbols, m.alphabet.nac_index) != table.alphabet:
            raise InvariantViolation(
                f"experts must share an alphabet, the one the table was compiled over: expert {e} has "
                f"{m.alphabet.symbols!r} (NaC at {m.alphabet.nac_index}), the table {table.alphabet[0]!r} "
                f"(NaC at {table.alphabet[1]})"
            )
    alphabet = matrices[0].alphabet
    n = len(matrices)
    # Each expert's block of cells; a shorter expert is padded with NaC at 1.
    block = [alphabet.nac_index, *alphabet.printable_indices]
    stride = len(block)
    num_frames = max(m.num_frames for m in matrices)
    frames = np.full((num_frames, n, stride), NEG_INF)
    frames[:, :, 0] = 0.0
    for e, m in enumerate(matrices):
        frames[: m.num_frames, e] = m.log_probs[:, block]
    # The cells each expert may extend with (-inf below its floor), and
    # whether an expert has any such cell in a frame (never on padding).
    floor = math.log(min_symbol_prob) if min_symbol_prob > 0.0 else NEG_INF
    usable = frames if floor == NEG_INF else np.where(frames > floor, frames, NEG_INF)
    live = (usable[:, :, 1:] > NEG_INF).any(axis=2)
    span = n * stride
    frames, usable = frames.reshape(num_frames, span), usable.reshape(num_frames, span)
    # Each expert's NaC cell, and the end of the last block.
    edges = np.arange(0, span + 1, stride)
    tree = _PrefixTree(n, span)

    # The beam: parallel arrays, grouped by expert. An entry is a prefix
    # tree id, with the id of its prefix minus the last symbol (``up``, -1
    # for an empty prefix) and that symbol's cell (``last``, ``home`` for an
    # empty prefix). ``pos`` maps a tree id to its beam index, -1 if not in
    # the beam; it is kept longer than the tree, so ``pos[-1]`` (an empty
    # prefix's ``up``) is -1 too. The beam starts with each expert's empty
    # prefix.
    ids = np.arange(n)
    up = np.full(n, -1)
    last = edges[:-1]
    pos = _grown(ids, n + 1, -1)
    pb, pnb = np.zeros(n), np.full(n, NEG_INF)
    # Without weights, every entry's ``acc`` stays +0.0.
    weighted = table.weighted
    acc = np.zeros(n) if weighted else 0.0
    nid, rel, own = (np.zeros(n, dtype=np.intp) for _ in range(3))

    for t in range(num_frames):
        frame = frames[t]
        expert = last // stride
        home = expert * stride
        tot = np.logaddexp(pb, pnb)
        stay_pb = tot + frame[home]
        # Same symbol again with no NaC in between: absorbed by the run.
        stay_pnb = pnb + frame[last]

        # Candidates: each entry's stay (its NaC cell) and, where its expert
        # has a usable cell (so padding frames gather no row), its
        # extensions, as flat items (``cell``, table ``slot``) grouped by
        # expert like the beam. ``cand`` is each extension's mass; the
        # stays' get theirs once the merges below are in.
        grow = live[t][expert]
        slot, items, lengths = _gather(table, nid, grow, t)
        stays = items[:-1]
        cell = home.repeat(lengths) + table.offset.take(slot)
        logp = usable[t].take(cell)
        cand = tot.repeat(lengths) + logp
        # An entry's own last symbol, with no NaC in between, extends only
        # its pb: that extension is item ``own`` of the entry's row. Extending
        # an entry's parent by the entry's last symbol reaches the entry
        # itself: that mass joins it instead of a new candidate, item ``rel``
        # of the parent's row. Both exist only where the rows were gathered
        # (an empty prefix has neither; ``pos[-1]`` is -1).
        same = (grow & (own > 0)).nonzero()[0]
        at = stays[same] + own[same]
        cand[at] = pb[same] + logp[at]
        parent = pos[up]
        into = (grow & (parent >= 0)).nonzero()[0]
        at = items[parent[into]] + rel[into]
        stay_pnb[into] = np.logaddexp(stay_pnb[into], cand[at])
        cand[at] = NEG_INF
        cand[stays] = np.logaddexp(stay_pb, stay_pnb)
        if weighted:
            cand_acc = acc.repeat(lengths) + table.weight.take(slot)
            score = cand + cand_acc + table.child_rank.take(slot)
        else:
            # Adding +0.0 twice could only turn -0.0 into +0.0, which no
            # comparison in the cut tells apart.
            score = cand

        def prefix_of(x: int) -> Prefix:
            # Candidate ``x``: its entry's prefix, extended unless a stay.
            e = int(items.searchsorted(x, "right")) - 1
            prefix = tree.prefix(int(ids[e]))
            return prefix if x == items[e] else prefix + (int(cell[x]),)

        # Each expert's candidates are a run of the list, from its first stay.
        runs = items[last.searchsorted(edges)]
        keep = _cut(cand, score, runs, beam_width, lambda x: table.child_accepts[slot[x]], prefix_of)

        # The survivors take their entry's fields; an extension (``fresh``, past
        # the stay) then takes its own, its entry as ``up`` and a new tree id.
        pos[ids] = -1
        entry = items.searchsorted(keep, "right") - 1
        item = keep - stays[entry]
        fresh = item.nonzero()[0]
        x = keep[fresh]
        fresh_up = ids[entry[fresh]]
        pb, pnb, up, last, ids, rel, own = (a[entry] for a in (stay_pb, stay_pnb, up, last, ids, rel, own))
        pb[fresh], pnb[fresh], up[fresh], last[fresh] = NEG_INF, cand[x], fresh_up, cell[x]
        rel[fresh], own[fresh] = item[fresh], table.repeat.take(slot[x])
        nid = table.child.take(slot[keep])
        if weighted:
            acc = cand_acc[keep]
        if fresh.size:
            ids[fresh] = tree.ids(fresh_up * span + cell[x], t)
            pos = _grown(pos, tree.size + 1, -1)
        pos[ids] = np.arange(ids.size)

    # Each expert's result, from its entries in the final beam.
    mass = np.logaddexp(pb, pnb)
    bonus = acc + table.final[nid]
    first = last.searchsorted(edges).tolist()
    return [_best(tree, ids[lo:hi], mass[lo:hi], bonus[lo:hi], block * n) for lo, hi in zip(first, first[1:])]


def _hypothesis(matrix: ConfidenceMatrix, separator: str | None, prefix: Prefix, mass: float, bonus: float) -> Hypothesis:
    """A search result ``(prefix, mass, bonus)`` as a :class:`Hypothesis`
    scored ``mass + bonus``, with word confidences split on ``separator``."""
    text = "".join(matrix.alphabet.symbols[i] for i in prefix)
    return Hypothesis(text, mass + bonus, marginal_word_confidences(matrix, text, separator))


def _hypotheses(
    matrices: list[ConfidenceMatrix], separator: str | None, found: list, votes_only: bool = False
) -> list[Hypothesis | NoAcceptedString]:
    """:func:`_hypothesis` of each expert's search result, with the word
    confidences of all experts from one lattice pass; a
    :class:`NoAcceptedString` stays in its expert's place. With
    ``votes_only`` (a committee that votes by count alone), the
    hypotheses carry no word confidences when two or more experts found a
    string; a sole one, which the committee returns as it is, keeps them."""
    texts = {
        i: "".join(matrices[i].alphabet.symbols[c] for c in result[0])
        for i, result in enumerate(found)
        if not isinstance(result, NoAcceptedString)
    }
    if votes_only and len(texts) > 1:
        confs = dict.fromkeys(texts)
    else:
        confs = dict(zip(texts, word_confidences_many([(matrices[i], text) for i, text in texts.items()], separator)))
    return [
        Hypothesis(texts[i], result[1] + result[2], confs[i]) if i in texts else result
        for i, result in enumerate(found)
    ]


def _best(tree: _PrefixTree, ids: np.ndarray, mass: np.ndarray, bonus: np.ndarray, cell_symbol: list[int]):
    """``(prefix, mass, bonus)`` of one expert's best accepted beam entry,
    ties toward the smaller prefix, or :class:`NoAcceptedString`. A
    prefix that is not accepted has bonus -inf; ``cell_symbol`` is the
    alphabet index of each cell."""
    score = mass + bonus
    top = score.max(initial=NEG_INF)
    if top == NEG_INF:
        return NoAcceptedString("beam exhausted with no accepted hypothesis")
    best = (score == top).nonzero()[0].tolist()
    i = best[0] if len(best) == 1 else min(best, key=lambda x: tree.prefix(int(ids[x])))
    return tuple(cell_symbol[c] for c in tree.prefix(int(ids[i]))), float(mass[i]), float(bonus[i])


def _cut(cand, score, runs: np.ndarray, beam_width: int | None, final_of, prefix_of) -> np.ndarray:
    """The candidates that survive the beam, ascending. In each expert's
    run ``runs[e] : runs[e + 1]``, of the candidates with mass ``cand``
    above -inf: the ``beam_width`` best by ``score``, ties toward the
    smaller ``prefix_of(x)``, and if none of those is final, the best final
    one (``final_of`` takes an index array or a slice).
    """
    bounds = runs.tolist()
    keep = np.empty(cand.size, dtype=bool)
    cut = {}
    for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        run, edge = score[lo:hi], NEG_INF
        if beam_width is not None and run.size > beam_width:
            # Everything scoring at least the beam_width-th best score.
            part = run.copy()
            part.partition(run.size - beam_width)
            cut[e] = edge = float(part[run.size - beam_width])
        if edge > NEG_INF:
            np.greater_equal(run, edge, out=keep[lo:hi])
        else:
            np.greater(cand[lo:hi], NEG_INF, out=keep[lo:hi])
    keep = keep.nonzero()[0]
    # Where exact ties at the edge score leave too many, the prefix order
    # drops the last of those; no candidate above the edge is spelled out.
    at = keep.searchsorted(runs).tolist()
    drop = []
    for e, edge in cut.items():
        if at[e + 1] - at[e] > beam_width:
            top = keep[at[e] : at[e + 1]]
            ties = top[score[top] == edge].tolist()
            drop += sorted(ties, key=prefix_of)[beam_width - top.size + len(ties) :]
    if drop:
        keep = np.setdiff1d(keep, drop, assume_unique=True)
        at = keep.searchsorted(runs).tolist()
    final = final_of(keep).tolist() if cut else []
    need = [e for e in cut if not any(final[at[e] : at[e + 1]])]
    if not need:
        return keep
    # Keep the best already-accepted prefix alive as an anchor, so a narrow
    # beam full of unfinishable prefixes cannot strand the search without
    # any acceptable hypothesis at the last frame. Each run's best final
    # score is one reduction (the -inf appended keeps an empty last run's
    # start in bounds).
    live = final_of(slice(None)) & (cand > NEG_INF)
    score = np.where(live, score, NEG_INF)
    best = np.maximum.reduceat(np.concatenate((score, [NEG_INF])), runs[:-1])
    hits = (live & (score == best.repeat(runs[1:] - runs[:-1]))).nonzero()[0]
    # The hits ascend, so each run's are one slice of them.
    at = hits.searchsorted(runs).tolist()
    hits = hits.tolist()
    groups = (hits[at[e] : at[e + 1]] for e in need)
    anchors = [g[0] if len(g) == 1 else min(g, key=prefix_of) for g in groups if g]
    return np.sort(np.concatenate((keep, np.array(anchors, dtype=np.intp))))
