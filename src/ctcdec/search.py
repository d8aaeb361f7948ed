"""Constrained CTC prefix beam search.

The search keeps one entry per decoded prefix (string of printable symbol
indices). Paths collapsing to the same prefix merge; per prefix the mass
splits into paths ending in NaC (``pb``) and paths ending in the prefix's
last symbol (``pnb``), which the extension rules need to keep apart. With
an unlimited beam the accumulated mass of a prefix is its exact CTC
marginal, so the search returns the exact constrained argmax.

A constraint is an automaton with weights. It has an ``initial``
:class:`Node` for the empty prefix and one method,
``extend(state, symbol_index)``, which returns the :class:`Node` of the
prefix extended by one printable symbol, or ``None`` when no accepted
string starts that way (the prefix is discarded). Each node carries its
own bonuses, so the search reads them from its beam entries and calls
the constraint for nothing else.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ctc import NEG_INF, logadd
from .errors import NoAcceptedString
from .matrix import ConfidenceMatrix

Prefix = tuple[int, ...]

_PB, _PNB, _NODE = 0, 1, 2


class Node(NamedTuple):
    """A constraint state with its bonuses.

    ``rank`` is the score bonus used when pruning (0 when scores are pure
    CTC mass); ``final`` is the total bonus if the prefix is an accepted
    complete string, else ``None``.
    """

    state: object
    rank: float
    final: float | None


def prefix_beam_search(
    matrix: ConfidenceMatrix,
    constraint,
    beam_width: int | None = 64,
    min_symbol_prob: float = 0.0,
) -> tuple[Prefix, float, float]:
    """Best accepted string under the constraint.

    Returns ``(prefix, ctc_log_mass, final)`` for the accepted prefix
    maximizing ``ctc_log_mass + final`` (``final`` from the prefix's
    :class:`Node`); score ties break toward the lexicographically smallest
    index sequence. ``beam_width=None`` disables pruning (exact on small
    inputs). ``min_symbol_prob`` skips extending with symbols below that
    per-frame probability (speed knob; keep at 0 for exact search).

    Raises :class:`NoAcceptedString` when no accepted prefix survives.
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError("beam_width must be >= 1 or None")
    nac = matrix.alphabet.nac_index
    logp = matrix.log_probs
    floor = math.log(min_symbol_prob) if min_symbol_prob > 0.0 else NEG_INF
    printable = matrix.alphabet.printable_indices

    extend = constraint.extend
    beam: dict[Prefix, list] = {(): [0.0, NEG_INF, constraint.initial]}

    for t in range(matrix.num_frames):
        row = logp[t]
        blank = row[nac]
        cands = [c for c in printable if row[c] > floor]
        nxt: dict[Prefix, list] = {}

        for prefix, entry in beam.items():
            pb, pnb, node = entry
            total = logadd(pb, pnb)

            ent = nxt.get(prefix)
            if ent is None:
                ent = [NEG_INF, NEG_INF, node]
                nxt[prefix] = ent
            if blank != NEG_INF:
                ent[_PB] = logadd(ent[_PB], total + blank)
            last = prefix[-1] if prefix else -1
            if last >= 0 and pnb != NEG_INF and row[last] != NEG_INF:
                # Same symbol again with no NaC in between: absorbed by the run.
                ent[_PNB] = logadd(ent[_PNB], pnb + row[last])

            for c in cands:
                mass = (pb + row[c]) if c == last else (total + row[c])
                if mass == NEG_INF:
                    continue
                new_prefix = prefix + (c,)
                ent2 = nxt.get(new_prefix)
                if ent2 is None:
                    new_node = extend(node.state, c)
                    if new_node is None:
                        continue
                    ent2 = [NEG_INF, NEG_INF, new_node]
                    nxt[new_prefix] = ent2
                ent2[_PNB] = logadd(ent2[_PNB], mass)

        live = {p: e for p, e in nxt.items() if e[_PB] != NEG_INF or e[_PNB] != NEG_INF}
        if beam_width is not None and len(live) > beam_width:
            ranked = sorted(
                live.items(),
                key=lambda kv: (-(logadd(kv[1][_PB], kv[1][_PNB]) + kv[1][_NODE].rank), kv[0]),
            )
            kept = ranked[:beam_width]
            # Keep the best already-accepted prefix alive as an anchor, so a
            # narrow beam full of unfinishable prefixes cannot strand the
            # search without any acceptable hypothesis at the last frame.
            if all(e[_NODE].final is None for _, e in kept):
                for candidate in ranked[beam_width:]:
                    if candidate[1][_NODE].final is not None:
                        kept.append(candidate)
                        break
            live = dict(kept)
        beam = live

    best_prefix: Prefix | None = None
    best_score = NEG_INF
    best_parts = (NEG_INF, 0.0)
    for prefix, (pb, pnb, node) in beam.items():
        bonus = node.final
        if bonus is None:
            continue
        mass = logadd(pb, pnb)
        if mass == NEG_INF:
            continue
        score = mass + bonus
        if (
            best_prefix is None
            or score > best_score
            or (score == best_score and prefix < best_prefix)
        ):
            best_prefix = prefix
            best_score = score
            best_parts = (mass, bonus)
    if best_prefix is None:
        raise NoAcceptedString("beam exhausted with no accepted hypothesis")
    return best_prefix, best_parts[0], best_parts[1]
