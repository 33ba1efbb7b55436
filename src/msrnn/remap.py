"""Position-gap remapping for decoding beyond the trained context length.

Neighbor gaps in the retained set are compressed before rotation: a gap g
stays g up to 10 and collapses to ln(ln(g)) above that, so the remapped span
of a k-state cache stays below 10*(k-1) no matter how long the stream runs.
Remapped positions are real-valued and start at 0 for the oldest retained
state. `remap_positions` remaps a retained set afresh; a remapping
`MultiState` instead keeps each entry's `remap_gap` and sums the stored gaps,
which gives the same bits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

GAP_KNEE = 10


def remap_gap(gap: int) -> float:
    """Compressed contribution of one neighbor gap.

    Identity up to the knee (10), ln(ln(gap)) beyond it. Note the map is
    intentionally literal: gaps just past the knee land below 1.
    """
    gap = int(gap)
    if gap < 1:
        raise ValueError(f"gap must be a positive count, got {gap}")
    if gap <= GAP_KNEE:
        return float(gap)
    return math.log(math.log(gap))


def remap_positions(retained: Sequence[int] | np.ndarray) -> np.ndarray:
    """Remapped rotation positions for strictly increasing retained sets.

    `retained` is one set (1-D) or one set per row (2-D, e.g. a layer's
    (H, S) position array); each row is remapped on its own. Element 0 of a
    row is always 0.0; element j is the cumulative sum of the remapped gaps
    between consecutive retained originals, added in order, so every value
    equals the running sum of `remap_gap`. float64 throughout.
    """
    retained = np.asarray(retained, dtype=np.int64)
    if retained.shape[-1] == 0:
        raise ValueError("retained set is empty")
    gaps = retained[..., 1:] - retained[..., :-1]
    if gaps.size and gaps.min() < 1:
        bad = tuple(np.argwhere(gaps < 1)[0])
        after = bad[:-1] + (bad[-1] + 1,)
        raise ValueError(f"retained positions must strictly increase, "
                         f"got {retained[bad]} then {retained[after]}")
    out = np.zeros(retained.shape, dtype=np.float64)
    out[..., 1:] = gaps
    wide = gaps > GAP_KNEE
    if wide.any():
        out[..., 1:][wide] = [remap_gap(g) for g in gaps[wide].tolist()]
    return np.cumsum(out, axis=-1, out=out)
