"""Eviction policies over the bounded multi-state.

Policy families: FIFO windows (plain and with a pinned prefix), H2O (protect
the recent half, evict the lowest accumulated attention among the rest), and
TOVA (evict the state the newest query attends to least, per head or with
head-averaged rows). Every argmin breaks ties toward the lowest index.

`decide_layer` is the one eviction rule for every family: a pure function
over a step's (L, H, S) float32 attention block, or one layer's (H, S) block,
and, for H2O, float64 accumulated scores of the same shape. Past k states,
window drops a fixed index; the others take one argmin over a family-chosen
score block and column range, per head or over each layer's head mean.
`apply_policy` applies it to a state a step at a time, with one `evict_step`
call: a MultiState (sequential decoding) or its K/V-less ColumnSets (the
simulator); the masked-parallel H2O/TOVA row loop applies it to its own
column block, so every mode takes identical decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .state import ColumnSets, MultiState

POLICY_FAMILIES = ("window", "h2o-head", "h2o-layer", "tova-head", "tova-layer")
_PIN_FAMILIES = ("window", "tova-layer")
POLICY_FORMS = " | ".join(f"{f} | {f}+i" if f in _PIN_FAMILIES else f for f in POLICY_FAMILIES)


@dataclass(frozen=True)
class PolicyKind:
    """One eviction policy: family plus capacity k and optional pinned prefix."""

    family: str
    k: int
    pin: int = 0
    # the family's flags, worked out once per kind
    needs_scores: bool = field(init=False, repr=False, compare=False)
    headwise: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in POLICY_FAMILIES:
            raise ValueError(f"unknown policy family {self.family!r}; supported: {POLICY_FORMS}")
        if self.k < 1:
            raise ValueError(f"policy capacity k must be >= 1, got {self.k}")
        if self.pin:
            if self.family not in _PIN_FAMILIES:
                raise ValueError(f"policy {self.family!r} does not take a pinned prefix")
            if not (0 <= self.pin < self.k):
                raise ValueError(f"pin {self.pin} must satisfy 0 <= pin < k ({self.k})")
        object.__setattr__(self, "needs_scores", self.family.startswith("h2o"))
        object.__setattr__(self, "headwise", self.family.endswith("-head"))

    @property
    def name(self) -> str:
        base = self.family
        return f"{base}+{self.pin}" if self.pin else base


def parse_policy(text: str, k: int, pin: int | None = None) -> PolicyKind | None:
    """Parse a policy config string; "none" means unbounded (no policy).

    A trailing "+N" embeds the pinned-prefix size (e.g. "window+4",
    "tova-layer+2"); it must agree with an explicit pin argument if both are
    given.
    """
    text = text.strip()
    if text == "none":
        if pin:
            raise ValueError("pin given but policy is none")
        return None
    family = text
    embedded: int | None = None
    if "+" in text:
        family, _, suffix = text.rpartition("+")
        try:
            embedded = int(suffix)
        except ValueError:
            raise ValueError(f"bad pinned-prefix suffix in policy {text!r}") from None
    if family not in POLICY_FAMILIES:
        raise ValueError(f"unknown policy {text!r}; supported: {POLICY_FORMS}")
    if embedded is not None and pin is not None and embedded != pin:
        raise ValueError(f"policy {text!r} embeds pin {embedded} but --pin is {pin}")
    effective = embedded if embedded is not None else (pin or 0)
    return PolicyKind(family=family, k=k, pin=effective)


# ---------------------------------------------------------------------------
# accumulated attention scores (H2O bookkeeping)


def accumulate_row(acc: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Element-wise add of probability rows into their running sums, along the last axis.

    `acc` and `row` are one head's vectors or blocks such as a step's
    (L, H, S). The rows may be one longer than the sums: the newest state
    starts from its own first received probability. float64 out.
    """
    s0, s = acc.shape[-1], row.shape[-1]
    if acc.shape[:-1] == row.shape[:-1]:
        if s == s0:
            return acc + row
        if s == s0 + 1:
            out = np.empty(row.shape, dtype=np.float64)
            out[..., :s0] = acc + row[..., :s0]
            out[..., s0] = row[..., s0]
            return out
    raise ValueError(f"rows of shape {row.shape} incompatible with accumulator shape {acc.shape}")


class AccumulatedScores:
    """Running per-state sums of received attention probabilities.

    One (L, H, S) float64 block, aligned column-for-column with the
    multi-state's rows; each step a decided column is dropped from every
    head, so an evicted state's history is gone for good.
    """

    def __init__(self, n_layers: int, n_heads: int):
        self.block = np.zeros((n_layers, n_heads, 0), dtype=np.float64)

    def accumulate(self, probs: np.ndarray) -> None:
        """Fold a step's (L, H, S) probability block into the sums."""
        self.block = accumulate_row(self.block, probs)

    def drop(self, indices: list[int]) -> None:
        """Remove column indices[layer * H + h] from head h of every layer by a
        left shift in place."""
        block, n_heads = self.block, self.block.shape[1]
        for row, index in enumerate(indices):
            layer, head = divmod(row, n_heads)
            block[layer, head, index:-1] = block[layer, head, index + 1:]
        self.block = block[..., :-1]


# ---------------------------------------------------------------------------
# the eviction rule: a list of per-head eviction indices (None = keep all)


def recent_window(k: int) -> int:
    """Size of the never-evicted recent window used by H2O."""
    return -(-k // 2)  # ceil(k/2)


def decide_layer(kind: PolicyKind, probs: np.ndarray, acc: np.ndarray | None) -> list[int | None]:
    """The one eviction rule: the index each head drops this step.

    `probs` is a layer's (n_heads, size) attention block or a stack of them,
    such as a step's (L, H, S) block, and `acc` the accumulated scores of the
    same shape, which H2O kinds require. One index per head comes back, layer
    by layer, each layer's as it would come alone. Up to k states nothing is
    dropped, and the window family drops index `pin`. Otherwise the family
    picks its scores and candidate columns [lo, hi): H2O the accumulated
    scores outside the newest ceil(k/2) states, TOVA the current block past
    the pinned prefix. Head-wise kinds drop each head's own argmin;
    layer-wise kinds drop the argmin of each layer's head mean from its heads.
    """
    n_heads, size = probs.shape[-2:]
    h2o = kind.needs_scores
    if h2o and acc is None:
        raise ValueError(f"policy {kind.name} needs accumulated scores")
    if size <= kind.k or kind.family == "window":
        return [None if size <= kind.k else kind.pin] * math.prod(probs.shape[:-1])
    scores, lo, hi = (acc, 0, size - recent_window(kind.k)) if h2o else (probs, kind.pin, size)
    if kind.headwise:
        return [lo + idx for idx in np.argmin(scores[..., lo:hi], axis=-1).ravel().tolist()]
    # np.mean's own arithmetic (sum, then divide) without its Python wrapper
    mean = np.add.reduce(scores, axis=-2, dtype=np.float64) / n_heads
    return [lo + idx for idx in np.ravel(np.argmin(mean[..., lo:hi], axis=-1)).tolist()
            for _ in range(n_heads)]


def apply_policy(kind: PolicyKind, state: MultiState | ColumnSets,
                 probs: np.ndarray | list[np.ndarray]) -> None:
    """Apply one step's policy to every layer of the multi-state at once.

    `probs` is the step's (L, H, S) attention block, or one (H, S) block per
    layer, where S is the size every head of every layer holds (a ValueError
    names the sizes otherwise). H2O kinds fold it into `state.scores`, an
    AccumulatedScores made at the state's first H2O step, before deciding.
    One `state.evict_step` call applies the decision (the state logs it),
    then the decided columns are dropped from the scores.
    """
    shape = (state.n_layers, state.n_heads, state.step_size())
    try:
        block = np.asarray(probs)
    except ValueError:  # blocks of different shapes
        block = None
    if block is None or block.shape != shape:
        raise ValueError(f"a step's probabilities must be one (H, S) = {shape[1:]} block per "
                         f"layer; got layer blocks of shapes {[np.shape(p) for p in probs]}")
    scores = None
    if kind.needs_scores:
        if state.scores is None:
            state.scores = AccumulatedScores(state.n_layers, state.n_heads)
        state.scores.accumulate(block)
        scores = state.scores.block
    evicted = decide_layer(kind, block, scores)
    if evicted[0] is not None:  # every policy evicts from all heads of every layer or none
        state.evict_step(evicted)
        if scores is not None:
            state.scores.drop(evicted)
