"""Eviction policies over the bounded multi-state.

Policy families: FIFO windows (plain and with a pinned prefix), H2O (protect
the recent half, evict the lowest accumulated attention among the rest), and
TOVA (evict the state the newest query attends to least, per head or with
head-averaged rows). Every argmin breaks ties toward the lowest index.

`decide_layer` is the one eviction rule for every family: a pure function
over a layer's (H, S) float32 attention block (as `model.attend` returns it)
and, for H2O, its (H, S) float64 accumulated scores. Once the layer holds
more than k states, window drops a fixed index; the others take one argmin
over a family-chosen score block and column range, per head or over the
head mean. `apply_layer_policy` wires it to one layer of a MultiState;
sequential decoding calls it for every layer through `apply_policy`, and the
masked-parallel evaluator calls it after each row's `attend`, layer by
layer, so a policy's retained sets are the parallel mode's attention masks
and both modes take identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import MultiState

POLICY_FAMILIES = ("window", "h2o-head", "h2o-layer", "tova-head", "tova-layer")
_PIN_FAMILIES = ("window", "tova-layer")
POLICY_FORMS = " | ".join(f"{f} | {f}+i" if f in _PIN_FAMILIES else f for f in POLICY_FAMILIES)


@dataclass(frozen=True)
class PolicyKind:
    """One eviction policy: family plus capacity k and optional pinned prefix."""

    family: str
    k: int
    pin: int = 0

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

    @property
    def needs_scores(self) -> bool:
        return self.family.startswith("h2o")

    @property
    def headwise(self) -> bool:
        return self.family.endswith("-head")

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

    `acc` and `row` are one head's vectors or a layer's (H, S) blocks. The rows
    may be one longer than the sums: the newest state starts from its own
    first received probability. float64 out.
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

    One (H, S) float64 block per layer, aligned column-for-column with the
    layer's multi-state rows; each step a decided column is dropped from
    every head, so an evicted state's history is gone for good.
    """

    def __init__(self, n_layers: int, n_heads: int):
        self._acc = [np.zeros((n_heads, 0), dtype=np.float64) for _ in range(n_layers)]

    def layer(self, layer: int) -> np.ndarray:
        return self._acc[layer]

    def accumulate(self, layer: int, probs: np.ndarray) -> None:
        self._acc[layer] = accumulate_row(self._acc[layer], probs)

    def drop(self, layer: int, indices: list[int]) -> None:
        """Remove column indices[h] from head h's sums."""
        block = self._acc[layer]
        n_heads, size = block.shape
        keep = np.arange(size) != np.asarray(indices)[:, None]
        self._acc[layer] = block[keep].reshape(n_heads, size - 1)


# ---------------------------------------------------------------------------
# the eviction rule: a list of per-head eviction indices (None = keep all)


def recent_window(k: int) -> int:
    """Size of the never-evicted recent window used by H2O."""
    return -(-k // 2)  # ceil(k/2)


def decide_layer(kind: PolicyKind, probs: np.ndarray, acc: np.ndarray | None) -> list[int | None]:
    """The one eviction rule: the index each head of a layer drops this step.

    `probs` is the layer's (n_heads, size) attention block and `acc` its
    accumulated scores, which H2O kinds require. Up to k states nothing is
    dropped, and the window family drops index `pin`. Otherwise the family
    picks its scores and candidate columns [lo, hi): H2O the accumulated
    scores outside the newest ceil(k/2) states, TOVA the current block past
    the pinned prefix. Head-wise kinds drop each head's own argmin; layer-wise
    kinds drop the argmin of the head mean from every head.
    """
    n_heads, size = probs.shape
    h2o = kind.needs_scores
    if h2o and acc is None:
        raise ValueError(f"policy {kind.name} needs accumulated scores")
    if size <= kind.k:
        return [None] * n_heads
    if kind.family == "window":
        return [kind.pin] * n_heads
    scores, lo, hi = (acc, 0, size - recent_window(kind.k)) if h2o else (probs, kind.pin, size)
    if kind.headwise:
        return [lo + idx for idx in np.argmin(scores[:, lo:hi], axis=1).tolist()]
    # np.mean's own arithmetic (sum, then divide) without its Python wrapper
    mean = np.add.reduce(scores, axis=0, dtype=np.float64) / n_heads
    return [lo + int(np.argmin(mean[lo:hi]))] * n_heads


def apply_layer_policy(kind: PolicyKind, state: MultiState, layer: int, probs: np.ndarray,
                       acc: AccumulatedScores | None = None) -> None:
    """Apply one step's policy to one layer of the multi-state.

    H2O kinds fold the layer's (H, S) `probs` block into `acc` before
    deciding. Evictions are applied to the state (which records them in its
    trace), then the decided columns are dropped from the layer's scores.
    """
    scores = None
    if kind.needs_scores and acc is not None:
        acc.accumulate(layer, probs)
        scores = acc.layer(layer)
    evicted = decide_layer(kind, probs, scores)
    if evicted[0] is not None:  # every policy evicts from all heads of a layer or none
        for head, idx in enumerate(evicted):
            state.evict(layer, head, idx)
        if scores is not None:
            acc.drop(layer, evicted)


def apply_policy(kind: PolicyKind, state: MultiState, probs: list[np.ndarray],
                 acc: AccumulatedScores | None = None) -> None:
    """Apply one step's policy to every layer; `probs[layer]` is that layer's (H, S) block."""
    for layer in range(state.n_layers):
        apply_layer_policy(kind, state, layer, probs[layer], acc)
