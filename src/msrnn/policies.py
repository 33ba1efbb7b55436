"""Eviction policies over the bounded multi-state.

Policy families: FIFO windows (plain and with a pinned prefix), H2O (protect
the recent half, evict the lowest accumulated attention among the rest), and
TOVA (evict the state the newest query attends to least, per head or with
head-averaged rows). Every argmin breaks ties toward the lowest index.

The core deciders are pure functions over a layer's (H, S) float32 attention
block (as `decode_layer` returns it) or its (H, S) float64 accumulated
scores. `apply_layer_policy` wires them to one layer of a MultiState;
sequential decoding calls it for every layer through `apply_policy`, and the
masked-parallel evaluator calls it layer by layer, so a policy's retained
sets are the parallel mode's attention masks and both modes take identical
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import MultiState

POLICY_FAMILIES = ("window", "h2o-head", "h2o-layer", "tova-head", "tova-layer")
_PIN_FAMILIES = ("window", "tova-layer")
POLICY_FORMS = "window | window+i | h2o-head | h2o-layer | tova-head | tova-layer | tova-layer+i"


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
# per-layer deciders: list of per-head eviction indices (None = keep all)


def recent_window(k: int) -> int:
    """Size of the never-evicted recent window used by H2O."""
    return -(-k // 2)  # ceil(k/2)


def policy_window(size: int, n_heads: int, k: int, pin: int = 0) -> list[int | None]:
    """FIFO that never touches the first `pin` states: once the size exceeds
    k, every head evicts index `pin` (the oldest state when pin is 0)."""
    if size <= k:
        return [None] * n_heads
    return [pin] * n_heads


def policy_tova(probs: np.ndarray, k: int, headwise: bool, pin: int = 0) -> list[int | None]:
    """Evict the state with the lowest attention from the newest query.

    `probs` is the (n_heads, size) post-softmax row of the current step.
    Head-wise each head drops its own argmin; otherwise the rows are averaged
    across heads and every head drops the same index. Indices below `pin` are
    never candidates.
    """
    n_heads, size = probs.shape
    if size <= k:
        return [None] * n_heads
    if headwise:
        return (pin + np.argmin(probs[:, pin:], axis=1)).tolist()
    # np.mean's own arithmetic (sum, then divide) without its Python wrapper
    mean = np.add.reduce(probs, axis=0, dtype=np.float64) / n_heads
    idx = pin + int(np.argmin(mean[pin:]))
    return [idx] * n_heads


def policy_h2o(acc: np.ndarray, k: int, headwise: bool) -> list[int | None]:
    """Evict the lowest accumulated-attention state outside the recent window.

    `acc` is the (n_heads, size) accumulated scores including the current
    step's row. The newest ceil(k/2) states are protected; head-wise each
    head evicts its own argmin among the rest, otherwise the head-averaged
    scores pick one index for every head.
    """
    n_heads, size = acc.shape
    if size <= k:
        return [None] * n_heads
    cutoff = size - recent_window(k)
    if headwise:
        return np.argmin(acc[:, :cutoff], axis=1).tolist()
    mean = np.add.reduce(acc, axis=0, dtype=np.float64) / n_heads
    idx = int(np.argmin(mean[:cutoff]))
    return [idx] * n_heads


def decide_layer(kind: PolicyKind, probs: np.ndarray, acc: np.ndarray | None) -> list[int | None]:
    """Dispatch one layer's decision; `probs` is the layer's (n_heads, size) block."""
    if kind.family == "window":
        return policy_window(probs.shape[1], probs.shape[0], kind.k, kind.pin)
    if kind.family in ("tova-head", "tova-layer"):
        return policy_tova(probs, kind.k, kind.headwise, kind.pin)
    if acc is None:
        raise ValueError(f"policy {kind.name} needs accumulated scores")
    return policy_h2o(acc, kind.k, kind.headwise)


def apply_layer_policy(kind: PolicyKind, state: MultiState, layer: int, probs: np.ndarray,
                       acc: AccumulatedScores | None = None) -> list[int | None]:
    """Apply one step's policy to one layer of the multi-state.

    H2O kinds fold the layer's (H, S) `probs` block into `acc` before
    deciding. Evictions are applied to the state (which records them in its
    trace), then the decided columns are dropped from the layer's scores.
    Returns the per-head evicted indices.
    """
    scores = None
    if kind.needs_scores and acc is not None:
        acc.accumulate(layer, probs)
        scores = acc.layer(layer)
    per_head = decide_layer(kind, probs, scores)
    if per_head[0] is not None:  # every policy evicts from all heads of a layer or none
        for head, idx in enumerate(per_head):
            state.evict(layer, head, idx)
        if scores is not None:
            acc.drop(layer, per_head)
    return per_head


def apply_policy(kind: PolicyKind, state: MultiState, probs: list[np.ndarray],
                 acc: AccumulatedScores | None = None) -> None:
    """Apply one step's policy to every layer; `probs[layer]` is that layer's (H, S) block."""
    for layer in range(state.n_layers):
        apply_layer_policy(kind, state, layer, probs[layer], acc)
