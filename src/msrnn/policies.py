"""Eviction policies over the bounded multi-state.

Policy families: FIFO windows (plain and with a pinned prefix), H2O (protect
the recent half, evict the lowest accumulated attention among the rest), and
TOVA (evict the state the newest query attends to least, per head or with
head-averaged rows). Every argmin breaks ties toward the lowest index.

The core deciders are pure functions over probability rows / accumulated
scores. `apply_layer_policy` wires them to one layer of a MultiState;
sequential decoding calls it for every layer through `apply_policy`, and the
masked-parallel evaluator calls it layer by layer, so a policy's retained
sets are the parallel mode's attention masks and both modes take identical
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AttentionRow
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
    """Element-wise add of one head's probability row into its running sums.

    The row may be one longer than the accumulator: the newest state starts
    from its own first received probability. float64 out.
    """
    s0, s = acc.shape[0], row.shape[0]
    if s == s0:
        return acc + row
    if s == s0 + 1:
        out = np.empty(s, dtype=np.float64)
        out[:s0] = acc + row[:s0]
        out[s0] = row[s0]
        return out
    raise ValueError(f"row length {s} incompatible with accumulator length {s0}")


class AccumulatedScores:
    """Running per-state sums of received attention probabilities.

    One float64 vector per (layer, head), aligned index-for-index with the
    multi-state lists; entries of evicted states are dropped, so an evicted
    state's history is gone for good.
    """

    def __init__(self, n_layers: int, n_heads: int):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self._acc = [[np.zeros(0, dtype=np.float64) for _ in range(n_heads)]
                     for _ in range(n_layers)]

    def head(self, layer: int, head: int) -> np.ndarray:
        return self._acc[layer][head]

    def layer(self, layer: int) -> np.ndarray:
        return np.stack(self._acc[layer])

    def accumulate(self, layer: int, probs: np.ndarray) -> None:
        for head in range(self.n_heads):
            self._acc[layer][head] = accumulate_row(self._acc[layer][head], probs[head])

    def drop(self, layer: int, head: int, index: int) -> None:
        acc = self._acc[layer][head]
        self._acc[layer][head] = np.concatenate((acc[:index], acc[index + 1:]))


# ---------------------------------------------------------------------------
# per-layer deciders: list of per-head eviction indices (None = keep all)


def recent_window(k: int) -> int:
    """Size of the never-evicted recent window used by H2O."""
    return -(-k // 2)  # ceil(k/2)


def policy_window(size: int, n_heads: int, k: int) -> list[int | None]:
    """FIFO: evict the oldest state in every head once the size exceeds k."""
    if size <= k:
        return [None] * n_heads
    return [0] * n_heads


def policy_window_pin(size: int, n_heads: int, k: int, pin: int) -> list[int | None]:
    """FIFO that never touches the first `pin` states: evict index `pin`."""
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
        return [pin + int(np.argmin(probs[h, pin:])) for h in range(n_heads)]
    mean = np.mean(probs, axis=0, dtype=np.float64)
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
        return [int(np.argmin(acc[h, :cutoff])) for h in range(n_heads)]
    mean = np.mean(acc, axis=0, dtype=np.float64)
    idx = int(np.argmin(mean[:cutoff]))
    return [idx] * n_heads


def decide_layer(kind: PolicyKind, size: int, n_heads: int, probs: np.ndarray,
                 acc: np.ndarray | None) -> list[int | None]:
    """Dispatch one layer's eviction decision to the matching policy core."""
    if kind.family == "window":
        if kind.pin:
            return policy_window_pin(size, n_heads, kind.k, kind.pin)
        return policy_window(size, n_heads, kind.k)
    if kind.family in ("tova-head", "tova-layer"):
        return policy_tova(probs, kind.k, kind.headwise, kind.pin)
    if acc is None:
        raise ValueError("H2O policies need accumulated scores")
    return policy_h2o(acc, kind.k, kind.headwise)


def apply_layer_policy(kind: PolicyKind, state: MultiState, layer: int, row: AttentionRow,
                       acc: AccumulatedScores | None = None) -> list[int | None]:
    """Apply one step's policy to one layer of the multi-state.

    H2O kinds fold the fresh row into `acc` before deciding. Evictions are
    applied to the state (which records them in its trace) and the matching
    accumulator entries are dropped. Returns the per-head evicted indices.
    """
    if kind.needs_scores and acc is None:
        raise ValueError(f"policy {kind.name} needs an AccumulatedScores instance")
    if kind.needs_scores:
        acc.accumulate(layer, row.probs)
    per_head = decide_layer(kind, state.size(layer, 0), state.n_heads, row.probs,
                            acc.layer(layer) if kind.needs_scores else None)
    for head, idx in enumerate(per_head):
        if idx is not None:
            state.evict(layer, head, idx)
            if acc is not None:
                acc.drop(layer, head, idx)
    return per_head


def apply_policy(kind: PolicyKind, state: MultiState, rows: list[AttentionRow],
                 acc: AccumulatedScores | None = None) -> None:
    """Apply one step's policy to every layer of the multi-state."""
    for layer in range(state.n_layers):
        apply_layer_policy(kind, state, layer, rows[layer], acc)
