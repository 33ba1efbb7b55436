"""Bounded multi-state storage and the retention event trace.

The multi-state is the recurrent state of the decoder: per layer, preallocated
buffers that hold each head's ordered key/value rows plus metadata. Policies
shrink it by evicting entries; every append and evict lands in a
RetentionTrace that the analysis tools consume.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

ACTION_APPEND = "append"
ACTION_EVICT = "evict"

GROWTH_UNBOUNDED = "unbounded"
GROWTH_BOUNDED = "min(t,k)"

TRACE_COLUMNS = ("step", "layer", "head", "action", "original_position", "token_id")


@dataclass(frozen=True)
class StateMeta:
    """Metadata carried by one cached state entry."""

    original_position: int
    entry_step: int
    token_id: int

    def __post_init__(self) -> None:
        if self.original_position < 0 or self.entry_step < 0:
            raise ValueError("original_position and entry_step must be non-negative")
        if self.original_position > self.entry_step:
            raise ValueError(
                f"original_position {self.original_position} exceeds entry_step {self.entry_step}"
            )


@dataclass(frozen=True)
class TraceEvent:
    step: int
    layer: int
    head: int
    action: str
    original_position: int
    token_id: int


def _event_sort_key(ev: TraceEvent) -> tuple:
    # appends before evicts within a step so replay never removes a missing entry
    return (ev.step, ev.layer, ev.head, 0 if ev.action == ACTION_APPEND else 1, ev.original_position)


class RetentionTrace:
    """Append/evict event log over a full decoding run.

    Events are kept in insertion order; `sorted_events` puts them in the
    canonical (step, layer, head, append-before-evict, position) order used
    for file output and cross-run comparison.
    """

    def __init__(self, n_layers: int, n_heads: int):
        if n_layers < 1 or n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.events: list[TraceEvent] = []

    def record(self, step: int, layer: int, head: int, action: str,
               original_position: int, token_id: int) -> None:
        if action not in (ACTION_APPEND, ACTION_EVICT):
            raise ValueError(f"unknown trace action {action!r}")
        if not (0 <= layer < self.n_layers and 0 <= head < self.n_heads):
            raise ValueError(f"layer/head ({layer}, {head}) out of range")
        self.events.append(TraceEvent(step, layer, head, action, original_position, token_id))

    @property
    def n_steps(self) -> int:
        if not self.events:
            return 0
        return max(ev.step for ev in self.events) + 1

    def sorted_events(self) -> list[TraceEvent]:
        return sorted(self.events, key=_event_sort_key)

    def retained_sets(self, layer: int, head: int) -> list[set[int]]:
        """Post-step retained original positions for one (layer, head).

        Element t is the set right after step t's appends and evictions.
        """
        per_step: dict[int, list[TraceEvent]] = {}
        for ev in self.events:
            if ev.layer == layer and ev.head == head:
                per_step.setdefault(ev.step, []).append(ev)
        snapshots: list[set[int]] = []
        alive: set[int] = set()
        for t in range(self.n_steps):
            for ev in sorted(per_step.get(t, []), key=_event_sort_key):
                if ev.action == ACTION_APPEND:
                    alive.add(ev.original_position)
                else:
                    alive.discard(ev.original_position)
            snapshots.append(set(alive))
        return snapshots

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for ev in self.sorted_events():
                writer.writerow([ev.step, ev.layer, ev.head, ev.action,
                                 ev.original_position, ev.token_id])

    @classmethod
    def read_csv(cls, path: str) -> "RetentionTrace":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(TRACE_COLUMNS):
                raise ValueError(f"bad retention trace header in {path}: {header}")
            rows = []
            for row in reader:
                if not row:
                    continue
                try:  # a short or long row fails the unpacking
                    step, layer, head, action, position, token = row
                    event = (int(step), int(layer), int(head), action, int(position), int(token))
                except ValueError:
                    raise ValueError(f"{path}:{reader.line_num}: expected {len(TRACE_COLUMNS)} "
                                     f"fields {TRACE_COLUMNS}, all integers except the "
                                     f"action, got {row}") from None
                rows.append(event)
        if not rows:
            raise ValueError(f"retention trace {path} holds no events")
        trace = cls(max(r[1] for r in rows) + 1, max(r[2] for r in rows) + 1)
        for r in rows:
            trace.record(*r)
        return trace


# metadata columns are (original position, entry step, token id)
_POS = 0
# rows per head that an unbounded state starts with; it doubles when full
_FIRST_ROWS = 16


class MultiState:
    """Per-layer, per-head ordered multi-state of cached K/V rows.

    Each layer holds one preallocated (H, rows, d) float32 key buffer and one
    value buffer, an aligned (H, rows, 3) int64 metadata buffer (original
    position, entry step, token id) and a size per head; head h's entries
    are rows 0..size-1, oldest first. `capacity=None` gives the unbounded
    g(t)=t cache, whose buffers start small and double when full; an integer
    k gives the bounded g(t)=min(t,k) regime with rows = k+1, where callers
    append first and policies evict afterwards (a head holds k+1 entries
    transiently within a step, never more). Appending writes one row and
    evicting shifts the head's tail left by one in place, so neither
    allocates, and the surviving entries never reorder.
    """

    def __init__(self, n_layers: int, n_heads: int, head_dim: int,
                 capacity: int | None = None, trace: RetentionTrace | None = None):
        if n_layers < 1 or n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if head_dim < 0:
            raise ValueError("head_dim must be >= 0")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when bounded")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.trace = trace
        rows = _FIRST_ROWS if capacity is None else capacity + 1
        self._sizes = [[0] * n_heads for _ in range(n_layers)]
        self._keys = [np.zeros((n_heads, rows, head_dim), dtype=np.float32)
                      for _ in range(n_layers)]
        self._values = [np.zeros((n_heads, rows, head_dim), dtype=np.float32)
                        for _ in range(n_layers)]
        self._meta = [np.zeros((n_heads, rows, 3), dtype=np.int64) for _ in range(n_layers)]
        self._flat = [self._flat_views(layer) for layer in range(n_layers)]
        # latest entry step appended to each layer: the step an eviction is
        # stamped with, per layer because the masked-parallel evaluator runs
        # a whole chunk through one layer before the next
        self._last_step = [-1] * n_layers

    def _flat_views(self, layer: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        # 1-D views of each head's rows: a left shift on them is one memmove
        keys, values, meta = self._keys[layer], self._values[layer], self._meta[layer]
        return [(keys[h].reshape(-1), values[h].reshape(-1), meta[h].reshape(-1))
                for h in range(self.n_heads)]

    def _grow(self, layer: int) -> None:
        """Double an unbounded layer's rows, keeping its entries."""
        for bufs in (self._keys, self._values, self._meta):
            old = bufs[layer]
            new = np.zeros((old.shape[0], 2 * old.shape[1]) + old.shape[2:], dtype=old.dtype)
            new[:, :old.shape[1]] = old
            bufs[layer] = new
        self._flat[layer] = self._flat_views(layer)

    @property
    def growth_tag(self) -> str:
        return GROWTH_UNBOUNDED if self.capacity is None else GROWTH_BOUNDED

    def _check(self, layer: int, head: int) -> None:
        if not (0 <= layer < self.n_layers and 0 <= head < self.n_heads):
            raise ValueError(f"layer/head ({layer}, {head}) out of range")

    def size(self, layer: int, head: int) -> int:
        self._check(layer, head)
        return self._sizes[layer][head]

    def append(self, layer: int, head: int, key: np.ndarray, value: np.ndarray,
               meta: StateMeta) -> None:
        self._check(layer, head)
        if np.shape(key) != (self.head_dim,) or np.shape(value) != (self.head_dim,):
            raise ValueError(
                f"key/value rows must have shape ({self.head_dim},), "
                f"got {np.shape(key)} and {np.shape(value)}"
            )
        size = self._sizes[layer][head]
        meta_rows = self._meta[layer]
        if size and meta.original_position <= meta_rows[head, size - 1, _POS]:
            raise ValueError(
                f"original_position {meta.original_position} not greater than current "
                f"maximum {meta_rows[head, size - 1, _POS]}"
            )
        if size == meta_rows.shape[1]:
            if self.capacity is not None:
                raise ValueError(
                    f"bounded state already holds k+1 = {size} entries at layer "
                    f"{layer}, head {head}; evict before appending"
                )
            self._grow(layer)
            meta_rows = self._meta[layer]
        self._keys[layer][head, size] = key
        self._values[layer][head, size] = value
        meta_rows[head, size] = (meta.original_position, meta.entry_step, meta.token_id)
        self._sizes[layer][head] = size + 1
        self._last_step[layer] = max(self._last_step[layer], meta.entry_step)
        if self.trace is not None:
            self.trace.record(meta.entry_step, layer, head, ACTION_APPEND,
                              meta.original_position, meta.token_id)

    def evict(self, layer: int, head: int, index: int) -> StateMeta:
        self._check(layer, head)
        size = self._sizes[layer][head]
        if not (0 <= index < size):
            raise ValueError(f"evict index {index} out of range for size {size}")
        keys, values, meta_rows = self._flat[layer][head]
        position, step, token = meta_rows[3 * index:3 * index + 3].tolist()
        d = self.head_dim
        keys[index * d:(size - 1) * d] = keys[(index + 1) * d:size * d]
        values[index * d:(size - 1) * d] = values[(index + 1) * d:size * d]
        meta_rows[3 * index:3 * (size - 1)] = meta_rows[3 * (index + 1):3 * size]
        self._sizes[layer][head] = size - 1
        if self.trace is not None:
            self.trace.record(self._last_step[layer], layer, head, ACTION_EVICT, position, token)
        return StateMeta(original_position=position, entry_step=step, token_id=token)

    def keys(self, layer: int, head: int) -> np.ndarray:
        """(size, head_dim) view of one head's cached keys, oldest first.

        The view is valid until the next append or evict on this state.
        """
        return self._keys[layer][head, :self.size(layer, head)]

    def values(self, layer: int, head: int) -> np.ndarray:
        """(size, head_dim) view of one head's cached values; see `keys`."""
        return self._values[layer][head, :self.size(layer, head)]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, positions) views of one layer: (H, S, d), (H, S, d), (H, S).

        Every head of the layer must hold the same number S of entries. The
        views are valid until the next append or evict on this state.
        """
        self._check(layer, 0)
        sizes = self._sizes[layer]
        size = sizes[0]
        if any(s != size for s in sizes):
            raise ValueError(f"heads of layer {layer} differ in size: {sizes}")
        return (self._keys[layer][:, :size], self._values[layer][:, :size],
                self._meta[layer][:, :size, _POS])

    def retained_positions(self, layer: int, head: int) -> list[int]:
        """Original positions currently cached, in list order (strictly increasing)."""
        return self._meta[layer][head, :self.size(layer, head), _POS].tolist()
