"""Bounded multi-state storage and the retention event trace.

The multi-state is the recurrent state of the decoder: per layer, preallocated
buffers that hold each head's ordered key/value rows plus metadata. Policies
shrink it by evicting entries; every append and evict lands in a
RetentionTrace that the analysis tools consume.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from typing import Sequence

import numpy as np

ACTION_APPEND = "append"
ACTION_EVICT = "evict"
# an action's code is its index, so appends sort before evicts
ACTIONS = (ACTION_APPEND, ACTION_EVICT)
_CODES = {action: code for code, action in enumerate(ACTIONS)}

TRACE_COLUMNS = ("step", "layer", "head", "action", "original_position", "token_id")
# one trace row, built on demand from the columnar store
TraceEvent = namedtuple("TraceEvent", TRACE_COLUMNS)


def write_csv_rows(path: str, header: Sequence[str], blocks: list[tuple]) -> None:
    """csv.writer's bytes from (values, fmt) blocks of row-aligned 2-D arrays;
    a block formats each distinct value once and gathers the texts back.
    Floats are distinct by bit pattern, so -0.0 keeps its own text."""
    texts, cells = [], []
    for values, fmt in blocks:
        keys = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
        distinct = np.unique(keys)
        cells.append(np.searchsorted(distinct, keys) + len(texts))
        texts += map(fmt, distinct.view(values.dtype).tolist())
    rows = (",".join(map(texts.__getitem__, row)) for row in np.hstack(cells).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows]) + "\r\n")


class RetentionTrace:
    """Append/evict event log over a full decoding run.

    The store is one int64 table in insertion order, a column per
    TRACE_COLUMNS field (the action as its ACTIONS index). The canonical
    (step, layer, head, append-before-evict, position) order of file output
    and `sorted_events` is one lexsort, cached until the next `record`.
    """

    def __init__(self, n_layers: int, n_heads: int):
        if n_layers < 1 or n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.n_steps = 0
        self._log = array("q")
        self._order: np.ndarray | None = None

    def record(self, step: int, layer: int, head: int, action: str,
               original_position: int, token_id: int) -> None:
        if action not in _CODES:
            raise ValueError(f"unknown trace action {action!r}")
        if not (0 <= layer < self.n_layers and 0 <= head < self.n_heads):
            raise ValueError(f"layer/head ({layer}, {head}) out of range")
        self._log.extend((step, layer, head, _CODES[action], original_position, token_id))
        if step >= self.n_steps:
            self.n_steps = step + 1
        self._order = None

    def _table(self) -> np.ndarray:  # a view: the log cannot grow while one lives
        return np.frombuffer(self._log, dtype=np.int64).reshape(-1, len(TRACE_COLUMNS))

    def _sorted_order(self) -> np.ndarray:
        if self._order is None:
            self._order = np.lexsort(self._table().T[4::-1])
        return self._order

    def _events(self, order: np.ndarray) -> list[TraceEvent]:
        # a block of rows at a time, with one int object per distinct value
        table, events, ints = self._table(), [], {}
        for start in range(0, len(order), 512):
            events += [TraceEvent(ints.setdefault(s, s), l, h, ACTIONS[a],
                                  ints.setdefault(p, p), ints.setdefault(t, t))
                       for s, l, h, a, p, t in table[order[start:start + 512]].tolist()]
        return events

    @property
    def events(self) -> list[TraceEvent]:
        return self._events(np.arange(len(self._log) // len(TRACE_COLUMNS)))

    def sorted_events(self) -> list[TraceEvent]:
        return self._events(self._sorted_order())

    def lifespans(self) -> tuple[np.ndarray, ...]:
        """(layer, head, position, append step, end step) of every appearance.

        The end is the evict step, or n_steps if never evicted. One lexsort lines
        up each (layer, head, position)'s events; an irregular one raises ValueError.
        """
        if not self._log:
            raise ValueError("trace holds no events")
        table = self._table()[np.lexsort(self._table().T[[3, 0, 4, 2, 1]])]  # last key first
        step, layer, head, action, position, _ = table.T
        # whether the event before is of the same (layer, head, position)
        same = np.append(False, (table[1:, [1, 2, 4]] == table[:-1, [1, 2, 4]]).all(axis=1))
        # each position opens with its append, and an evict may directly follow it
        regular = np.where(same, (action == 1) & ~np.roll(same, 1), action == 0) \
            & (step >= 0) & (position >= 0) & (position < self.n_steps)
        if not regular.all():
            i = np.argmax(~regular)
            mine = (layer == layer[i]) & (head == head[i]) & (position == position[i])
            got = ", ".join(f"{ACTIONS[a]} at step {s}" for a, s in zip(action[mine], step[mine]))
            raise ValueError(f"irregular trace at layer {layer[i]}, head {head[i]}, position "
                             f"{position[i]}: {got}; each needs one append and at most one "
                             f"evict, no earlier, at steps >= 0 and positions 0..n_steps-1")
        ends = np.where(np.append(same[1:], False), np.roll(step, -1), self.n_steps)
        return tuple(column[action == 0] for column in (layer, head, position, step, ends))

    def retained_grid(self, layer: int) -> np.ndarray:
        """(n_heads, n_steps, n_steps) int8, 1 where a position is retained after a step:
        +1 at appends, -1 at ends (a spare row takes n_steps), one cumsum over steps."""
        if not (0 <= layer < self.n_layers):
            raise ValueError(f"layer {layer} out of range for {self.n_layers}")
        layers, heads, positions, starts, ends = self.lifespans()
        mine = layers == layer
        grid = np.zeros((self.n_heads, self.n_steps + 1, self.n_steps), dtype=np.int8)
        grid[heads[mine], starts[mine], positions[mine]] = 1
        grid[heads[mine], ends[mine], positions[mine]] -= 1
        return np.cumsum(grid[:, :-1], axis=1, dtype=np.int8)

    def retained_sets(self, layer: int, head: int) -> list[set[int]]:
        """Retained positions of one (layer, head) right after each step's events."""
        return [set(np.flatnonzero(row).tolist()) for row in self.retained_grid(layer)[head]]

    def write_csv(self, path: str) -> None:
        rows = self._table()[self._sorted_order()]
        write_csv_rows(path, TRACE_COLUMNS, [
            (rows[:, :3], str), (rows[:, 3:4], ACTIONS.__getitem__), (rows[:, 4:], str)])

    @classmethod
    def read_csv(cls, path: str) -> "RetentionTrace":
        """Read a trace CSV with LF or CRLF rows, skipping blank lines."""
        log = array("q")
        with open(path, newline="") as fh:
            fields = fh.readline().rstrip("\r\n").split(",")
            if fields != list(TRACE_COLUMNS):
                raise ValueError(f"bad retention trace header in {path}: {fields}")
            for lineno, line in enumerate(fh, start=2):
                row = line.rstrip("\r\n").split(",")
                if row == [""]:
                    continue
                try:  # a short or long row fails the unpacking
                    step, layer, head, action, position, token = row
                    log.extend((int(step), int(layer), int(head), _CODES[action],
                                int(position), int(token)))
                except (KeyError, ValueError, OverflowError):
                    raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields "
                                     f"{TRACE_COLUMNS}, all integers except the action "
                                     f"({ACTION_APPEND} or {ACTION_EVICT}), got {row}") from None
        if not log:
            raise ValueError(f"retention trace {path} holds no events")
        step, layer, head = np.array(log, dtype=np.int64).reshape(-1, len(TRACE_COLUMNS)).T[:3]
        if min(layer.min(), head.min()) < 0:
            raise ValueError(f"{path}: negative layer or head")
        trace = cls(int(layer.max()) + 1, int(head.max()) + 1)
        trace._log, trace.n_steps = log, max(int(step.max()) + 1, 0)
        return trace


# metadata columns are (original position, token id)
_POS = 0
# rows per head that an unbounded state starts with; it doubles when full
_FIRST_ROWS = 16


class MultiState:
    """Per-layer, per-head ordered multi-state of cached K/V rows.

    Each layer holds one preallocated (H, rows, d) float32 key buffer and one
    value buffer, an aligned (H, rows, 2) int64 metadata buffer (original
    position, token id) and a size per head; head h's entries are rows
    0..size-1, oldest first. An entry's position is also the step it was
    appended at, and an eviction is stamped with the latest position
    appended to its layer. `capacity=None` gives the unbounded
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
        self._meta = [np.zeros((n_heads, rows, 2), dtype=np.int64) for _ in range(n_layers)]
        self._flat = [self._flat_views(layer) for layer in range(n_layers)]
        # latest position appended to each layer: the step an eviction is
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

    def _check(self, layer: int, head: int) -> None:
        if not (0 <= layer < self.n_layers and 0 <= head < self.n_heads):
            raise ValueError(f"layer/head ({layer}, {head}) out of range")

    def size(self, layer: int, head: int) -> int:
        self._check(layer, head)
        return self._sizes[layer][head]

    def append(self, layer: int, head: int, key: np.ndarray, value: np.ndarray,
               position: int, token: int) -> None:
        self._check(layer, head)
        if np.shape(key) != (self.head_dim,) or np.shape(value) != (self.head_dim,):
            raise ValueError(
                f"key/value rows must have shape ({self.head_dim},), "
                f"got {np.shape(key)} and {np.shape(value)}"
            )
        if position < 0 or token < 0:
            raise ValueError(f"position {position} and token {token} must be non-negative")
        size = self._sizes[layer][head]
        meta_rows = self._meta[layer]
        if size and position <= meta_rows[head, size - 1, _POS]:
            raise ValueError(
                f"position {position} not greater than current "
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
        meta_rows[head, size] = (position, token)
        self._sizes[layer][head] = size + 1
        self._last_step[layer] = max(self._last_step[layer], position)
        if self.trace is not None:
            self.trace.record(position, layer, head, ACTION_APPEND, position, token)

    def evict(self, layer: int, head: int, index: int) -> None:
        self._check(layer, head)
        size = self._sizes[layer][head]
        if not (0 <= index < size):
            raise ValueError(f"evict index {index} out of range for size {size}")
        keys, values, meta_rows = self._flat[layer][head]
        if self.trace is not None:
            position, token = meta_rows[2 * index:2 * index + 2].tolist()
            self.trace.record(self._last_step[layer], layer, head, ACTION_EVICT, position, token)
        d = self.head_dim
        keys[index * d:(size - 1) * d] = keys[(index + 1) * d:size * d]
        values[index * d:(size - 1) * d] = values[(index + 1) * d:size * d]
        meta_rows[2 * index:2 * (size - 1)] = meta_rows[2 * (index + 1):2 * size]
        self._sizes[layer][head] = size - 1

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
