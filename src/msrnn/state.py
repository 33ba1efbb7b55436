"""Bounded multi-state storage and the retention event trace.

The multi-state is the recurrent state of the decoder: preallocated buffers
of k+1 rows per head that hold each head's ordered key/value rows and their
original positions (ColumnSets keeps only the positions). Policies shrink it
one step at a time, dropping one entry from every head of every layer with
`evict_step`, and each layer logs its evictions; a RetentionTrace records a
layer's appends and logged evictions in one `record_chunk` call.
"""

from __future__ import annotations

import warnings
from array import array
from collections import namedtuple
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

import numpy as np

from .remap import remap_gap

ACTION_APPEND = "append"
ACTION_EVICT = "evict"
# an action's code is its index, so appends sort before evicts
ACTIONS = (ACTION_APPEND, ACTION_EVICT)
_CODES = {action: code for code, action in enumerate(ACTIONS)}

TRACE_COLUMNS = ("step", "layer", "head", "action", "original_position", "token_id")
# one trace row, built on demand from the columnar store
TraceEvent = namedtuple("TraceEvent", TRACE_COLUMNS)


def write_csv_rows(path: str, header: Sequence[str], blocks: list[tuple]) -> None:
    """csv.writer's bytes from (values, fmt) blocks of row-aligned 2-D arrays,
    in whole-table passes. A block's distinct values are its sorted keys less
    equal neighbours, and each is formatted once; floats are keyed by bit
    pattern, so -0.0 and each NaN keep their own text. Every text gets a ","
    copy and a "\\r\\n" copy, the last column indexes the second, and the body
    is one join of the copies the index table picks."""
    texts, cells = [], []
    for values, fmt in blocks:
        keys = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
        ordered = np.sort(keys, axis=None)
        first = np.ones(len(ordered), dtype=bool)  # zero rows leave it empty
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        cells.append(np.searchsorted(distinct, keys) + len(texts))
        texts += map(fmt, distinct.view(values.dtype).tolist())
    index = np.hstack(cells)
    index[:, -1] += len(texts)
    pieces = np.array([text + "," for text in texts] + [text + "\r\n" for text in texts],
                      dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(pieces[index.ravel()].tolist()))


@contextmanager
def _text_file(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file, with LF, CRLF and CR line ends all read as LF; a byte
    that is not UTF-8 fails as `<path>: not UTF-8 text`."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


def read_text_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, as `_text_file` reads them."""
    with _text_file(path) as fh:
        yield from fh


def read_csv_rows(path: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every non-blank row after a `header` line, the
    format write_csv_rows writes: rows end in LF, CRLF or CR, no cell is quoted."""
    lines = read_text_lines(path)
    fields = next(lines, "").rstrip("\n").split(",")
    if fields != list(header):
        raise ValueError(f"{path}: bad header {fields}, expected {list(header)}")
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if line:
            yield lineno, line.split(",")


class RetentionTrace:
    """Append/evict event log over a full decoding run.

    The store is one int64 table in insertion order, a column per
    TRACE_COLUMNS field (the action as its ACTIONS index). The canonical
    (step, layer, head, append-before-evict, position) order of file output
    and `sorted_events` is one lexsort, and the analyses read `lifespans`;
    both are cached until the next row is written.
    """

    def __init__(self, n_layers: int, n_heads: int):
        if n_layers < 1 or n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.n_steps = 0
        self._log = array("q")
        self._order: np.ndarray | None = None
        self._lifespans: tuple[np.ndarray, ...] | None = None

    def record(self, step: int, layer: int, head: int, action: str,
               original_position: int, token_id: int) -> None:
        """Check one event's action and layer/head, then write it."""
        if action not in _CODES:
            raise ValueError(f"unknown trace action {action!r}")
        if not (0 <= layer < self.n_layers and 0 <= head < self.n_heads):
            raise ValueError(f"layer/head ({layer}, {head}) out of range")
        self._log.extend((step, layer, head, _CODES[action], original_position, token_id))
        if step >= self.n_steps:
            self.n_steps = step + 1
        self._order = self._lifespans = None

    def record_block(self, rows: np.ndarray) -> None:
        """Record an (n, 6) integer table of events in TRACE_COLUMNS order, each
        action as its ACTIONS index: the events, order and checks of one
        `record` per row, except that a table with a bad row records nothing."""
        table = np.asarray(rows)
        if table.ndim != 2 or table.shape[1] != len(TRACE_COLUMNS) or table.dtype.kind != "i":
            raise ValueError(f"trace rows must be an (n, {len(TRACE_COLUMNS)}) integer table, "
                             f"got shape {table.shape} of {table.dtype}")
        if not len(table):
            return
        step, layer, head, action = table.T[:4]
        bad_action = (action < 0) | (action >= len(ACTIONS))
        bad = bad_action | (layer < 0) | (layer >= self.n_layers) \
            | (head < 0) | (head >= self.n_heads)
        if bad.any():
            i = int(np.argmax(bad))
            if bad_action[i]:
                raise ValueError(f"unknown trace action {int(action[i])!r}")
            raise ValueError(f"layer/head ({layer[i]}, {head[i]}) out of range")
        self._log.frombytes(table.astype(np.int64).tobytes())
        self.n_steps = max(self.n_steps, int(step.max()) + 1)
        self._order = self._lifespans = None

    def record_chunk(self, layer: int, tokens: Sequence[int], evictions: np.ndarray) -> None:
        """Record one layer's events over len(tokens) steps: every head appends position t
        (token `tokens[t]`) at step t, then the (n, 3) evicted (step, head, position)."""
        steps, heads = np.divmod(np.arange(len(tokens) * self.n_heads), self.n_heads)
        rows = np.zeros((len(steps) + len(evictions), len(TRACE_COLUMNS)), dtype=np.int64)
        # (step, head, position) of each event, appends first
        rows[:, [0, 2, 4]] = np.concatenate((np.stack((steps, heads, steps), 1), evictions))
        rows[:, 1] = layer
        rows[len(steps):, 3] = _CODES[ACTION_EVICT]
        rows[:, 5] = np.asarray(tokens, dtype=np.int64)[rows[:, 4]]
        self.record_block(rows)

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
        The read-only columns are cached until the next row is written.
        """
        if self._lifespans is not None:
            return self._lifespans
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
        spans = tuple(column[action == 0] for column in (layer, head, position, step, ends))
        for column in spans:
            column.flags.writeable = False
        self._lifespans = spans
        return spans

    def retained_counts(self, layer: int, head: int | None = None) -> np.ndarray:
        """(n_steps, n_steps) count of the heads, `head` alone or all, that retain
        position p after step t's events: +1 at appends, -1 at ends (a spare row
        takes n_steps), one cumsum over steps in place. int8 up to 127 heads."""
        if not (0 <= layer < self.n_layers):
            raise ValueError(f"layer {layer} out of range for {self.n_layers}")
        if head is not None and not (0 <= head < self.n_heads):
            raise ValueError(f"head {head} out of range for {self.n_heads}")
        layers, heads, positions, starts, ends = self.lifespans()
        mine = (layers == layer) & (heads == head if head is not None else True)
        dtype = np.int8 if head is not None or self.n_heads < 128 else np.int32
        counts = np.zeros((self.n_steps + 1, self.n_steps), dtype=dtype)
        np.add.at(counts, (starts[mine], positions[mine]), 1)
        np.add.at(counts, (ends[mine], positions[mine]), -1)
        return np.cumsum(counts, axis=0, dtype=dtype, out=counts)[:-1]

    def retained_sets(self, layer: int, head: int) -> list[set[int]]:
        """Retained positions of one (layer, head) right after each step's events."""
        return [set(np.flatnonzero(row).tolist()) for row in self.retained_counts(layer, head)]

    def write_csv(self, path: str) -> None:
        rows = self._table()[self._sorted_order()]
        write_csv_rows(path, TRACE_COLUMNS, [
            (rows[:, :3], str), (rows[:, 3:4], ACTIONS.__getitem__), (rows[:, 4:], str)])

    @classmethod
    def read_csv(cls, path: str) -> "RetentionTrace":
        """Read a trace CSV. A canonical file is parsed in whole-table passes:
        `_parse_table` into records with a text action, then one comparison per
        action to code them. Any body those refuse (an empty one, a bad row, an
        action that is not exactly append or evict, a cell such as `1_0` that
        int() reads) goes through the read_csv_rows loop, which names a bad line.
        Both give the same table, so the checks after it are the same."""
        rows = _parse_table(path, TRACE_COLUMNS, _TRACE_ROW)
        codes = -1 if rows is None else np.select(
            [rows["action"] == action for action in ACTIONS], range(len(ACTIONS)), -1)
        if np.all(codes >= 0):
            table = np.column_stack([codes if name == "action" else rows[name]
                                     for name in TRACE_COLUMNS])
        else:
            log = array("q")
            for lineno, row in read_csv_rows(path, TRACE_COLUMNS):
                try:  # a short or long row fails the unpacking
                    step, layer, head, action, position, token = row
                    log.extend((int(step), int(layer), int(head), _CODES[action],
                                int(position), int(token)))
                except (KeyError, ValueError, OverflowError):
                    raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields "
                                     f"{TRACE_COLUMNS}, all integers except the action "
                                     f"({ACTION_APPEND} or {ACTION_EVICT}), got {row}") from None
            table = np.frombuffer(log, dtype=np.int64).reshape(-1, len(TRACE_COLUMNS))
        if not len(table):
            raise ValueError(f"retention trace {path} holds no events")
        step, layer, head = table.T[:3]
        if min(layer.min(), head.min()) < 0:
            raise ValueError(f"{path}: negative layer or head")
        trace = cls(int(layer.max()) + 1, int(head.max()) + 1)
        trace._log, trace.n_steps = array("q", table.tobytes()), max(int(step.max()) + 1, 0)
        return trace


# one trace CSV row; the action field holds a character more than any action,
# so a longer cell, which loadtxt cuts to fit, matches none
_TRACE_ROW = np.dtype([(name, f"U{max(map(len, ACTIONS)) + 1}" if name == "action"
                        else np.int64) for name in TRACE_COLUMNS])


def _parse_table(path: str, header: Sequence[str], dtype: np.dtype) -> np.ndarray | None:
    """`dtype` records of a `header` CSV's body from one np.loadtxt call, or None
    where that call might read the body otherwise than the read_csv_rows loop:
    loadtxt refuses it (an odd or bad cell, a wrong field count) or warns (it is
    empty), or it holds \\x00, which a U field drops from the end, or an ASCII
    separator \\x1c-\\x1f, which loadtxt skips as space and int() does not."""
    try:
        with _text_file(path) as fh:
            if fh.readline().rstrip("\n").split(",") != list(header):
                return None
            body = fh.read()
        if any(sep in body for sep in "\x00\x1c\x1d\x1e\x1f"):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the lines are str; encoding=None keeps numpy < 2 from its bytes default
            return np.loadtxt(body.split("\n"), delimiter=",", dtype=dtype,
                              comments=None, ndmin=1, encoding=None)
    except (ValueError, OverflowError, Warning):
        return None


class _EvictionLog:
    """MultiState's and ColumnSets' layer and head counts, H2O's `scores` (None
    until the first H2O step), and a per-layer log of evicted (step, head,
    position), each stamped with the latest position appended to the state."""

    def __init__(self, n_layers: int, n_heads: int):
        self.n_layers, self.n_heads = n_layers, n_heads
        self.scores = None
        self._log = [array("q") for _ in range(n_layers)]
        self._last_step = -1

    def evictions(self, layer: int) -> np.ndarray:
        """The (n, 3) int64 table of the layer's evicted (step, head, position)."""
        return np.frombuffer(self._log[layer], dtype=np.int64).reshape(-1, 3).copy()


class MultiState(_EvictionLog):
    """Per-layer, per-head ordered multi-state of cached K/V rows.

    The state holds one preallocated (L, H, k+1, d) float32 key buffer and one
    value buffer, an aligned (L, H, k+1) int64 buffer of original positions
    and a size per head; head h of layer l holds its
    entries in rows 0..size-1, oldest first. Capacity k gives the bounded
    g(t)=min(t,k) regime: callers append first and policies evict afterwards,
    so a head holds k+1 entries transiently within a step, never more. The
    unbounded g(t)=t topline of a T-step run is the state with k = T. An
    entry's position is also the step it was appended at, and an eviction is
    stamped with the latest position appended to the state. Appending writes
    one row and evicting shifts the head's tail left by one in place, so
    neither allocates, and the surviving entries never reorder. A policy
    evicts through `evict_step`, which makes one per-head `evict` call for
    each head of each layer, layer by layer in head order. `append` and
    `evict` check their arguments, then write the entry through the head's
    flat views; `evict` also logs the eviction in `evictions(layer)`, so a
    refused call logs nothing. The state holds no trace: a driver hands
    each layer's log to `RetentionTrace.record_chunk`. `scores` holds H2O's
    `policies.AccumulatedScores`. A deepcopy or a pickle round trip runs on as the state would.

    A state built with `remap` keeps one more (L, H, k+1) float64 buffer:
    each entry's `remap_gap` of the gap to its predecessor, 0.0 for the
    oldest. `append` maps the one new gap, and `evict` re-maps the one gap
    its eviction merges (the next entry's gap becomes 0.0 if the oldest
    went), so each gap is mapped once, not once per step.
    `remapped_positions` gives a layer's remapped positions as the running
    sums of those gaps, and `rotated_keys` caches its keys rotated at them
    in one more (L, H, k+1, d) buffer, with a count per layer of the leading
    rows still current. Entries below the lowest index evicted since the
    layer's last step keep their running sums, so they keep their rotated
    rows: `evict` lowers the count to its index, and `append` writes past
    it. A plain state refuses both calls.
    """

    def __init__(self, n_layers: int, n_heads: int, head_dim: int, capacity: int,
                 remap: bool = False):
        if n_layers < 1 or n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if head_dim < 0:
            raise ValueError("head_dim must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(n_layers, n_heads)
        self.head_dim = head_dim
        self.capacity = capacity
        self._sizes = [[0] * n_heads for _ in range(n_layers)]
        self._keys = np.zeros((n_layers, n_heads, capacity + 1, head_dim), dtype=np.float32)
        self._values = np.zeros(self._keys.shape, dtype=np.float32)
        self._meta = np.zeros(self._keys.shape[:3], dtype=np.int64)
        self.remap = remap
        self._gaps = np.zeros(self._meta.shape) if remap else None
        self._rotated = np.zeros(self._keys.shape, dtype=np.float32) if remap else None
        self._current = [0] * n_layers
        self._make_flat()

    def _make_flat(self) -> None:
        # 1-D views of each head's rows: a left shift on them is one memmove
        self._flat = [[(self._keys[layer, head].reshape(-1),
                        self._values[layer, head].reshape(-1),
                        self._meta[layer, head],
                        self._gaps[layer, head] if self.remap else None)
                       for head in range(self.n_heads)] for layer in range(self.n_layers)]

    def __getstate__(self) -> dict:  # a copied view holds its own data, apart from the buffers
        return {name: value for name, value in self.__dict__.items() if name != "_flat"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._make_flat()

    def _check(self, layer: int, head: int) -> None:
        if not (0 <= layer < self.n_layers and 0 <= head < self.n_heads):
            raise ValueError(f"layer/head ({layer}, {head}) out of range")

    def size(self, layer: int, head: int) -> int:
        self._check(layer, head)
        return self._sizes[layer][head]

    def append(self, layer: int, head: int, key: np.ndarray, value: np.ndarray,
               position: int) -> None:
        self._check(layer, head)
        if np.shape(key) != (self.head_dim,) or np.shape(value) != (self.head_dim,):
            raise ValueError(
                f"key/value rows must have shape ({self.head_dim},), "
                f"got {np.shape(key)} and {np.shape(value)}"
            )
        if position < 0:
            raise ValueError(f"position {position} must be non-negative")
        size = self._sizes[layer][head]
        keys, values, positions, gaps = self._flat[layer][head]
        if size and position <= positions.item(size - 1):
            raise ValueError(
                f"position {position} not greater than current maximum {positions.item(size - 1)}")
        if size > self.capacity:
            raise ValueError(
                f"state already holds k+1 = {size} entries at layer "
                f"{layer}, head {head}; evict before appending"
            )
        d = self.head_dim
        keys[size * d:(size + 1) * d] = key
        values[size * d:(size + 1) * d] = value
        positions[size] = position
        if gaps is not None:
            gaps[size] = remap_gap(position - positions.item(size - 1)) if size else 0.0
        self._sizes[layer][head] = size + 1
        if position > self._last_step:
            self._last_step = position

    def evict(self, layer: int, head: int, index: int) -> None:
        self._check(layer, head)
        size = self._sizes[layer][head]
        if not (0 <= index < size):
            raise ValueError(f"evict index {index} out of range for size {size}")
        keys, values, positions, gaps = self._flat[layer][head]
        self._log[layer].extend((self._last_step, head, positions.item(index)))
        d = self.head_dim
        keys[index * d:(size - 1) * d] = keys[(index + 1) * d:size * d]
        values[index * d:(size - 1) * d] = values[(index + 1) * d:size * d]
        positions[index:size - 1] = positions[index + 1:size]
        if gaps is not None and index < size - 1:
            # the entry now at `index` takes the merged gap, or none if it is the oldest
            gaps[index + 1:size - 1] = gaps[index + 2:size]
            gaps[index] = remap_gap(positions.item(index) - positions.item(index - 1)) \
                if index else 0.0
        self._sizes[layer][head] = size - 1
        if index < self._current[layer]:
            self._current[layer] = index

    def step_size(self) -> int:
        """The size every head of every layer holds; a ValueError names the sizes otherwise."""
        if self._sizes.count(self._sizes[0]) != self.n_layers or len(set(self._sizes[0])) > 1:
            raise ValueError(f"a step needs every layer at one size; the heads hold {self._sizes}")
        return self._sizes[0][0]

    def evict_step(self, indices: list[int]) -> None:
        """Evict entry indices[layer * H + h] from head h of every layer, one
        `evict` per head, layer by layer in head order."""
        for row, index in enumerate(indices):
            self.evict(*divmod(row, self.n_heads), index)

    def keys(self, layer: int, head: int) -> np.ndarray:
        """(size, head_dim) view of one head's cached keys, oldest first.

        The view is valid until the next append or evict on this state.
        """
        return self._keys[layer, head, :self.size(layer, head)]

    def values(self, layer: int, head: int) -> np.ndarray:
        """(size, head_dim) view of one head's cached values; see `keys`."""
        return self._values[layer, head, :self.size(layer, head)]

    def _layer_size(self, layer: int) -> int:
        """The number S of entries every head of the layer holds; a ValueError
        names the sizes otherwise."""
        self._check(layer, 0)
        sizes = self._sizes[layer]
        if sizes.count(sizes[0]) != len(sizes):
            raise ValueError(f"heads of layer {layer} differ in size: {sizes}")
        return sizes[0]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, positions) views of one layer: (H, S, d), (H, S, d), (H, S).

        Every head of the layer must hold the same number S of entries. The
        views are valid until the next append or evict on this state.
        """
        size = self._layer_size(layer)
        return (self._keys[layer, :, :size], self._values[layer, :, :size],
                self._meta[layer, :, :size])

    def remapped_positions(self, layer: int) -> np.ndarray:
        """One layer's `remap_positions`, as one cumsum of the stored mapped
        gaps: one (1, S) row, which broadcasts over the heads, while every
        head's gaps are equal, else the (H, S) block. Every head must hold
        S entries, as in `layer_view`."""
        if not self.remap:
            raise ValueError("remapped positions need a state built with remap=True")
        gaps = self._gaps[layer, :, :self._layer_size(layer)]
        if (gaps == gaps[0]).all():
            gaps = gaps[:1]
        return np.cumsum(gaps, axis=-1)

    def rotated_keys(self, layer: int) -> tuple[np.ndarray, int]:
        """(H, S, d) view of one layer's rotated-key cache and the count of
        its leading rows still current. The count becomes S: the caller
        rotates the rows from the old count up into the view before the
        next append or evict. Every head must hold S entries, as in
        `layer_view`."""
        if not self.remap:
            raise ValueError("rotated keys need a state built with remap=True")
        size, current = self._layer_size(layer), self._current[layer]
        self._current[layer] = size
        return self._rotated[layer, :, :size], current

    def retained_positions(self, layer: int, head: int) -> list[int]:
        """Original positions currently cached, in list order (strictly increasing)."""
        return self._meta[layer, head, :self.size(layer, head)].tolist()


class ColumnSets(_EvictionLog):
    """MultiState's bookkeeping with no K/V rows: head h of a layer holds the
    positions of its entries, oldest first, and all heads of all layers have
    one size. `evict_step`, its eviction log and `scores` are MultiState's.
    The model-free simulator drives it through `apply_policy`."""

    def __init__(self, n_layers: int, n_heads: int, capacity: int):
        super().__init__(n_layers, n_heads)
        self._positions = np.empty((n_layers, n_heads, capacity + 1), dtype=np.intp)
        self._size = 0

    def step_size(self) -> int:
        return self._size

    def append(self, step: int) -> np.ndarray:
        """Give every head of every layer position `step`, in one assignment;
        the (L, H, S) retained positions, as a view."""
        self._positions[:, :, self._size] = step
        self._size += 1
        self._last_step = max(self._last_step, step)
        return self._positions[:, :, :self._size]

    def evict_step(self, indices: list[int]) -> None:
        """Drop entry indices[layer * H + h] from head h of every layer, logging
        each layer's heads in order: one 2-D shift for a layer whose heads drop
        the same index, else one shift per head."""
        size, step, n_heads = self._size, self._last_step, self.n_heads
        for layer, (rows, log) in enumerate(zip(self._positions, self._log)):
            mine = indices[layer * n_heads:(layer + 1) * n_heads]
            first = mine[0]
            if mine.count(first) == n_heads:
                for head, position in enumerate(rows[:, first].tolist()):
                    log.extend((step, head, position))
                rows[:, first:size - 1] = rows[:, first + 1:size]
            else:
                for head, (row, index) in enumerate(zip(rows, mine)):
                    log.extend((step, head, row.item(index)))
                    row[index:size - 1] = row[index + 1:size]
        self._size = size - 1
