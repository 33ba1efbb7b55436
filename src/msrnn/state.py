"""Bounded multi-state storage and the retention event trace.

The multi-state is the recurrent state of the decoder: preallocated buffers
of k+1 rows per head that hold each head's ordered key/value rows plus
metadata. Policies shrink it by evicting entries; every append and evict
lands in a RetentionTrace that the analysis tools consume.
"""

from __future__ import annotations

import warnings
from array import array
from collections import namedtuple
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

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
        """Read a trace CSV. A canonical file is parsed in whole-table passes: one
        np.loadtxt call into records with a text action, then one comparison per
        action to code them. Any body those refuse (an empty one, a bad row, an
        action that is not exactly append or evict, a cell such as `1_0` that
        int() reads) goes through the read_csv_rows loop, which names a bad line.
        Both give the same table, so the checks after it are the same."""
        table = _parse_trace_table(path)
        if table is None:
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


def _parse_trace_table(path: str) -> np.ndarray | None:
    """The (n, 6) int64 table of a trace CSV, or None where the parse might read
    the body otherwise than the row loop. One np.loadtxt call reads the rows
    into _TRACE_ROW records, and one comparison per action maps the action
    texts to codes. None when loadtxt refuses (an odd or bad cell, a wrong
    field count) or warns (an empty body), when an action is not exactly one
    of ACTIONS, or when the body holds \\x00, which a U field drops from the
    end, or an ASCII separator \\x1c-\\x1f, which loadtxt skips as space and
    int() does not."""
    try:
        with _text_file(path) as fh:
            if fh.readline().rstrip("\n").split(",") != list(TRACE_COLUMNS):
                return None
            body = fh.read()
        if any(sep in body for sep in "\x00\x1c\x1d\x1e\x1f"):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the lines are str; encoding=None keeps numpy < 2 from its bytes default
            rows = np.loadtxt(body.split("\n"), delimiter=",", dtype=_TRACE_ROW,
                              comments=None, ndmin=1, encoding=None)
    except (ValueError, OverflowError, Warning):
        return None
    codes = np.select([rows["action"] == action for action in ACTIONS], range(len(ACTIONS)), -1)
    if (codes < 0).any():
        return None
    return np.column_stack([codes if name == "action" else rows[name] for name in TRACE_COLUMNS])


# metadata columns are (original position, token id)
_POS = 0


class MultiState:
    """Per-layer, per-head ordered multi-state of cached K/V rows.

    The state holds one preallocated (L, H, k+1, d) float32 key buffer and one
    value buffer, an aligned (L, H, k+1, 2) int64 metadata buffer (original
    position, token id) and a size per head; head h of layer l holds its
    entries in rows 0..size-1, oldest first. Capacity k gives the bounded
    g(t)=min(t,k) regime: callers append first and policies evict afterwards,
    so a head holds k+1 entries transiently within a step, never more. The
    unbounded g(t)=t topline of a T-step run is the state with k = T. An
    entry's position is also the step it was appended at, and an eviction is
    stamped with the latest position appended to the state. Appending writes
    one row and evicting shifts the head's tail left by one in place, so
    neither allocates, and the surviving entries never reorder. `scores`
    holds H2O's `policies.AccumulatedScores`, None until the state's first
    H2O step.
    """

    def __init__(self, n_layers: int, n_heads: int, head_dim: int, capacity: int,
                 trace: RetentionTrace | None = None):
        if n_layers < 1 or n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if head_dim < 0:
            raise ValueError("head_dim must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.trace = trace
        self.scores = None
        self._sizes = [[0] * n_heads for _ in range(n_layers)]
        self._keys = np.zeros((n_layers, n_heads, capacity + 1, head_dim), dtype=np.float32)
        self._values = np.zeros(self._keys.shape, dtype=np.float32)
        self._meta = np.zeros((n_layers, n_heads, capacity + 1, 2), dtype=np.int64)
        # 1-D views of each head's rows: a left shift on them is one memmove
        self._flat = [[(self._keys[layer, head].reshape(-1),
                        self._values[layer, head].reshape(-1),
                        self._meta[layer, head].reshape(-1)) for head in range(n_heads)]
                      for layer in range(n_layers)]
        self._last_step = -1  # latest position appended: the step an eviction is stamped with

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
        meta = self._meta
        if size and position <= meta[layer, head, size - 1, _POS]:
            raise ValueError(
                f"position {position} not greater than current "
                f"maximum {meta[layer, head, size - 1, _POS]}"
            )
        if size > self.capacity:
            raise ValueError(
                f"state already holds k+1 = {size} entries at layer "
                f"{layer}, head {head}; evict before appending"
            )
        self._keys[layer, head, size] = key
        self._values[layer, head, size] = value
        meta[layer, head, size] = (position, token)
        self._sizes[layer][head] = size + 1
        if position > self._last_step:
            self._last_step = position
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
            self.trace.record(self._last_step, layer, head, ACTION_EVICT, position, token)
        d = self.head_dim
        keys[index * d:(size - 1) * d] = keys[(index + 1) * d:size * d]
        values[index * d:(size - 1) * d] = values[(index + 1) * d:size * d]
        meta_rows[2 * index:2 * (size - 1)] = meta_rows[2 * (index + 1):2 * size]
        self._sizes[layer][head] = size - 1

    def keys(self, layer: int, head: int) -> np.ndarray:
        """(size, head_dim) view of one head's cached keys, oldest first.

        The view is valid until the next append or evict on this state.
        """
        return self._keys[layer, head, :self.size(layer, head)]

    def values(self, layer: int, head: int) -> np.ndarray:
        """(size, head_dim) view of one head's cached values; see `keys`."""
        return self._values[layer, head, :self.size(layer, head)]

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
        return (self._keys[layer, :, :size], self._values[layer, :, :size],
                self._meta[layer, :, :size, _POS])

    def retained_positions(self, layer: int, head: int) -> list[int]:
        """Original positions currently cached, in list order (strictly increasing)."""
        return self._meta[layer, head, :self.size(layer, head), _POS].tolist()
