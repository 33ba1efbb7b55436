"""Retention analyses over trace lifespans, plus the cache memory model.

Retention matrices mirror the kept/dropped figures (rows = steps, columns =
original positions), lifetimes measure how long positions survive, tag tables
aggregate them per label, and the memory report is the closed-form footprint.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .state import RetentionTrace, write_csv_rows

UNKNOWN_TAG = "UNK"
AVERAGE_ROW = "Avg."
GIGABYTE = 1e9


def retention_matrix(trace: RetentionTrace, layer: int,
                     head: int | None = None) -> np.ndarray:
    """Steps-by-positions retention matrix for one layer.

    Cell (t, p) is 1.0 when position p is retained after step t's events.
    With `head=None` the matrix is the mean over heads (fractional cells for
    head-wise policies).
    """
    if head is not None and not (0 <= head < trace.n_heads):
        raise ValueError(f"head {head} out of range for {trace.n_heads}")
    grid = trace.retained_grid(layer)
    heads = grid if head is None else grid[head:head + 1]
    return heads.sum(axis=0, dtype=np.int32) / len(heads)


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    write_csv_rows(path, ["step"] + [str(p) for p in range(matrix.shape[1])],
                   [(np.arange(len(matrix))[:, None], str),
                    (np.asarray(matrix, dtype=np.float64), "{:.6g}".format)])


def write_matrix_pgm(matrix: np.ndarray, path: str) -> None:
    """Binary PGM, one byte per cell: 255 = always retained, 0 = never."""
    cells = np.clip(np.rint(matrix * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{cells.shape[1]} {cells.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(cells.tobytes())


def token_lifetime(trace: RetentionTrace) -> dict[int, float]:
    """Mean steps retained per original position, averaged over layers and heads:
    an appearance lives from its append step to its evict step, or to n_steps."""
    _, _, positions, starts, ends = trace.lifespans()
    distinct, index = np.unique(positions, return_inverse=True)
    means = np.bincount(index, weights=ends - starts) / np.bincount(index)
    return dict(zip(distinct.tolist(), means.tolist()))


def read_tag_file(path: str) -> dict[int, str]:
    """Tab-separated position/tag pairs; positions must be unique."""
    tags: dict[int, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'position<TAB>tag'")
            try:
                position = int(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad position {parts[0]!r}") from None
            if position in tags:
                raise ValueError(f"{path}:{lineno}: duplicate position {position}")
            tags[position] = parts[1]
    return tags


def lifetime_by_tag(trace: RetentionTrace,
                    tags: dict[int, str]) -> list[tuple[str, float]]:
    """Mean lifetime per tag, sorted descending, with a leading global-average row.

    Positions missing from the tag map fall into the UNK bucket.
    """
    lifetimes = token_lifetime(trace)
    buckets: dict[str, list[float]] = {}
    for position, life in lifetimes.items():
        buckets.setdefault(tags.get(position, UNKNOWN_TAG), []).append(life)
    rows = [(tag, sum(vals) / len(vals)) for tag, vals in buckets.items()]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return [(AVERAGE_ROW, sum(lifetimes.values()) / len(lifetimes))] + rows


def recent_proportion(trace: RetentionTrace, k: int, exclude_prefix: int = 0) -> float:
    """Fraction of retained states that are recent (original_position > t - k).

    Counted over every step, layer, and head after that step's evictions.
    `exclude_prefix` drops positions below it from the count, which makes the
    pinned-prefix window variants comparable to plain windows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if exclude_prefix < 0:
        raise ValueError(f"excluded prefix must be >= 0, got {exclude_prefix}")
    _, _, positions, starts, ends = trace.lifespans()
    kept = positions >= exclude_prefix
    total = int((ends - starts)[kept].sum())
    if total == 0:
        raise ValueError("trace retains nothing outside the excluded prefix")
    # retained over steps [start, end), position p is recent while t < p + k
    recent = int(np.maximum(np.minimum(ends, positions + k) - starts, 0)[kept].sum())
    return recent / total


@dataclass(frozen=True)
class MemoryReport:
    """Closed-form multi-state footprint: K and V rows for every layer and head.

    Counts the K/V rows only, with no fixed per-sequence overhead such as
    allocator slack or non-KV buffers.
    """

    n_layers: int
    n_heads: int
    head_dim: int
    state_size: int
    bytes_per_element: int
    total_bytes: int
    gigabytes: float
    max_batch: int | None


def memory_report(n_layers: int, n_heads: int, head_dim: int, state_size: int,
                  bytes_per_element: int, budget_bytes: int | None = None) -> MemoryReport:
    """bytes = 2 * n_layers * n_heads * head_dim * state_size * bytes_per_element.

    Exactly linear in every factor, so state_size 0 is a valid empty cache
    costing 0 bytes; `max_batch` is how many such states fit in the budget
    (undefined for an empty cache). Only K/V rows are counted: no fixed
    per-sequence overhead such as allocator slack or non-KV buffers. Figures
    measured in practice carry such an offset, about 15 MB in the 32x32x128
    reference row, so compare against their slope, not their raw values.
    """
    for name, value in (("n_layers", n_layers), ("n_heads", n_heads),
                        ("head_dim", head_dim),
                        ("bytes_per_element", bytes_per_element)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if state_size < 0:
        raise ValueError("state_size must be >= 0")
    total = 2 * n_layers * n_heads * head_dim * state_size * bytes_per_element
    max_batch = None
    if budget_bytes is not None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        max_batch = budget_bytes // total if total > 0 else None
    return MemoryReport(n_layers=n_layers, n_heads=n_heads, head_dim=head_dim,
                        state_size=state_size, bytes_per_element=bytes_per_element,
                        total_bytes=total, gigabytes=total / GIGABYTE,
                        max_batch=max_batch)


def write_memory_csv(reports: list[MemoryReport], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_size", "bytes", "gigabytes", "max_batch"])
        for r in reports:
            batch = "" if r.max_batch is None else str(r.max_batch)
            writer.writerow([r.state_size, r.total_bytes, f"{r.gigabytes:.6g}", batch])
