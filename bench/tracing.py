"""Outside-in span tracing of the msrnn layers.

Tracing wraps public functions and methods by patching the attribute their
caller looks up (for example both `msrnn.model.rotate` and
`msrnn.harness.rotate`), so nothing under `src/` changes and the untraced
program runs exactly as shipped. Spans are kept in memory as
(name, start, end, parent, op) tuples and written out when the run ends.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "bench.op"
YARDSTICK = "bench.yardstick"
LAYERS = ("model", "state", "policies", "remap", "harness", "analysis", "cli")


class Tracer:
    """In-memory span log for one traced pass.

    `parent` and `op` are indices into `spans` and `ops`; -1 means none. Each
    benchmark operation (sweep cell, chunk, generate call, analysis) opens a
    root span, and every wrapped call inside it records a child span.
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.ops: list[tuple[str, str]] = []   # (phase, label)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op = -1

    def clear(self) -> None:
        self.spans.clear()
        self.ops.clear()
        self.counters.clear()
        del self._stack[1:]
        self._op = -1

    @contextmanager
    def op(self, phase: str, label: str):
        self.ops.append((phase, label))
        self._op = len(self.ops) - 1
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, ROOT, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1], self._op)

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1], self._op)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class NullTracer:
    """Stand-in used with tracing off: operations open no spans."""

    enabled = False

    @contextmanager
    def op(self, phase: str, label: str):
        yield


# ---------------------------------------------------------------------------
# counters computed at the layer boundary


def _rotated_rows(counters, args, result) -> None:
    vecs = args[0]
    counters["model.rotate.rows"] += vecs.size // vecs.shape[-1]


def _bytes_copied(counters, args, result) -> None:
    # append and evict rebuild the key and value arrays of one head whole
    state, layer, head = args[:3]
    counters["state.bytes_copied"] += 2 * state.size(layer, head) * state.head_dim * 4


def _evictions(counters, args, result) -> None:
    counters["policies.evictions"] += sum(idx is not None for idx in result)
    counters["policies.decided_heads"] += len(result)


def _events_scanned(counters, args, result) -> None:
    counters["analysis.events_scanned"] += len(args[0].events)


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped call site."""
    from msrnn import analysis, cli, harness, model, policies, state
    from timing import Yardstick

    ms, rt, acc = state.MultiState, state.RetentionTrace, policies.AccumulatedScores
    return [
        (model, "decode_step", "model.decode_step", None),
        (harness, "decode_step", "model.decode_step", None),
        (model, "rotate", "model.rotate", _rotated_rows),
        (harness, "rotate", "model.rotate", _rotated_rows),
        (model, "attention_step", "model.attention_step", None),
        (harness, "attention_step", "model.attention_step", None),
        (model, "rms_norm", "model.rms_norm", None),
        (harness, "rms_norm", "model.rms_norm", None),
        (ms, "append", "state.append", _bytes_copied),
        (ms, "evict", "state.evict", _bytes_copied),
        (ms, "retained_positions", "state.retained_positions", None),
        (rt, "record", "state.trace_record", None),
        (rt, "retained_sets", "state.retained_sets", _events_scanned),
        (rt, "write_csv", "state.trace_csv", None),
        (rt, "read_csv", "state.trace_csv", None),
        (policies, "apply_policy", "policies.apply_policy", None),
        (harness, "apply_policy", "policies.apply_policy", None),
        (policies, "decide_layer", "policies.decide_layer", _evictions),
        (harness, "decide_layer", "policies.decide_layer", _evictions),
        (acc, "accumulate", "policies.scores", None),
        (acc, "drop", "policies.scores", None),
        (harness, "accumulate_row", "policies.scores", None),
        (harness, "remap_positions", "remap.remap_positions", None),
        (harness, "sequential_perplexity", "harness.sequential", None),
        (harness, "masked_parallel_perplexity", "harness.masked_parallel", None),
        (harness, "generate", "harness.generate", None),
        (harness, "trace_driven_simulate", "harness.simulate", None),
        (cli, "retention_matrix", "analysis.retention_matrix", None),
        (cli, "token_lifetime", "analysis.token_lifetime", None),
        (analysis, "token_lifetime", "analysis.token_lifetime", None),
        (cli, "lifetime_by_tag", "analysis.lifetime_by_tag", None),
        (cli, "recent_proportion", "analysis.recent_proportion", None),
        (cli, "main", "cli.main", None),
        (Yardstick, "measure", YARDSTICK, None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every target with a span-recording wrapper; restore on exit."""
    undo = []
    try:
        for owner, attr, name, hook in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(name, original.__func__, hook))
            else:
                patched = tracer.wrap(name, original, hook)
            undo.append((owner, attr, original))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self time


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct child spans.

    Spans come from one caller with a strict call stack, so children neither
    overlap one another nor outlive their parent.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Profile:
    """Calls and self time (at reference speed) per span name, summed over traced passes."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_phase: dict[tuple[str, str], float] = defaultdict(float)  # (layer, phase)
        self.phase_wall: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.passes = 0
        self.first: tuple[list, list] | None = None   # spans and ops of the first pass

    def add(self, tracer: Tracer, scales: list[float]) -> None:
        """Fold in one traced pass; `scales[op]` converts op times to reference speed."""
        self.passes += 1
        if self.first is None:
            self.first = (list(tracer.spans), list(tracer.ops))
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            name, start, end, parent, op = span
            if parent < 0 and name != ROOT:
                continue   # a yardstick reading between operations
            scale = scales[op]
            phase = tracer.ops[op][0]
            if name == YARDSTICK:
                # a reading inside an operation: its time is not operation time
                self.phase_wall[phase] -= (end - start) * scale
                continue
            self.calls[name] += 1
            self.self_s[name] += own * scale
            self.by_phase[(layer_of(name), phase)] += own * scale
            if name == ROOT:
                self.phase_wall[phase] += (end - start) * scale
        for key, value in tracer.counters.items():
            self.counters[key] += value

    def per_pass(self, value: float) -> float:
        return value / self.passes if self.passes else 0.0


def write_spans(path, spans, ops) -> None:
    """One JSON array per span: index, name, start, end, parent, phase, op label."""
    with gzip.open(path, "wt") as fh:
        for index, (name, start, end, parent, op) in enumerate(spans):
            phase, label = ops[op]
            fh.write(f'[{index}, "{name}", {start!r}, {end!r}, {parent}, "{phase}", "{label}"]\n')


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return prefix if prefix in LAYERS else "bench"


def per_layer_metrics(profile: Profile, overhead_frac: float) -> dict[str, float]:
    """Values for every PER_LAYER metric, per traced pass."""
    from metrics import PER_LAYER

    calls, own, counters = profile.calls, profile.self_s, profile.counters
    decided = counters.get("policies.decided_heads", 0)
    tokens = calls.get("model.decode_step", 0)
    derived = {
        "model.rotate.rows": profile.per_pass(counters.get("model.rotate.rows", 0)),
        "state.bytes_copied": profile.per_pass(counters.get("state.bytes_copied", 0)),
        "policies.evict_ratio": counters.get("policies.evictions", 0) / decided if decided else 0.0,
        "remap.calls_per_token": calls.get("remap.remap_positions", 0) / tokens if tokens else 0.0,
        "analysis.events_scanned": profile.per_pass(counters.get("analysis.events_scanned", 0)),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = profile.per_pass(calls.get(name[:-len(".calls")], 0))
        elif name.endswith(".self_s"):
            out[name] = profile.per_pass(own.get(name[:-len(".self_s")], 0.0))
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return out
