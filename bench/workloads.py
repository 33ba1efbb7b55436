"""The benchmark's three workloads over the public msrnn API.

Every workload builds its inputs from the seed alone, then runs whole passes
of a fixed unit of work. A pass is a list of operations (a sweep cell, a
scored chunk, a generate call, a replay, an analysis); each is timed on its
own, checked for correctness afterwards, and hashed so that later passes, the
traced run and later commits can prove they produced the same outputs.

All three use the 4-layer, 4-head, 16-dim toy model (ff 128, vocab 256) and
call msrnn through module attributes (`harness.generate`, `cli.main`, ...)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from msrnn import cli, harness
from msrnn.model import Model, ModelConfig, init_random_model
from msrnn.policies import parse_policy
from msrnn.state import ACTION_APPEND, RetentionTrace
from timing import StepClock, Yardstick

N_LAYERS, N_HEADS, HEAD_DIM, FF_DIM, VOCAB = 4, 4, 16, 128, 256
PPL_TOL = 1e-4


def toy_model(seed: int, train_context_len: int) -> Model:
    config = ModelConfig(n_layers=N_LAYERS, n_heads=N_HEADS, head_dim=HEAD_DIM,
                         hidden_dim=N_HEADS * HEAD_DIM, ff_dim=FF_DIM,
                         vocab_size=VOCAB, train_context_len=train_context_len)
    return Model(config, init_random_model(config, seed))


def random_tokens(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, VOCAB, n))


# ---------------------------------------------------------------------------
# one pass: timings, step gaps, verdicts


@dataclass
class Pass:
    """What one pass measured and found.

    Phase times and step gaps are scaled to reference host speed by the
    yardstick (see timing.py); `raw_s` keeps the unscaled phase times.
    """

    tracer: object
    clock: StepClock
    yardstick: Yardstick
    reference: dict | None = None          # label -> digest from the first pass
    phase_s: dict = field(default_factory=dict)
    raw_s: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    gaps: list = field(default_factory=list)
    scales: list = field(default_factory=list)   # per op: scaled over raw time
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)  # (label, problem)

    def op(self, phase: str, label: str, fn, units: int = 0, skip_gaps: int | None = None):
        """Run fn as one timed operation; returns (result, error text or None).

        With `skip_gaps` set, the step clock's gaps after the first `skip_gaps`
        are kept as latency samples, except those right after a yardstick
        reading.
        """

        def call():
            with self.tracer.op(phase, label):
                try:
                    return fn(), None
                except Exception:  # a failed operation is recorded and the run goes on
                    return None, traceback.format_exc(limit=3).strip().splitlines()[-1]

        (result, error), raw, scaled, scales = self.yardstick.scaled(call, self.clock)
        self.scales.append(scaled / raw)
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + scaled
        self.raw_s[phase] = self.raw_s.get(phase, 0.0) + raw
        self.units[phase] = self.units.get(phase, 0) + units
        if skip_gaps is not None and error is None:
            self.gaps.extend(gap * scales[segment]
                             for gap, segment, after_read in self.clock.gaps[skip_gaps:]
                             if not after_read)
        return result, error

    def verdict(self, label: str, problems: list[str], outputs: list[bytes]) -> None:
        """Count one checked operation; outputs are its discrete results."""
        digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
        if self.reference is not None and self.reference.get(label) != digest:
            problems = problems + ["outputs differ from the first pass"]
        self.digests[label] = digest
        self.attempted += 1
        if problems:
            self.failures.append((label, "; ".join(problems)))

    def digest(self) -> str:
        joined = "\n".join(f"{label} {d}" for label, d in self.digests.items())
        return hashlib.sha256(joined.encode()).hexdigest()


def events_bytes(trace: RetentionTrace) -> bytes:
    return "\n".join(f"{e.step},{e.layer},{e.head},{e.action},{e.original_position},"
                     f"{e.token_id}" for e in trace.sorted_events()).encode()


def size_problems(trace: RetentionTrace, steps: int, k: int | None) -> list[str]:
    """Check that every (layer, head) retains min(t+1, k) states after step t."""
    sizes = [[0] * trace.n_heads for _ in range(trace.n_layers)]
    seen = []
    bad = 0

    def close(t: int) -> int:
        want = t + 1 if k is None else min(t + 1, k)
        return sum(s != want for row in sizes for s in row)

    for ev in trace.sorted_events():
        if not seen or ev.step != seen[-1]:
            if seen:
                bad += close(seen[-1])
            seen.append(ev.step)
        sizes[ev.layer][ev.head] += 1 if ev.action == ACTION_APPEND else -1
    if seen:
        bad += close(seen[-1])
    problems = []
    if seen != list(range(steps)):
        problems.append(f"trace covers steps {seen[:1]}..{seen[-1:]}, not 0..{steps - 1}")
    if bad:
        problems.append(f"{bad} (layer, head, step) sizes differ from min(t+1, k)")
    return problems


def _err(error: str | None) -> list[str]:
    return [] if error is None else [error]


# ---------------------------------------------------------------------------
# score-sweep: sequential vs masked-parallel scoring over a policy grid


class ScoreSweep:
    name = "score-sweep"
    why = ("the researcher's policy x k sweep; model math dominates and it is the "
           "only workload that runs the masked-parallel evaluator")
    GRID = tuple((p, k) for p in ("window", "window+4", "h2o-head", "tova-layer")
                 for k in (16, 64))
    CHUNK = 128
    clock_target = "decode_step"   # harness attribute called once per step
    main_phase, second_phase = "sequential", "parallel"

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        model = toy_model(seed, train_context_len=self.CHUNK)
        stream = harness.TokenStream(ids=random_tokens(rng, self.CHUNK), chunk_len=self.CHUNK)
        return model, stream

    def run_pass(self, inputs, p: Pass) -> None:
        model, stream = inputs
        scored = len(stream.ids) - 1
        for policy, k in self.GRID:
            kind = parse_policy(policy, k)
            label = f"{policy}/k{k}"
            seq_trace = RetentionTrace(N_LAYERS, N_HEADS)
            par_trace = RetentionTrace(N_LAYERS, N_HEADS)
            seq, seq_err = p.op("sequential", label + "/seq", lambda: harness.sequential_perplexity(
                model, stream, kind, trace=seq_trace), units=scored, skip_gaps=0)
            par, par_err = p.op("parallel", label + "/par", lambda: harness.masked_parallel_perplexity(
                model, stream, kind, trace=par_trace), units=scored)
            problems = _err(seq_err) + _err(par_err)
            if not problems:
                if not abs(seq.perplexity - par.perplexity) <= PPL_TOL:
                    problems.append(f"|dPPL| {abs(seq.perplexity - par.perplexity):.3g} > {PPL_TOL}")
                if seq_trace.sorted_events() != par_trace.sorted_events():
                    problems.append("sequential and parallel traces differ")
                problems += size_problems(seq_trace, self.CHUNK, k)
            p.verdict(label, problems, [events_bytes(seq_trace), events_bytes(par_trace)])
        trace = RetentionTrace(N_LAYERS, N_HEADS)
        top, err = p.op("sequential", "none", lambda: harness.sequential_perplexity(
            model, stream, None, trace=trace), units=scored, skip_gaps=0)
        problems = _err(err)
        if not problems:
            if not math.isfinite(top.perplexity):
                problems.append("topline perplexity is not finite")
            problems += size_problems(trace, self.CHUNK, None)
        p.verdict("none", problems, [events_bytes(trace)])


# ---------------------------------------------------------------------------
# long-remap: decoding past the trained context with gap remapping


class LongRemap:
    name = "long-remap"
    why = ("scores and generates past the trained context with remap=True; the "
           "only workload that runs remap, once per head under head-wise policies")
    POLICIES = ("window", "h2o-head", "tova-layer")
    K = 64
    TRAIN_CONTEXT = 64
    CHUNK = 1024
    # Two random prompts per policy: greedy decoding from one prompt can fall
    # into a loop in which the h2o heads never diverge, which changes the
    # remap work per step by 3x from seed to seed.
    PROMPTS = 2
    PROMPT = 32
    # 3 policies x 2 prompts x 200 gaps, less the ~5% that follow a yardstick
    # reading: over 1000 per pass, so >= 10 samples lie beyond p99
    GEN_STEPS = 200
    clock_target = "decode_step"
    main_phase, second_phase = "remap", "generate"

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        model = toy_model(seed, train_context_len=self.TRAIN_CONTEXT)
        stream = harness.TokenStream(ids=random_tokens(rng, self.CHUNK), chunk_len=self.CHUNK)
        prompts = [list(random_tokens(rng, self.PROMPT)) for _ in range(self.PROMPTS)]
        return model, stream, prompts

    def run_pass(self, inputs, p: Pass) -> None:
        model, stream, prompts = inputs
        for policy in self.POLICIES:
            kind = parse_policy(policy, self.K)
            trace = RetentionTrace(N_LAYERS, N_HEADS)
            report, err = p.op("remap", f"{policy}/score", lambda: harness.sequential_perplexity(
                model, stream, kind, remap=True, trace=trace), units=self.CHUNK - 1)
            problems = _err(err)
            if not problems:
                if not math.isfinite(report.perplexity):
                    problems.append("perplexity is not finite")
                problems += size_problems(trace, self.CHUNK, self.K)
            p.verdict(f"{policy}/score", problems, [events_bytes(trace)])
        for policy in self.POLICIES:
            kind = parse_policy(policy, self.K)
            for i, prompt in enumerate(prompts):
                label = f"{policy}/generate{i}"
                trace = RetentionTrace(N_LAYERS, N_HEADS)
                tokens, err = p.op("generate", label, lambda: harness.generate(
                    model, prompt, self.GEN_STEPS, kind, remap=True, trace=trace),
                    units=self.GEN_STEPS, skip_gaps=self.PROMPT - 1)
                problems = _err(err)
                if not problems:
                    if len(tokens) != self.PROMPT + self.GEN_STEPS or tokens[:self.PROMPT] != prompt:
                        problems.append("output is not the prompt plus max_steps tokens")
                    if not all(0 <= t < VOCAB for t in tokens):
                        problems.append("generated token out of vocabulary")
                    problems += size_problems(trace, self.PROMPT + self.GEN_STEPS, self.K)
                p.verdict(label, problems,
                          [",".join(map(str, tokens or [])).encode(), events_bytes(trace)])


# ---------------------------------------------------------------------------
# simulate-analyze: model-free replay, then the CLI analyses of its trace


def dyadic_row(weights: np.ndarray) -> np.ndarray:
    """Probabilities in multiples of 2**-20, so the float32 sum is exactly 1."""
    scale = float(1 << 20)
    counts = np.floor(weights / weights.sum() * scale)
    counts[int(np.argmax(counts))] += scale - counts.sum()
    return (counts / scale).astype(np.float32)


class SimulateAnalyze:
    name = "simulate-analyze"
    why = ("no model math: replays seeded scripts through the policies, then "
           "writes the trace CSV and runs the four CLI analyses on it")
    POLICIES = ("window+4", "h2o-head", "tova-layer")
    ANALYZED = "h2o-head"
    K = 64
    # 3 replays x 383 gaps, less the few that follow a yardstick reading:
    # over 1000 per pass, so >= 10 samples lie beyond p99
    STEPS = 384
    TAGS = ("NOUN", "VERB", "ADJ", "DET", "PUNCT")
    clock_target = "apply_policy"
    main_phase, second_phase = "simulate", "analyze"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        weights = rng.exponential(size=(self.STEPS, N_LAYERS, N_HEADS, self.K + 1))

        def rule(t, layer, head, retained):
            return dyadic_row(weights[t, layer, head, :len(retained)])

        scripts = {}
        for policy in self.POLICIES:
            kind = parse_policy(policy, self.K)
            script, reference = harness.simulate_with_rule(rule, kind, self.STEPS,
                                                           N_LAYERS, N_HEADS)
            scripts[policy] = (kind, script, reference)
        tags = rng.integers(0, len(self.TAGS), self.STEPS)
        tag_path = self.work_dir / "tags.tsv"
        tag_path.write_text("".join(f"{pos}\t{self.TAGS[t]}\n" for pos, t in enumerate(tags)))
        return scripts, tag_path

    def run_pass(self, inputs, p: Pass) -> None:
        scripts, tag_path = inputs
        traces = {}
        for policy, (kind, script, reference) in scripts.items():
            trace, err = p.op("simulate", f"{policy}/replay", lambda: harness.trace_driven_simulate(
                script, kind), units=self.STEPS, skip_gaps=0)
            problems = _err(err)
            if not problems:
                if trace.events != reference.events:
                    problems.append("replay trace differs from the simulate_with_rule trace")
                problems += size_problems(trace, self.STEPS, self.K)
                traces[policy] = trace
            p.verdict(f"{policy}/replay", problems, [events_bytes(trace) if trace else b""])
        trace = traces.get(self.ANALYZED)
        trace_path = self.work_dir / "trace.csv"
        _, err = p.op("write", "write-trace", lambda: trace.write_csv(trace_path))
        p.verdict("write-trace", _err(err), [trace_path.read_bytes() if err is None else b""])
        out = self.work_dir / "analyze"
        common = ["--trace", str(trace_path), "--out-dir", str(out)]
        runs = {
            "retention": (["analyze", "retention", "--layer", "0"] + common, "matrix.csv"),
            "lifetime": (["analyze", "lifetime"] + common, "lifetime.csv"),
            "tags": (["analyze", "tags", "--tags", str(tag_path)] + common, "tags.csv"),
            "recent": (["analyze", "recent", "--k", str(self.K)] + common, "recent.txt"),
        }
        for what, (argv, output) in runs.items():
            code, err = p.op("analyze", f"analyze-{what}", lambda: cli.main(argv))
            problems = _err(err)
            if not problems and code != 0:
                problems.append(f"msrnn analyze {what} exited {code}")
            path = out / output
            data = path.read_bytes() if not problems and path.exists() else b""
            if not problems and not data:
                problems.append(f"analyze {what} wrote no {output}")
            if not problems and what == "retention" and p.reference is None:
                problems += self._matrix_problems(data)
            p.verdict(f"analyze-{what}", problems, [data])

    def _matrix_problems(self, data: bytes) -> list[str]:
        # each row of the head-mean matrix holds min(t+1, k) retained states
        rows = data.decode().splitlines()[1:]
        bad = sum(abs(sum(float(v) for v in row.split(",")[1:]) - min(t + 1, self.K)) > 1e-3
                  for t, row in enumerate(rows))
        if len(rows) != self.STEPS or bad:
            return [f"retention matrix has {len(rows)} rows, {bad} with a wrong retained count"]
        return []


def workloads(work_dir: Path) -> dict:
    return {w.name: w for w in (ScoreSweep(), LongRemap(), SimulateAnalyze(work_dir))}
