"""The benchmark's tracing patches call sites by name: every (owner,
attribute) that `bench/tracing.py` wraps must exist on the owner itself, or
a traced benchmark run fails only after a whole workload. Its counter hooks
read the wrapped calls' arguments and results, so a signature change must
fail here too, not only in a traced benchmark run. Each workload's step
clock times the gaps between returns of one harness function, which must
run once per step, or the workload takes no latency samples."""

import importlib
import sys
from collections import Counter
from pathlib import Path

from msrnn import cli, harness, parse_policy, uniform_rule
from msrnn.state import RetentionTrace

from conftest import make_model, make_stream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _import_bench(monkeypatch, module):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracing", "timing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module(module)


def test_traced_call_sites_resolve(monkeypatch):
    targets = _import_bench(monkeypatch, "tracing")._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert targets and not missing


def test_tracing_hooks_run_on_every_mode(monkeypatch, tmp_path):
    tracing = _import_bench(monkeypatch, "tracing")
    model = make_model(seed=3)
    stream = make_stream(model, 12, 12)
    trace = RetentionTrace(model.config.n_layers, model.config.n_heads)
    with tracing.installed(tracing.Tracer()) as tracer:
        harness.sequential_perplexity(model, stream, parse_policy("h2o-head", k=4), trace=trace)
        harness.sequential_perplexity(model, stream, parse_policy("tova-layer", k=4))
        harness.generate(model, stream.ids[:4], 4, parse_policy("window", k=3), remap=True)
        script, _ = harness.simulate_with_rule(uniform_rule, parse_policy("window", k=3), 6)
        harness.trace_driven_simulate(script, parse_policy("h2o-layer", k=3))
        trace.retained_sets(0, 0)
        trace.write_csv(tmp_path / "trace.csv")
        assert cli.main(["analyze", "lifetime", "--trace", str(tmp_path / "trace.csv"),
                         "--out-dir", str(tmp_path)]) == 0
    calls = Counter(span[0] for span in tracer.spans)
    for name in ("state.append", "state.evict", "policies.decide_layer", "model.rotate",
                 "state.retained_sets", "policies.scores", "cli.main"):
        assert calls[name], name
    assert tracer.counters["state.bytes_copied"] and tracer.counters["policies.evictions"]


def test_step_clocks_tick_once_per_step(monkeypatch, tmp_path):
    workloads = _import_bench(monkeypatch, "workloads").workloads(tmp_path)
    model = make_model(seed=3)
    stream = make_stream(model, 20, 10)
    policies = ("window+1", "h2o-head", "tova-layer", "none")
    scripts = {policy: harness.simulate_with_rule(uniform_rule, parse_policy(policy, k=3), 9,
                                                  n_layers=2, n_heads=2)[0]
               for policy in policies}
    runs = {
        "score-sweep": [(lambda kind: harness.sequential_perplexity(model, stream, kind), 20)],
        "long-remap": [
            (lambda kind: harness.sequential_perplexity(model, stream, kind, remap=True), 20),
            (lambda kind: harness.generate(model, stream.ids[:4], 6, kind, remap=True), 10)],
        "simulate-analyze": [(lambda kind: harness.trace_driven_simulate(
            scripts[kind.name if kind else "none"], kind), 9)],
    }
    assert set(runs) == set(workloads)
    for name, calls in runs.items():
        target = workloads[name].clock_target
        for run, steps in calls:
            for policy in policies:
                ticks = []
                with monkeypatch.context() as patch:
                    inner = getattr(harness, target)
                    patch.setattr(harness, target,
                                  lambda *a, **kw: ticks.append(1) or inner(*a, **kw))
                    run(parse_policy(policy, k=3))
                assert len(ticks) == steps, (name, target, policy)
