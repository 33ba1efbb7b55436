"""msrnn benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload score-sweep --seed 0 --seconds 30 --trace 0

Load model: one process, one caller, a closed loop. Each operation starts
only when the previous one has returned, the harness runs with threads=1 and
OpenBLAS with one thread. After set-up (model init and input generation,
repeated and timed), the workload runs whole passes of a fixed unit of work
until --seconds is spent. Every operation's outputs are checked; failures
are counted, never fatal. Human-readable tables go to stdout first; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 1 the metrics are the per-layer ones: a few untraced passes set
the baseline, then traced passes record spans (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 0
SETUP_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 25
ALIASES = {  # the phase-specific name each shared metric stands for, per workload
    "score-sweep": {"tok_s": "seq_tok_s", "phase2_s": "parallel grid s",
                    "step_ms_p50": "seq step p50", "step_ms_p99": "seq step p99"},
    "long-remap": {"tok_s": "remap_tok_s", "phase2_s": "generate s",
                   "step_ms_p50": "gen_step_ms_p50", "step_ms_p99": "gen_step_ms_p99"},
    "simulate-analyze": {"tok_s": "sim_steps_s", "phase2_s": "analyze_s",
                         "step_ms_p50": "sim step p50", "step_ms_p99": "sim step p99"},
}


def import_msrnn():
    """Import msrnn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import msrnn
    except ImportError as exc:
        raise SystemExit(f"error: cannot import msrnn from {src}: {exc}") from None
    if Path(msrnn.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: msrnn came from {msrnn.__file__}, not {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(),
        "load": "closed loop, one process, one caller, harness threads=1",
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(workload, seed: int, yardstick):
    """Set up at least SETUP_REPS times (and for SETUP_MIN_S of raw time).

    Returns the median scaled and raw set-up times, the repetitions and the
    last inputs.
    """
    scaled, raw, inputs = [], [], None
    while len(raw) < SETUP_REPS or (sum(raw) < SETUP_MIN_S and len(raw) < SETUP_MAX_REPS):
        inputs, seconds, at_reference, _ = yardstick.scaled(lambda: workload.setup(seed))
        raw.append(seconds)
        scaled.append(at_reference)
    return statistics.median(scaled), statistics.median(raw), len(raw), inputs


def run_passes(workload, inputs, seconds: float, clock, yardstick, tracer, reference,
               profile=None):
    """Whole passes until the next one would overrun `seconds` (at least one)."""
    from workloads import Pass
    import tracing

    passes = []
    start = time.perf_counter()
    while True:
        p = Pass(tracer=tracer, clock=clock, yardstick=yardstick, reference=reference)
        began = time.perf_counter()
        if tracer.enabled:
            tracer.clear()
            with tracing.installed(tracer):
                workload.run_pass(inputs, p)
            profile.add(tracer, p.scales)
        else:
            workload.run_pass(inputs, p)
        last = time.perf_counter() - began
        passes.append(p)
        if reference is None:
            reference = p.digests
        if time.perf_counter() - start + last > seconds:
            return passes


def end_to_end(workload, passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, plus raw figures for the record."""
    from metrics import percentile, tail_percentile

    main, second = workload.main_phase, workload.second_phase
    gaps = [gap for p in passes for gap in p.gaps]
    tail = tail_percentile(len(gaps))
    values = {
        "setup_s": setup_s,
        "tok_s": statistics.median(p.units[main] / p.phase_s[main] for p in passes),
        "phase2_s": statistics.median(p.phase_s[second] for p in passes),
        "step_ms_p50": percentile(gaps, 50) * 1e3,
        "step_ms_p99": percentile(gaps, tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(passes),
        "speed_scale_median": statistics.median(s for p in passes for s in p.scales),
        "raw_tok_s": statistics.median(p.units[main] / p.raw_s[main] for p in passes),
        "raw_phase2_s": statistics.median(p.raw_s[second] for p in passes),
        "step_samples": len(gaps),
        "step_ms_p99_percentile": tail,
        "phase_s_median": {ph: statistics.median(p.phase_s.get(ph, 0.0) for p in passes)
                           for ph in passes[0].phase_s},
        "phase_units": passes[0].units,
    }
    if workload.name == "score-sweep":
        detail["par_tok_s"] = statistics.median(p.units[second] / p.phase_s[second] for p in passes)
    return values, detail


def print_profile(profile, untraced_s: float, traced_s: float) -> None:
    from tracing import LAYERS

    print(f"\nself time per traced pass, s at reference speed (traced passes {profile.passes}; "
          f"op time untraced {untraced_s:.3f} s, traced {traced_s:.3f} s)")
    print(f"  {'span':34s} {'calls':>9s} {'self_s':>9s} {'share':>6s}")
    for name in sorted(profile.self_s, key=profile.self_s.get, reverse=True):
        own = profile.per_pass(profile.self_s[name])
        print(f"  {name:34s} {profile.per_pass(profile.calls[name]):9.0f} {own:9.4f} "
              f"{own / traced_s:6.1%}")
    phases = sorted(profile.phase_wall)
    print("\nself time per layer and phase, s per traced pass (bench = the benchmark's own glue;"
          " yardstick readings are left out)")
    print("  " + f"{'layer':10s}" + "".join(f"{ph:>12s}" for ph in phases))
    for layer in LAYERS + ("bench",):
        print("  " + f"{layer:10s}" + "".join(
            f"{profile.per_pass(profile.by_phase.get((layer, ph), 0.0)):12.4f}" for ph in phases))
    print("  " + f"{'op time':10s}" + "".join(
        f"{profile.per_pass(profile.phase_wall[ph]):12.4f}" for ph in phases))
    print("  (state.bytes_copied is computed from array sizes: 2 x size x head_dim x 4 "
          "bytes per append or evict)")


def record(path: Path, workload: str, trace: int, result: dict) -> None:
    """Merge this run's full result into a JSON trajectory file."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("runs", {}).setdefault(workload, {})[f"trace{trace}"] = result
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("score-sweep", "long-remap", "simulate-analyze"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also merge the full result into this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_msrnn()
    env = environment()
    from metrics import END_TO_END, PER_LAYER
    import tracing
    import workloads
    from msrnn import harness
    from timing import StepClock, Yardstick

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    clock = None
    checks = []   # (name, passed, problem) for run-level checks
    try:
        workload = workloads.workloads(work_dir)[args.workload]
        yardstick = Yardstick()
        setup_s, raw_setup_s, setup_reps, inputs = timed_setup(workload, args.seed, yardstick)
        clock = StepClock(harness, workload.clock_target, yardstick)
        print(f"workload {workload.name} seed {args.seed}: {workload.why}")
        print("environment " + json.dumps(env))

        if args.trace == 0:
            passes = run_passes(workload, inputs, args.seconds, clock, yardstick,
                                tracing.NullTracer(), reference=None)
            values, detail = end_to_end(workload, passes, setup_s)
            detail.update(setup_reps=setup_reps, raw_setup_s=raw_setup_s)
            units = END_TO_END
        else:
            baseline = run_passes(workload, inputs, args.seconds / 3, clock, yardstick,
                                  tracing.NullTracer(), reference=None)
            profile = tracing.Profile()
            traced = run_passes(workload, inputs, args.seconds * 2 / 3, clock, yardstick,
                                tracing.Tracer(), reference=baseline[0].digests, profile=profile)
            untraced_s = statistics.median(sum(p.phase_s.values()) for p in baseline)
            traced_s = statistics.median(sum(p.phase_s.values()) for p in traced)
            overhead = traced_s / untraced_s - 1
            print_profile(profile, untraced_s, traced_s)
            values = tracing.per_layer_metrics(profile, overhead)
            units = PER_LAYER
            detail = {"untraced_passes": len(baseline), "traced_passes": len(traced),
                      "untraced_op_s": untraced_s, "traced_op_s": traced_s}
            passes = baseline + traced
            checks.append(("traced digest", traced[0].digest() == baseline[0].digest(),
                           "traced outputs differ from untraced ones"))
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
            tracing.write_spans(spans_path, *profile.first)
            print(f"spans of the first traced pass written to {spans_path.relative_to(ROOT)}")
    finally:
        if clock is not None:
            clock.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    digest = passes[0].digest()
    if args.seed == DEFAULT_SEED:
        expected = json.loads((BENCH_DIR / "digests.json").read_text()).get(workload.name)
        checks.append(("default-seed digest", digest == expected,
                       f"digest {digest} != recorded {expected}"))
    attempted = sum(p.attempted for p in passes) + len(checks)
    failures = [f for p in passes for f in p.failures]
    failures += [(name, problem) for name, passed, problem in checks if not passed]
    failed = len(failures)

    print(f"\noutput digest {digest}")
    print(f"checks: attempted {attempted}, failed {failed}, "
          f"error_rate {failed / attempted:.4g}")
    for label, problem in failures[:20]:
        print(f"  FAILED {label}: {problem}")
    print("\nmetrics")
    alias = ALIASES[workload.name] if args.trace == 0 else {}
    for name, unit in units.items():
        also = f"  ({alias[name]})" if name in alias else ""
        print(f"  {name:36s} {values[name]:14.6g} {unit}{also}")
    print("detail " + json.dumps(detail, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.record:
        record(args.record, workload.name, args.trace,
               dict(result, seed=args.seed, seconds=args.seconds, digest=digest,
                    environment=env, detail=detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
