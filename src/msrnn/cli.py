"""Command-line front end.

Subcommands: perplexity, perplexity-parallel, generate, simulate-trace,
analyze (retention | lifetime | tags | recent), memory-report. A flat
key/value config file can pre-set any flag; explicit flags override it.
Outputs are deterministic: identical inputs produce byte-identical files
(floats fixed to 6 significant digits).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .analysis import (lifetime_by_tag, memory_report, read_tag_file,
                       recent_proportion, retention_matrix, token_lifetime,
                       write_matrix_csv, write_matrix_pgm, write_memory_csv)
from .harness import (PerplexityReport, ScriptedTrace, TokenStream, generate,
                      masked_parallel_perplexity, read_token_stream,
                      sequential_perplexity, trace_driven_simulate,
                      write_token_stream)
from .model import Model, ModelConfig, init_random_model, load_weights
from .policies import PolicyKind, parse_policy
from .state import RetentionTrace

MODEL_DEFAULTS = {
    "n_layers": 4,
    "n_heads": 4,
    "head_dim": 16,
    "ff_dim": 128,
    "vocab_size": 256,
    "train_context_len": 64,
    "rope_base": 10000.0,
}


class CliError(ValueError):
    """User-facing error: printed as one machine-parseable line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(f"usage: {message}")


@dataclass
class RunConfig:
    """Merged view of flags and config-file entries for one invocation."""

    command: str
    analyze_what: str | None
    model_path: str | None
    seed: int | None
    stream: str | None
    policy: str
    k: int | None
    pin: int | None
    chunk_len: int | None
    remap: bool
    truncate: bool
    trace_out: str | None
    out_dir: str
    script: str | None
    trace_in: str | None
    tag_file: str | None
    layer: int
    head: int | None
    max_steps: int
    model_fields: dict
    mem_layers: int
    mem_heads: int
    mem_head_dim: int
    mem_state_sizes: list[int]
    mem_bytes_per_element: int
    mem_budget: int | None

    def policy_kind(self) -> PolicyKind | None:
        if self.policy != "none" and self.k is None:
            raise CliError("policy: --k is required when a policy is set")
        kind = parse_policy(self.policy, self.k if self.k is not None else 1, self.pin)
        if kind is None and self.pin:
            raise CliError("policy: --pin given but policy is none")
        return kind


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(f"config: cannot read {path}: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config: {path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise CliError(f"config: {path}:{lineno}: empty key or value")
        if key in values:
            raise CliError(f"config: {path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _coerce(field: str, value, kind: str):
    if value is None or not isinstance(value, str):
        return value
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
    except ValueError:
        raise CliError(f"config: field {field!r} has bad {kind} value {value!r}") from None
    return value


_FIELD_TYPES = {
    "seed": "int", "k": "int", "pin": "int", "chunk_len": "int", "layer": "int",
    "head": "int", "max_steps": "int", "remap": "bool",
    "truncate": "bool", "mem_layers": "int", "mem_heads": "int",
    "mem_head_dim": "int", "mem_bytes_per_element": "int", "mem_budget": "int",
}


def _merge(field: str, cli_value, file_values: dict, default):
    if cli_value is not None:
        return cli_value
    if field in file_values:
        return _coerce(field, file_values[field], _FIELD_TYPES.get(field, "str"))
    return default


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="weight file to load")
    parser.add_argument("--config", help="flat key/value config file; flags override it")
    parser.add_argument("--seed", type=int, help="seed for an on-the-fly toy model")
    parser.add_argument("--stream", help="token stream file, one id per line")
    parser.add_argument("--policy", help="eviction policy "
                        "(window | window+i | h2o-head | h2o-layer | tova-head | "
                        "tova-layer | tova-layer+i | none)")
    parser.add_argument("--k", type=int, help="multi-state capacity")
    parser.add_argument("--pin", type=int, help="pinned prefix size for +i policies")
    parser.add_argument("--chunk-len", type=int, dest="chunk_len",
                        help="independent-chunk length for perplexity")
    parser.add_argument("--remap", action="store_true", default=None,
                        help="compress position gaps beyond the trained length")
    parser.add_argument("--truncate", action="store_true", default=None,
                        help="keep only the first k stream tokens before decoding")
    parser.add_argument("--trace-out", dest="trace_out",
                        help="write the retention trace CSV here")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msrnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("perplexity", "perplexity-parallel"):
        p = sub.add_parser(name)
        _shared_flags(p)

    p = sub.add_parser("generate")
    _shared_flags(p)
    p.add_argument("--max-steps", type=int, dest="max_steps",
                   help="greedy tokens to decode after the prompt")

    p = sub.add_parser("simulate-trace")
    _shared_flags(p)
    p.add_argument("--script", help="scripted probability trace CSV")

    p = sub.add_parser("analyze")
    p.add_argument("what", choices=["retention", "lifetime", "tags", "recent"])
    _shared_flags(p)
    p.add_argument("--trace", dest="trace_in", help="retention trace CSV to analyze")
    p.add_argument("--tags", dest="tag_file", help="position<TAB>tag file")
    p.add_argument("--layer", type=int, help="layer for the retention matrix")
    p.add_argument("--head", type=int, help="head for the retention matrix (default: mean)")

    p = sub.add_parser("memory-report")
    _shared_flags(p)
    p.add_argument("--layers", type=int, dest="mem_layers")
    p.add_argument("--heads", type=int, dest="mem_heads")
    p.add_argument("--head-dim", type=int, dest="mem_head_dim")
    p.add_argument("--state-sizes", dest="mem_state_sizes",
                   help="comma-separated multi-state sizes")
    p.add_argument("--bytes-per-element", type=int, dest="mem_bytes_per_element")
    p.add_argument("--budget", type=int, dest="mem_budget",
                   help="memory budget in bytes for the max-batch column")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Parse argv and the optional config file into one validated RunConfig."""
    args = build_parser().parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    def get(field: str, default=None):
        return _merge(field, getattr(args, field, None), file_values, default)

    model_fields = {}
    for name, default in MODEL_DEFAULTS.items():
        raw = file_values.get(name, default)
        kind = "float" if name == "rope_base" else "int"
        model_fields[name] = _coerce(name, raw, kind)

    state_sizes_raw = get("mem_state_sizes")
    if isinstance(state_sizes_raw, str):
        try:
            state_sizes = [int(s) for s in state_sizes_raw.split(",") if s.strip()]
        except ValueError:
            raise CliError(f"memory: bad --state-sizes value {state_sizes_raw!r}") from None
    else:
        state_sizes = state_sizes_raw or []

    cfg = RunConfig(
        command=args.command,
        analyze_what=getattr(args, "what", None),
        model_path=get("model"),
        seed=get("seed"),
        stream=get("stream"),
        policy=get("policy", "none"),
        k=get("k"),
        pin=get("pin"),
        chunk_len=get("chunk_len"),
        remap=bool(get("remap", False)),
        truncate=bool(get("truncate", False)),
        trace_out=get("trace_out"),
        out_dir=get("out_dir", "out"),
        script=get("script"),
        trace_in=get("trace_in"),
        tag_file=get("tag_file"),
        layer=get("layer", 0),
        head=get("head"),
        max_steps=get("max_steps", 0),
        model_fields=model_fields,
        mem_layers=get("mem_layers", 32),
        mem_heads=get("mem_heads", 32),
        mem_head_dim=get("mem_head_dim", 128),
        mem_state_sizes=state_sizes or [256, 512, 1024, 2048, 4096],
        mem_bytes_per_element=get("mem_bytes_per_element", 2),
        mem_budget=get("mem_budget"),
    )
    try:
        cfg.policy_kind()
    except ValueError as exc:
        raise CliError(str(exc) if str(exc).startswith(("policy", "usage")) else f"policy: {exc}") from None
    return cfg


def _load_model(cfg: RunConfig) -> Model:
    if cfg.model_path is not None and cfg.seed is not None:
        raise CliError("model: give either --model or --seed, not both")
    if cfg.model_path is not None:
        config, weights = load_weights(cfg.model_path)
        return Model(config, weights)
    if cfg.seed is None:
        raise CliError("model: a model source is required (--model or --seed)")
    try:
        config = ModelConfig(hidden_dim=cfg.model_fields["n_heads"] * cfg.model_fields["head_dim"],
                             **cfg.model_fields)
    except ValueError as exc:
        raise CliError(f"model: {exc}") from None
    return Model(config, init_random_model(config, cfg.seed))


def _load_stream(cfg: RunConfig, model: Model, kind: PolicyKind | None) -> TokenStream:
    if not cfg.stream:
        raise CliError("stream: --stream is required")
    chunk_len = cfg.chunk_len or model.config.train_context_len
    stream = read_token_stream(cfg.stream, chunk_len, model.config.vocab_size)
    if cfg.truncate:
        if kind is None:
            raise CliError("truncate: --truncate needs a policy with --k")
        ids = stream.ids[:kind.k]
        if len(ids) < 2:
            raise CliError("truncate: fewer than 2 tokens left after truncation")
        stream = TokenStream(ids=ids, chunk_len=chunk_len)
    return stream


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(report: PerplexityReport, out: Path) -> None:
    with open(out / "report.txt", "w") as fh:
        fh.write(f"total_nll {report.total_nll:.6g}\n")
        fh.write(f"token_count {report.token_count}\n")
        fh.write(f"perplexity {report.perplexity:.6g}\n")
    with open(out / "chunks.csv", "w", newline="") as fh:
        fh.write("chunk,start,n_scored,nll\n")
        for i, chunk in enumerate(report.chunks):
            fh.write(f"{i},{chunk.start},{chunk.n_scored},{chunk.nll:.6g}\n")


def _cmd_perplexity(cfg: RunConfig, parallel: bool) -> None:
    kind = cfg.policy_kind()
    model = _load_model(cfg)
    stream = _load_stream(cfg, model, kind)
    trace = RetentionTrace(model.config.n_layers, model.config.n_heads) \
        if cfg.trace_out else None
    if parallel:
        if cfg.remap:
            raise CliError("remap: masked-parallel evaluation keeps original positions")
        if kind is None:
            raise CliError("policy: perplexity-parallel needs a policy")
        report = masked_parallel_perplexity(model, stream, kind, trace=trace)
    else:
        report = sequential_perplexity(model, stream, kind, remap=cfg.remap,
                                       trace=trace)
    out = _out_dir(cfg)
    _write_report(report, out)
    if trace is not None:
        trace.write_csv(cfg.trace_out)


def _cmd_generate(cfg: RunConfig) -> None:
    kind = cfg.policy_kind()
    model = _load_model(cfg)
    stream = _load_stream(cfg, model, kind)
    trace = RetentionTrace(model.config.n_layers, model.config.n_heads) \
        if cfg.trace_out else None
    tokens = generate(model, list(stream.ids), cfg.max_steps, kind,
                      remap=cfg.remap, trace=trace)
    out = _out_dir(cfg)
    write_token_stream(out / "tokens.txt", tokens)
    if trace is not None:
        trace.write_csv(cfg.trace_out)


def _cmd_simulate(cfg: RunConfig) -> None:
    if not cfg.script:
        raise CliError("script: --script is required for simulate-trace")
    kind = cfg.policy_kind()
    script = ScriptedTrace.read_csv(cfg.script)
    trace = trace_driven_simulate(script, kind)
    out = _out_dir(cfg)
    target = Path(cfg.trace_out) if cfg.trace_out else out / "trace.csv"
    trace.write_csv(target)


def _cmd_analyze(cfg: RunConfig) -> None:
    if not cfg.trace_in:
        raise CliError("trace: --trace is required for analyze")
    trace = RetentionTrace.read_csv(cfg.trace_in)
    out = _out_dir(cfg)
    what = cfg.analyze_what
    if what == "retention":
        matrix = retention_matrix(trace, cfg.layer, cfg.head)
        write_matrix_csv(matrix, out / "matrix.csv")
        write_matrix_pgm(matrix, out / "matrix.pgm")
    elif what == "lifetime":
        lifetimes = token_lifetime(trace)
        with open(out / "lifetime.csv", "w", newline="") as fh:
            fh.write("position,mean_steps\n")
            for position, life in lifetimes.items():
                fh.write(f"{position},{life:.6g}\n")
    elif what == "tags":
        if not cfg.tag_file:
            raise CliError("tags: --tags file is required for analyze tags")
        table = lifetime_by_tag(trace, read_tag_file(cfg.tag_file))
        with open(out / "tags.csv", "w", newline="") as fh:
            fh.write("tag,mean_steps\n")
            for tag, mean in table:
                fh.write(f"{tag},{mean:.6g}\n")
    else:
        if cfg.k is None:
            raise CliError("recent: --k is required for analyze recent")
        value = recent_proportion(trace, cfg.k, exclude_prefix=cfg.pin or 0)
        with open(out / "recent.txt", "w") as fh:
            fh.write(f"recent_proportion {value:.6g}\n")


def _cmd_memory(cfg: RunConfig) -> None:
    reports = [memory_report(cfg.mem_layers, cfg.mem_heads, cfg.mem_head_dim,
                             size, cfg.mem_bytes_per_element, cfg.mem_budget)
               for size in cfg.mem_state_sizes]
    out = _out_dir(cfg)
    write_memory_csv(reports, out / "memory.csv")


def run(cfg: RunConfig) -> None:
    if cfg.command == "perplexity":
        _cmd_perplexity(cfg, parallel=False)
    elif cfg.command == "perplexity-parallel":
        _cmd_perplexity(cfg, parallel=True)
    elif cfg.command == "generate":
        _cmd_generate(cfg)
    elif cfg.command == "simulate-trace":
        _cmd_simulate(cfg)
    elif cfg.command == "analyze":
        _cmd_analyze(cfg)
    elif cfg.command == "memory-report":
        _cmd_memory(cfg)
    else:
        raise CliError(f"usage: unknown command {cfg.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = parse_config(list(sys.argv[1:] if argv is None else argv))
        run(cfg)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
