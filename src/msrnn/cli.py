"""Command-line front end.

Subcommands: perplexity, perplexity-parallel, generate, simulate-trace,
analyze (retention | lifetime | tags | recent), memory-report. A flat
key/value config file can pre-set any option by its dest, and the toy
model's dimensions; explicit flags override it and unknown keys fail.
Outputs are deterministic: identical inputs produce byte-identical files
(floats fixed to 6 significant digits).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from .analysis import (lifetime_by_tag, memory_report, read_tag_file,
                       recent_proportion, retention_matrix, token_lifetime,
                       write_matrix_csv, write_matrix_pgm, write_memory_csv)
from .harness import (PerplexityReport, ScriptedTrace, TokenStream, generate,
                      masked_parallel_perplexity, read_token_stream,
                      sequential_perplexity, trace_driven_simulate,
                      write_token_stream)
from .model import Model, ModelConfig, init_random_model, load_weights
from .policies import POLICY_FORMS, PolicyKind, parse_policy
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


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


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


def _state_sizes(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: expected "
                                         "comma-separated integers") from None
    if not sizes:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: no state sizes")
    return sizes


# (group, flag, argparse keywords) in --help order: a command takes the
# ungrouped flags and those of the groups it reads
_FLAGS = [
    ("model", "--model", dict(help="weight file to load")),
    (None, "--config", dict(help="flat key/value config file; flags override it")),
    ("model", "--seed", dict(type=int, help="seed for an on-the-fly toy model")),
    ("stream", "--stream", dict(help="token stream file, one id per line")),
    ("policy", "--policy", dict(default="none", help=f"eviction policy ({POLICY_FORMS} | none)")),
    ("capacity", "--k", dict(type=int, help="multi-state capacity")),
    ("capacity", "--pin", dict(type=int, help="pinned prefix size for +i policies")),
    ("stream", "--chunk-len", dict(type=int, help="independent-chunk length for perplexity")),
    ("stream", "--remap", dict(action="store_true",
                               help="compress position gaps beyond the trained length")),
    ("stream", "--truncate", dict(action="store_true",
                                  help="keep only the first k stream tokens before decoding")),
    ("policy", "--trace-out", dict(help="write the retention trace CSV here")),
    (None, "--out-dir", dict(default="out", help="output directory")),
]
# a policy run reads every group
_RUN_GROUPS = ("model", "stream", "policy", "capacity")


def _command(sub, name: str, run: Callable[[argparse.Namespace], None],
             groups: Sequence[str] = ()) -> argparse.ArgumentParser:
    parser = sub.add_parser(name)
    parser.set_defaults(run=run, **(MODEL_DEFAULTS if "model" in groups else {}))
    for group, flag, kwargs in _FLAGS:
        if group is None or group in groups:
            parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msrnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("perplexity", "perplexity-parallel"):
        _command(sub, name, _cmd_perplexity, _RUN_GROUPS)

    p = _command(sub, "generate", _cmd_generate, _RUN_GROUPS)
    p.add_argument("--max-steps", type=int, default=0,
                   help="greedy tokens to decode after the prompt")

    p = _command(sub, "simulate-trace", _cmd_simulate, ("policy", "capacity"))
    p.add_argument("--script", help="scripted probability trace CSV")

    p = _command(sub, "analyze", _cmd_analyze, ("capacity",))  # recent reads --k, --pin
    p.add_argument("what", choices=["retention", "lifetime", "tags", "recent"])
    p.add_argument("--trace", dest="trace_in", help="retention trace CSV to analyze")
    p.add_argument("--tags", dest="tag_file", help="position<TAB>tag file")
    p.add_argument("--layer", type=int, default=0, help="layer for the retention matrix")
    p.add_argument("--head", type=int, help="head for the retention matrix (default: mean)")

    p = _command(sub, "memory-report", _cmd_memory)
    p.add_argument("--layers", type=int, default=32, dest="mem_layers")
    p.add_argument("--heads", type=int, default=32, dest="mem_heads")
    p.add_argument("--head-dim", type=int, default=128, dest="mem_head_dim")
    p.add_argument("--state-sizes", type=_state_sizes, dest="mem_state_sizes",
                   default=[256, 512, 1024, 2048, 4096],
                   help="comma-separated multi-state sizes")
    p.add_argument("--bytes-per-element", type=int, default=2, dest="mem_bytes_per_element")
    p.add_argument("--budget", type=int, dest="mem_budget",
                   help="memory budget in bytes for the max-batch column")
    return parser


def _config_defaults(path: str, commands: dict[str, argparse.ArgumentParser]) -> dict:
    """Config-file values keyed by dest, switches and model fields already typed.

    A key may be the dest of any command's option flag, so one file can
    serve several commands, or a MODEL_DEFAULTS field; anything else fails.
    """
    options = {a.dest: a for p in commands.values() for a in p._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = _read_config_file(path)
    for key, value in values.items():
        if key in MODEL_DEFAULTS:
            cast = type(MODEL_DEFAULTS[key])
        elif key not in options:
            raise CliError(f"config: {path}: unknown key {key!r}")
        elif options[key].nargs == 0:  # a switch such as --remap
            cast = bool
        else:
            continue  # argparse applies the flag's own type= when it parses
        try:
            values[key] = _SWITCH_VALUES[value.lower()] if cast is bool else cast(value)
        except (KeyError, ValueError):
            raise CliError(f"config: field {key!r} has bad {cast.__name__} "
                           f"value {value!r}") from None
    return values


def _policy_kind(args: argparse.Namespace) -> PolicyKind | None:
    if args.policy != "none" and args.k is None:
        raise CliError("policy: --k is required when a policy is set")
    try:
        return parse_policy(args.policy, args.k if args.k is not None else 1, args.pin)
    except ValueError as exc:
        raise CliError(str(exc) if str(exc).startswith("policy") else f"policy: {exc}") from None


def parse_config(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv over the optional config file into one validated namespace.

    The file's values become the chosen command's defaults, so explicit
    flags win and each value goes through its flag's type. The namespace
    carries the parsed policy as `kind` (None for commands that run no
    policy) and the command's handler as `run`.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        commands = next(a.choices for a in parser._actions if a.dest == "command")
        chosen = commands[args.command]
        own = {a.dest for a in chosen._actions} | set(MODEL_DEFAULTS)
        chosen.set_defaults(**{key: value for key, value in
                               _config_defaults(args.config, commands).items()
                               if key in own})
        try:
            args = parser.parse_args(argv)
        except CliError as exc:  # argv alone parsed above, so a file value failed
            raise CliError(f"config: {args.config}: {str(exc).removeprefix('usage: ')}") from None
    # only the commands that take the policy group run a policy
    args.kind = _policy_kind(args) if "policy" in args else None
    return args


def _load_model(args: argparse.Namespace) -> Model:
    if args.model is not None and args.seed is not None:
        raise CliError("model: give either --model or --seed, not both")
    if args.model is not None:
        config, weights = load_weights(args.model)
        return Model(config, weights)
    if args.seed is None:
        raise CliError("model: a model source is required (--model or --seed)")
    fields = {name: getattr(args, name) for name in MODEL_DEFAULTS}
    try:
        config = ModelConfig(hidden_dim=fields["n_heads"] * fields["head_dim"], **fields)
    except ValueError as exc:
        raise CliError(f"model: {exc}") from None
    return Model(config, init_random_model(config, args.seed))


def _load_stream(args: argparse.Namespace, model: Model) -> TokenStream:
    if not args.stream:
        raise CliError("stream: --stream is required")
    chunk_len = model.config.train_context_len if args.chunk_len is None else args.chunk_len
    stream = read_token_stream(args.stream, chunk_len, model.config.vocab_size)
    if args.truncate:
        if args.kind is None:
            raise CliError("truncate: --truncate needs a policy with --k")
        ids = stream.ids[:args.kind.k]
        if len(ids) < 2:
            raise CliError("truncate: fewer than 2 tokens left after truncation")
        stream = TokenStream(ids=ids, chunk_len=chunk_len)
    return stream


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(args.out_dir)
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


def _cmd_perplexity(args: argparse.Namespace) -> None:
    model = _load_model(args)
    stream = _load_stream(args, model)
    trace = RetentionTrace(model.config.n_layers, model.config.n_heads) \
        if args.trace_out else None
    if args.command == "perplexity-parallel":
        if args.remap:
            raise CliError("remap: masked-parallel evaluation keeps original positions")
        if args.kind is None:
            raise CliError("policy: perplexity-parallel needs a policy")
        report = masked_parallel_perplexity(model, stream, args.kind, trace=trace)
    else:
        report = sequential_perplexity(model, stream, args.kind, remap=args.remap,
                                       trace=trace)
    out = _out_dir(args)
    _write_report(report, out)
    if trace is not None:
        trace.write_csv(args.trace_out)


def _cmd_generate(args: argparse.Namespace) -> None:
    model = _load_model(args)
    stream = _load_stream(args, model)
    trace = RetentionTrace(model.config.n_layers, model.config.n_heads) \
        if args.trace_out else None
    tokens = generate(model, list(stream.ids), args.max_steps, args.kind,
                      remap=args.remap, trace=trace)
    out = _out_dir(args)
    write_token_stream(out / "tokens.txt", tokens)
    if trace is not None:
        trace.write_csv(args.trace_out)


def _cmd_simulate(args: argparse.Namespace) -> None:
    if not args.script:
        raise CliError("script: --script is required for simulate-trace")
    script = ScriptedTrace.read_csv(args.script)
    trace = trace_driven_simulate(script, args.kind)
    out = _out_dir(args)
    target = Path(args.trace_out) if args.trace_out else out / "trace.csv"
    trace.write_csv(target)


def _cmd_analyze(args: argparse.Namespace) -> None:
    if not args.trace_in:
        raise CliError("trace: --trace is required for analyze")
    trace = RetentionTrace.read_csv(args.trace_in)
    out = _out_dir(args)
    if args.what == "retention":
        matrix = retention_matrix(trace, args.layer, args.head)
        write_matrix_csv(matrix, out / "matrix.csv")
        write_matrix_pgm(matrix, out / "matrix.pgm")
    elif args.what == "lifetime":
        lifetimes = token_lifetime(trace)
        with open(out / "lifetime.csv", "w", newline="") as fh:
            fh.write("position,mean_steps\n")
            for position, life in lifetimes.items():
                fh.write(f"{position},{life:.6g}\n")
    elif args.what == "tags":
        if not args.tag_file:
            raise CliError("tags: --tags file is required for analyze tags")
        table = lifetime_by_tag(trace, read_tag_file(args.tag_file))
        with open(out / "tags.csv", "w", newline="") as fh:
            fh.write("tag,mean_steps\n")
            for tag, mean in table:
                fh.write(f"{tag},{mean:.6g}\n")
    else:
        if args.k is None:
            raise CliError("recent: --k is required for analyze recent")
        value = recent_proportion(trace, args.k, exclude_prefix=args.pin or 0)
        with open(out / "recent.txt", "w") as fh:
            fh.write(f"recent_proportion {value:.6g}\n")


def _cmd_memory(args: argparse.Namespace) -> None:
    reports = [memory_report(args.mem_layers, args.mem_heads, args.mem_head_dim,
                             size, args.mem_bytes_per_element, args.mem_budget)
               for size in args.mem_state_sizes]
    out = _out_dir(args)
    write_memory_csv(reports, out / "memory.csv")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_config(list(sys.argv[1:] if argv is None else argv))
        args.run(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
