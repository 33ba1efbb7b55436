import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msrnn
from msrnn import save_weights
from msrnn.cli import CliError, main, parse_config

from conftest import make_config, make_model


def write_stream(path, n=96, vocab=256, seed=11):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=n)
    path.write_text("".join(f"{int(t)}\n" for t in ids))
    return path


def test_parse_config_policy_validation():
    base = ["perplexity", "--seed", "1", "--stream", "s.txt"]
    cfg = parse_config(base + ["--policy", "tova-layer+2", "--k", "8"])
    kind = cfg.kind
    assert (kind.family, kind.k, kind.pin) == ("tova-layer", 8, 2)
    with pytest.raises(CliError):
        parse_config(base + ["--policy", "window+4", "--k", "4"])
    with pytest.raises(CliError):
        parse_config(base + ["--policy", "window"])  # no --k
    with pytest.raises(CliError) as err:
        parse_config(base + ["--policy", "sliding", "--k", "4"])
    assert "window | window+i" in str(err.value)
    with pytest.raises(CliError):
        parse_config(base + ["--policy", "none", "--pin", "2"])


def test_parse_config_defaults_and_types():
    cfg = parse_config(["memory-report"])
    assert cfg.mem_layers == 32 and cfg.mem_heads == 32 and cfg.mem_head_dim == 128
    assert cfg.mem_state_sizes == [256, 512, 1024, 2048, 4096]
    assert cfg.mem_bytes_per_element == 2
    cfg = parse_config(["memory-report", "--state-sizes", "64,128"])
    assert cfg.mem_state_sizes == [64, 128]
    with pytest.raises(CliError):
        parse_config(["memory-report", "--state-sizes", "64,big"])
    with pytest.raises(CliError):
        parse_config(["memory-report", "--state-sizes", ","])


def test_config_file_merge_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "policy = window\n"
        "k = 8\n"
        "seed = 5\n"
        "chunk-len = 16\n"
        "remap = true\n"
    )
    cfg = parse_config(["perplexity", "--config", str(cfg_file),
                        "--stream", "s.txt"])
    assert cfg.policy == "window" and cfg.k == 8 and cfg.seed == 5
    assert cfg.chunk_len == 16 and cfg.remap is True
    # explicit flags override the file
    cfg = parse_config(["perplexity", "--config", str(cfg_file),
                        "--stream", "s.txt", "--k", "4", "--policy", "tova-head"])
    assert cfg.policy == "tova-head" and cfg.k == 4

    cfg_file.write_text("not a pair\n")
    with pytest.raises(CliError):
        parse_config(["perplexity", "--config", str(cfg_file)])
    cfg_file.write_text("k = 8\nk = 9\n")
    with pytest.raises(CliError):
        parse_config(["perplexity", "--config", str(cfg_file)])
    cfg_file.write_text("k = eight\n")
    with pytest.raises(CliError):
        parse_config(["perplexity", "--config", str(cfg_file)])
    with pytest.raises(CliError):
        parse_config(["perplexity", "--config", str(tmp_path / "missing.cfg")])


def test_plain_calls_share_one_parser_tree(tmp_path, monkeypatch):
    # the module's one tree serves every call without --config; a --config
    # run builds its own, so its file values never become the shared defaults
    built = []
    build = msrnn.cli.build_parser
    monkeypatch.setattr(msrnn.cli, "build_parser", lambda: built.append(1) or build())
    for _ in range(3):
        assert main(["memory-report", "--out-dir", str(tmp_path)]) == 0
    assert not built
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("policy = window\nk = 8\nremap = true\n")
    cfg = parse_config(["perplexity", "--config", str(cfg_file), "--seed", "1"])
    assert (cfg.policy, cfg.k, cfg.remap) == ("window", 8, True) and len(built) == 1
    cfg = parse_config(["perplexity", "--seed", "1"])
    assert (cfg.policy, cfg.k, cfg.remap, cfg.kind) == ("none", None, False, None)
    assert len(built) == 1


def test_config_file_unknown_keys_fail(tmp_path, capsys):
    stream = write_stream(tmp_path / "s.txt", n=40)
    cfg_file = tmp_path / "run.cfg"
    base = ["perplexity", "--config", str(cfg_file), "--seed", "5",
            "--stream", str(stream), "--chunk-len", "16",
            "--out-dir", str(tmp_path / "o")]
    # a misspelt key, a removed flag and a positional are not option dests
    for key, value in (("polcy", "h2o-head"), ("threads", "2"), ("what", "lifetime")):
        cfg_file.write_text(f"{key} = {value}\nk = 8\n")
        assert main(base) == 1
        line = _single_error_line(capsys)
        assert line.startswith("error: config:") and "run.cfg" in line
        assert repr(key) in line
    assert not (tmp_path / "o").exists()
    # a file value that its flag's type rejects is blamed on the file
    cfg_file.write_text("k = eight\n")
    assert main(base) == 1
    line = _single_error_line(capsys)
    assert line.startswith("error: config:") and "--k" in line and "'eight'" in line
    # a chunk length of 0 fails like 1 does, from the flag and from the file
    no_chunk_len = base[:7] + base[9:]
    cfg_file.write_text("k = 8\n")
    assert main(no_chunk_len + ["--chunk-len", "0"]) == 1
    assert "chunk_len must be >= 2" in _single_error_line(capsys)
    cfg_file.write_text("k = 8\nchunk-len = 0\n")
    assert main(no_chunk_len) == 1
    assert "chunk_len must be >= 2" in _single_error_line(capsys)
    # another command's key is accepted, so one file can serve several commands
    cfg_file.write_text("max_steps = 3\npolicy = window\nk = 8\n")
    assert main(base) == 0
    assert (tmp_path / "o" / "report.txt").exists()


def test_non_finite_rope_base_fails_cleanly(tmp_path, capsys):
    stream = write_stream(tmp_path / "s.txt", n=20)
    cfg_file = tmp_path / "run.cfg"
    for value in ("nan", "inf"):
        cfg_file.write_text(f"rope_base = {value}\n")
        assert main(["perplexity", "--config", str(cfg_file), "--seed", "1",
                     "--stream", str(stream), "--out-dir", str(tmp_path / "o")]) == 1
        assert "rope_base must be finite and > 1" in _single_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_model_source_rules(tmp_path, capsys):
    stream = write_stream(tmp_path / "s.txt")
    assert main(["perplexity", "--stream", str(stream),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "error: model:" in capsys.readouterr().err
    assert main(["perplexity", "--seed", "1", "--model", "x.bin",
                 "--stream", str(stream), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_perplexity_end_to_end_and_determinism(tmp_path):
    stream = write_stream(tmp_path / "s.txt")
    args = ["perplexity", "--seed", "5", "--stream", str(stream),
            "--policy", "tova-head", "--k", "16", "--chunk-len", "32"]
    assert main(args + ["--out-dir", str(tmp_path / "a"),
                        "--trace-out", str(tmp_path / "a" / "trace.csv")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b"),
                        "--trace-out", str(tmp_path / "b" / "trace.csv")]) == 0
    for name in ("report.txt", "chunks.csv", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report = (tmp_path / "a" / "report.txt").read_text().splitlines()
    assert report[0].startswith("total_nll ")
    assert report[1].startswith("token_count ")
    assert report[2].startswith("perplexity ")
    assert (tmp_path / "a" / "chunks.csv").read_text().splitlines()[0] \
        == "chunk,start,n_scored,nll"


@pytest.mark.parametrize("policy", ["h2o-layer", "h2o-head", "tova-head", "tova-layer+2"])
def test_parallel_command_matches_sequential(tmp_path, policy):
    stream = write_stream(tmp_path / "s.txt")
    shared = ["--seed", "5", "--stream", str(stream), "--policy", policy,
              "--k", "8", "--chunk-len", "32"]
    assert main(["perplexity"] + shared +
                ["--out-dir", str(tmp_path / "seq"),
                 "--trace-out", str(tmp_path / "seq" / "trace.csv")]) == 0
    assert main(["perplexity-parallel"] + shared +
                ["--out-dir", str(tmp_path / "par"),
                 "--trace-out", str(tmp_path / "par" / "trace.csv")]) == 0
    assert (tmp_path / "seq" / "report.txt").read_bytes() \
        == (tmp_path / "par" / "report.txt").read_bytes()
    assert (tmp_path / "seq" / "trace.csv").read_bytes() \
        == (tmp_path / "par" / "trace.csv").read_bytes()


def test_parallel_rejects_remap_and_scores_the_topline(tmp_path, capsys):
    stream = write_stream(tmp_path / "s.txt")
    base = ["--seed", "5", "--stream", str(stream), "--chunk-len", "32"]
    assert main(["perplexity-parallel"] + base + ["--policy", "window", "--k", "8", "--remap",
                                                  "--out-dir", str(tmp_path / "o")]) == 1
    assert "remap" in capsys.readouterr().err
    # without a policy both modes run the unbounded topline, to the same bytes
    for command, policy in [("perplexity", ["--policy", "none"]), ("perplexity-parallel", [])]:
        out = tmp_path / command
        assert main([command] + base + policy + ["--out-dir", str(out),
                                                 "--trace-out", str(out / "trace.csv")]) == 0
    for name in ("report.txt", "chunks.csv", "trace.csv"):
        assert (tmp_path / "perplexity-parallel" / name).read_bytes() \
            == (tmp_path / "perplexity" / name).read_bytes()


def test_model_file_flow(tmp_path):
    stream = write_stream(tmp_path / "s.txt")
    config = make_config(n_layers=4, n_heads=4, head_dim=16, ff_dim=128,
                         vocab_size=256, train_context_len=64)
    from msrnn import init_random_model
    save_weights(tmp_path / "m.bin", config, init_random_model(config, 5))
    args_seed = ["perplexity", "--seed", "5", "--stream", str(stream),
                 "--chunk-len", "32", "--out-dir", str(tmp_path / "s_out")]
    args_file = ["perplexity", "--model", str(tmp_path / "m.bin"),
                 "--stream", str(stream), "--chunk-len", "32",
                 "--out-dir", str(tmp_path / "f_out")]
    assert main(args_seed) == 0
    assert main(args_file) == 0
    assert (tmp_path / "s_out" / "report.txt").read_bytes() \
        == (tmp_path / "f_out" / "report.txt").read_bytes()


def test_generate_and_truncate(tmp_path):
    stream = write_stream(tmp_path / "s.txt", n=40)
    args = ["generate", "--seed", "5", "--stream", str(stream),
            "--policy", "window", "--k", "8", "--chunk-len", "32",
            "--max-steps", "6", "--truncate"]
    assert main(args + ["--out-dir", str(tmp_path / "g1")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "g2")]) == 0
    out1 = (tmp_path / "g1" / "tokens.txt").read_text().splitlines()
    assert (tmp_path / "g1" / "tokens.txt").read_bytes() \
        == (tmp_path / "g2" / "tokens.txt").read_bytes()
    # truncation keeps the first k prompt tokens, then 6 new ones
    assert len(out1) == 8 + 6
    prompt = stream.read_text().splitlines()[:8]
    assert out1[:8] == prompt


def test_simulate_and_analyze_pipeline(tmp_path):
    from msrnn import parse_policy, simulate_with_rule, uniform_rule
    script, _ = simulate_with_rule(uniform_rule, parse_policy("window", k=4),
                                   steps=16)
    script.write_csv(tmp_path / "script.csv")
    sim = ["simulate-trace", "--script", str(tmp_path / "script.csv"),
           "--policy", "window", "--k", "4", "--out-dir", str(tmp_path / "sim")]
    assert main(sim) == 0
    trace_path = tmp_path / "sim" / "trace.csv"
    assert trace_path.exists()

    out = str(tmp_path / "an")
    assert main(["analyze", "retention", "--trace", str(trace_path),
                 "--layer", "0", "--out-dir", out]) == 0
    assert (tmp_path / "an" / "matrix.csv").exists()
    assert (tmp_path / "an" / "matrix.pgm").read_bytes().startswith(b"P5\n")
    assert main(["analyze", "lifetime", "--trace", str(trace_path),
                 "--out-dir", out]) == 0
    lines = (tmp_path / "an" / "lifetime.csv").read_text().splitlines()
    assert lines[0] == "position,mean_steps"
    assert lines[1] == "0,4"

    (tmp_path / "tags.tsv").write_text("0\tA\n1\tB\n")
    assert main(["analyze", "tags", "--trace", str(trace_path),
                 "--tags", str(tmp_path / "tags.tsv"), "--out-dir", out]) == 0
    assert (tmp_path / "an" / "tags.csv").read_text().startswith("tag,mean_steps\nAvg.,")

    assert main(["analyze", "recent", "--trace", str(trace_path),
                 "--k", "4", "--out-dir", out]) == 0
    assert (tmp_path / "an" / "recent.txt").read_text() == "recent_proportion 1\n"


def test_analyze_tags_quotes_commas_and_quotes(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_HEADER + "0,0,0,append,0,7\n1,0,0,append,1,8\n2,0,0,append,2,9\n")
    (tmp_path / "tags.tsv").write_text('0\tNOUN,PL\n1\t"q"\n2\tA\n')
    assert main(["analyze", "tags", "--trace", str(trace), "--tags", str(tmp_path / "tags.tsv"),
                 "--out-dir", str(tmp_path / "an")]) == 0
    with open(tmp_path / "an" / "tags.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["tag", "mean_steps"], ["Avg.", "2"], ["NOUN,PL", "3"], ['"q"', "2"],
                    ["A", "1"]]


def test_analyze_requires_inputs(tmp_path, capsys):
    assert main(["analyze", "retention", "--out-dir", str(tmp_path)]) == 1
    assert "trace" in capsys.readouterr().err
    trace = tmp_path / "t.csv"
    trace.write_text("step,layer,head,action,original_position,token_id\n"
                     "0,0,0,append,0,1\n")
    assert main(["analyze", "tags", "--trace", str(trace),
                 "--out-dir", str(tmp_path)]) == 1
    assert "tags" in capsys.readouterr().err
    assert main(["analyze", "recent", "--trace", str(trace),
                 "--out-dir", str(tmp_path)]) == 1
    assert "--k" in capsys.readouterr().err


def test_memory_report_cli(tmp_path, capsys):
    out = str(tmp_path / "mem")
    assert main(["memory-report", "--state-sizes", ",", "--out-dir", out]) == 1
    assert "--state-sizes" in _single_error_line(capsys)
    assert not (tmp_path / "mem").exists()
    assert main(["memory-report", "--out-dir", out]) == 0
    lines = (tmp_path / "mem" / "memory.csv").read_text().splitlines()
    assert lines[0] == "state_size,bytes,gigabytes,max_batch"
    assert len(lines) == 6
    assert lines[1].startswith("256,")
    assert main(["memory-report", "--state-sizes", "512",
                 "--budget", "1000000000", "--out-dir", out]) == 0
    row = (tmp_path / "mem" / "memory.csv").read_text().splitlines()[1]
    assert row == "512,268435456,0.268435,3"


def test_unreadable_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["perplexity", "--seed", "1",
                 "--stream", str(tmp_path / "nope.txt"),
                 "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert main(["simulate-trace", "--policy", "window", "--k", "2",
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "script" in capsys.readouterr().err


def _single_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    return lines[0]


def test_malformed_script_rows_fail_cleanly(tmp_path, capsys):
    script = tmp_path / "script.csv"
    sim = ["simulate-trace", "--script", str(script), "--policy", "window",
           "--k", "2", "--out-dir", str(tmp_path / "sim")]
    header = "step,layer,head,state_slot,probability\n"
    script.write_text(header + "0,0,0,0,1.0\n1,0,0,0,0.5\n1,0,0,0,0.5\n")
    assert main(sim) == 1
    assert "script.csv:4: duplicate row" in _single_error_line(capsys)
    script.write_text(header + "0,0,0,0,1.0\n1,0\n")
    assert main(sim) == 1
    assert "script.csv:3:" in _single_error_line(capsys)
    script.write_text(header + "0,0,0,zero,1.0\n")
    assert main(sim) == 1
    assert "script.csv:2:" in _single_error_line(capsys)
    script.write_text(header + "0,0,0,0,1.0\n0,0,1,0,0.5\n0,0,1,1,0.5\n")
    assert main(sim) == 1
    assert "script.csv: heads hold different slot counts" in _single_error_line(capsys)


def test_short_trace_row_fails_cleanly(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("step,layer,head,action,original_position,token_id\n"
                     "0,0,0,append,0,1\n1,0,0,append\n")
    assert main(["analyze", "lifetime", "--trace", str(trace),
                 "--out-dir", str(tmp_path / "an")]) == 1
    assert "trace.csv:3: expected 6 fields" in _single_error_line(capsys)


TRACE_HEADER = "step,layer,head,action,original_position,token_id\n"


def test_irregular_traces_fail_cleanly(tmp_path, capsys):
    # the analyses count events, so a trace whose (layer, head, position)
    # lacks one append and at most one later evict is refused by every one
    trace = tmp_path / "trace.csv"
    start = "0,0,0,append,0,7\n1,0,1,append,1,8\n"
    for body, message in [
        ("2,0,1,append,1,8\n", "layer 0, head 1, position 1: append at step 1, "
                                "append at step 2;"),
        ("2,0,1,evict,5,8\n", "layer 0, head 1, position 5: evict at step 2;"),
        ("0,0,1,evict,1,8\n", "layer 0, head 1, position 1: evict at step 0, "
                               "append at step 1;"),
        ("2,0,0,evict,0,7\n3,0,0,evict,0,7\n", "layer 0, head 0, position 0: append at "
                                                "step 0, evict at step 2, evict at step 3;"),
    ]:
        trace.write_text(TRACE_HEADER + start + body)
        for what, extra in [("retention", []), ("lifetime", []), ("recent", ["--k", "2"])]:
            assert main(["analyze", what, "--trace", str(trace),
                         "--out-dir", str(tmp_path / "an")] + extra) == 1
            assert f"error: irregular trace at {message}" in _single_error_line(capsys)


def test_oversized_retention_grid_fails_cleanly(tmp_path, capsys):
    # a valid trace whose second append is at step 10**8: the retention grid
    # would take 8.88 PiB, which no machine can back, so numpy refuses the
    # allocation at once; the event-count analyses never build that grid
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_HEADER + "0,0,0,append,0,7\n100000000,0,0,append,100000000,8\n")
    base = ["--trace", str(trace), "--out-dir", str(tmp_path / "an")]
    assert main(["analyze", "retention"] + base) == 1
    assert "8.88 PiB" in _single_error_line(capsys)
    assert main(["analyze", "lifetime"] + base) == 0


@pytest.mark.parametrize("bad", ["stream", "tags", "config", "trace", "script"])
def test_non_utf8_inputs_name_their_file(tmp_path, capsys, bad):
    good = {
        "stream": "1\n2\n3\n",
        "tags": "0\tA\n",
        "config": "seed = 1\n",
        "trace": TRACE_HEADER + "0,0,0,append,0,7\n",
        "script": "step,layer,head,state_slot,probability\n0,0,0,0,1.0\n",
    }
    paths = {name: tmp_path / name for name in good}
    for name, text in good.items():
        paths[name].write_bytes(text.encode() + (b"\xff\n" if name == bad else b""))
    out = ["--out-dir", str(tmp_path / "o")]
    argv = {
        "stream": ["perplexity", "--seed", "1", "--stream", str(paths["stream"])],
        "tags": ["analyze", "tags", "--trace", str(paths["trace"]), "--tags", str(paths["tags"])],
        "config": ["analyze", "lifetime", "--config", str(paths["config"]),
                   "--trace", str(paths["trace"])],
        "trace": ["analyze", "lifetime", "--trace", str(paths["trace"])],
        "script": ["simulate-trace", "--script", str(paths["script"]), "--policy", "window",
                   "--k", "2"],
    }[bad]
    assert main(argv + out) == 1
    prefix = "config: " if bad == "config" else ""
    assert _single_error_line(capsys) == f"error: {prefix}{paths[bad]}: not UTF-8 text"


def test_analyze_recent_takes_pin_without_policy(tmp_path, capsys):
    from msrnn import parse_policy, simulate_with_rule, uniform_rule
    _, trace = simulate_with_rule(uniform_rule, parse_policy("window+2", k=6), steps=20)
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    out = tmp_path / "an"
    assert main(["analyze", "recent", "--trace", str(path), "--k", "6", "--pin", "2",
                 "--out-dir", str(out)]) == 0
    assert (out / "recent.txt").read_text() == "recent_proportion 1\n"
    assert main(["analyze", "recent", "--trace", str(path), "--k", "6", "--pin", "-5",
                 "--out-dir", str(out)]) == 1
    assert "excluded prefix must be >= 0" in _single_error_line(capsys)
    # a command that runs a policy still refuses a pin without one
    assert main(["perplexity", "--seed", "1", "--stream", str(path), "--pin", "2",
                 "--out-dir", str(out)]) == 1
    assert "policy: pin given but policy is none" in _single_error_line(capsys)


@pytest.mark.parametrize("command", ["perplexity", "generate"])
@pytest.mark.parametrize("truncate", [[], ["--truncate"]])
def test_policy_none_refuses_k(tmp_path, capsys, command, truncate):
    # a --k flag under no policy fails as --pin does, before --truncate reads
    # it, instead of being dropped; a config file's k serves other commands
    stream = write_stream(tmp_path / "s.txt", n=40)
    argv = [command, "--seed", "5", "--stream", str(stream), "--out-dir", str(tmp_path / "o")]
    assert main(argv + ["--policy", "none", "--k", "8"] + truncate) == 1
    assert _single_error_line(capsys) == "error: policy: --k given but policy is none"
    assert not (tmp_path / "o").exists()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = 8\n")
    if truncate:  # without a --k flag, --truncate still names what it needs
        assert main(argv + ["--config", str(cfg_file)] + truncate) == 1
        assert _single_error_line(capsys) == "error: truncate: --truncate needs a policy with --k"
    else:
        assert main(argv + ["--config", str(cfg_file)]) == 0


def test_full_capacity_policy_report_matches_topline(tmp_path):
    # k at least the chunk length means no eviction ever fires, so the
    # bounded run writes byte-identical reports to the unbounded one
    stream = write_stream(tmp_path / "s.txt", n=64)
    base = ["perplexity", "--seed", "3", "--stream", str(stream),
            "--chunk-len", "16"]
    assert main(base + ["--out-dir", str(tmp_path / "top")]) == 0
    assert main(base + ["--policy", "window", "--k", "16",
                        "--out-dir", str(tmp_path / "cap")]) == 0
    for name in ("report.txt", "chunks.csv"):
        assert (tmp_path / "cap" / name).read_bytes() == \
            (tmp_path / "top" / name).read_bytes()


def test_simulate_trace_cli_matches_in_process(tmp_path):
    from msrnn import marker_rule, parse_policy, simulate_with_rule
    kind = parse_policy("tova-layer", k=4)
    script, trace = simulate_with_rule(marker_rule(0, 0.9), kind, steps=16,
                                       n_layers=2, n_heads=2)
    script.write_csv(tmp_path / "script.csv")
    trace.write_csv(tmp_path / "expected.csv")
    assert main(["simulate-trace", "--script", str(tmp_path / "script.csv"),
                 "--policy", "tova-layer", "--k", "4",
                 "--out-dir", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "trace.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()


def test_commands_reject_flags_they_do_not_read(tmp_path, capsys):
    # analyze, memory-report and simulate-trace take only the option groups they read
    for argv in (["analyze", "lifetime", "--trace", "t.csv", "--seed", "1"],
                 ["memory-report", "--policy", "window"],
                 ["simulate-trace", "--script", "s.csv", "--stream", "s.txt"]):
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        line = _single_error_line(capsys)
        assert line == f"error: usage: unrecognized arguments: {argv[-2]} {argv[-1]}"
    assert not (tmp_path / "o").exists()
    # a config file key that another command reads is still accepted
    from msrnn import parse_policy, simulate_with_rule, uniform_rule
    _, trace = simulate_with_rule(uniform_rule, parse_policy("window", k=4), steps=8)
    trace.write_csv(tmp_path / "t.csv")
    (tmp_path / "run.cfg").write_text("seed = 5\npolicy = window\nk = 4\n")
    assert main(["analyze", "recent", "--config", str(tmp_path / "run.cfg"),
                 "--trace", str(tmp_path / "t.csv"), "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "recent.txt").read_text() == "recent_proportion 1\n"


def test_python_dash_m_runs_main(tmp_path):
    # `python -m msrnn` is main() in a child process: the same files, and
    # the same one error line and exit code
    src = str(Path(msrnn.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "msrnn", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("memory-report", "--out-dir", str(tmp_path / "child"))
    assert done.returncode == 0, done.stderr
    assert main(["memory-report", "--out-dir", str(tmp_path / "in_process")]) == 0
    assert (tmp_path / "child" / "memory.csv").read_bytes() == \
        (tmp_path / "in_process" / "memory.csv").read_bytes()
    done = run("memory-report", "--no-such-flag", "--out-dir", str(tmp_path / "o"))
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--no-such-flag" in lines[0]
    assert not (tmp_path / "o").exists()
