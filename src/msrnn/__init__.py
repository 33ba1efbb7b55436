"""Bounded multi-state decoding for toy transformer models.

The key/value cache is treated as an explicit per-layer, per-head
multi-state of bounded capacity. Eviction policies decide which state to
drop when the bound is exceeded; retention traces record every append
and evict so the resulting token dynamics can be analyzed offline.
"""

from .analysis import (MemoryReport, lifetime_by_tag, memory_report,
                       read_tag_file, recent_proportion, retention_matrix,
                       token_lifetime, write_matrix_csv, write_matrix_pgm,
                       write_memory_csv)
from .harness import (ChunkResult, PerplexityReport, ScriptedTrace,
                      TokenStream, generate, marker_rule,
                      masked_parallel_perplexity, read_token_stream,
                      sequential_perplexity, simulate_with_rule,
                      trace_driven_simulate, uniform_rule,
                      write_token_stream)
from .model import (MalformedHeaderError, Model, ModelConfig, ModelWeights,
                    ShapeMismatchError, TruncatedBlobError, WeightFormatError,
                    apply_position, attention_step, decode_step,
                    init_random_model, load_weights, rms_norm, save_weights,
                    zero_model)
from .policies import (POLICY_FORMS, AccumulatedScores, PolicyKind,
                       accumulate_row, apply_policy, parse_policy,
                       recent_window)
from .remap import remap_gap, remap_positions
from .state import (ACTION_APPEND, ACTION_EVICT, MultiState, RetentionTrace,
                    StateMeta, TraceEvent)

__all__ = [
    "ACTION_APPEND", "ACTION_EVICT", "AccumulatedScores", "ChunkResult",
    "MalformedHeaderError", "MemoryReport", "Model", "ModelConfig",
    "ModelWeights", "MultiState", "POLICY_FORMS", "PerplexityReport",
    "PolicyKind", "RetentionTrace", "ScriptedTrace",
    "ShapeMismatchError", "StateMeta", "TokenStream", "TraceEvent",
    "TruncatedBlobError", "WeightFormatError", "accumulate_row",
    "apply_policy", "apply_position", "attention_step", "decode_step",
    "generate", "init_random_model", "lifetime_by_tag", "load_weights",
    "marker_rule", "masked_parallel_perplexity", "memory_report",
    "parse_policy", "read_tag_file", "read_token_stream",
    "recent_proportion", "recent_window", "remap_gap", "remap_positions",
    "retention_matrix", "rms_norm", "save_weights", "sequential_perplexity",
    "simulate_with_rule", "token_lifetime", "trace_driven_simulate",
    "uniform_rule", "write_matrix_csv", "write_matrix_pgm",
    "write_memory_csv", "write_token_stream", "zero_model",
]
