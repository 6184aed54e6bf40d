"""The traced names of each layer and the per-layer metrics built from them.

Every name is patched where the code under test looks it up: the
encoders as globals of the modules that call them, methods on their
classes, and the data/checkpoint/evaluation/synth entry points as
module attributes (the workloads call them through the module).
"""

from __future__ import annotations

import os
import statistics

from spans import Span, Target, self_times

TAPE_SAMPLE_EVERY = 25  # count the tape of every 25th backward call


def tape_nodes(root) -> int:
    """Tensors reachable from `root` through the tape."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class _TapeSampler:
    def __init__(self):
        self.calls = 0

    def __call__(self, args, result):
        self.calls += 1
        return tape_nodes(args[0]) if self.calls % TAPE_SAMPLE_EVERY == 0 else None


def targets() -> list[Target]:
    from odnext import autograd, baselines, checkpoint, data, evaluation, model, nn, synth

    def st_steps(args, result):
        return len(args[1])

    def lstm_steps(args, result):
        return args[1].value.shape[0]

    def cache_rows(args, result):
        return sum(s.shape[0] for s in result.states)

    def saved_bytes(args, result):
        return os.path.getsize(args[0])

    return [
        Target(model, "st_lstm_encode", "stlstm.encode", st_steps),
        Target(model, "lstm_encode", "stlstm.encode", lstm_steps),
        Target(baselines, "lstm_encode", "stlstm.encode", lstm_steps),
        Target(autograd.Tensor, "backward", "autograd.backward", _TapeSampler()),
        Target(nn.Adam, "step", "nn.adam_step"),
        Target(model.Model, "fit", "model.fit"),
        Target(model.Model, "build_cache", "model.build_cache", cache_rows),
        Target(model.Model, "predict_batch", "model.predict_batch"),
        Target(model.Model, "attention", "model.attention"),
        Target(model.Model, "predict_cold", "model.predict_cold"),
        Target(baselines.ODLSTM, "fit", "baselines.odlstm_fit"),
        Target(baselines.ODLSTM, "rank_user", "baselines.odlstm_rank"),
        Target(baselines.FrequencyRanker, "fit", "baselines.freq_fit"),
        Target(baselines.FrequencyRanker, "rank_user", "baselines.freq_rank"),
        Target(evaluation.ModelRanker, "rank_user", "evaluation.model_rank"),
        Target(evaluation, "evaluate", "evaluation.evaluate"),
        Target(evaluation, "cold_start_eval", "evaluation.cold_start"),
        Target(data, "load_corpus", "data.load_corpus"),
        Target(data, "preprocess", "data.preprocess"),
        Target(data, "chronological_split", "data.split"),
        Target(data, "build_vocab", "data.vocab"),
        Target(data, "build_interval_tables", "data.tables"),
        Target(data, "build_test_queries", "data.queries"),
        Target(checkpoint, "save_checkpoint", "checkpoint.save", saved_bytes),
        Target(checkpoint, "load_checkpoint", "checkpoint.load"),
        Target(synth, "generate", "synth.generate"),
    ]


# metric -> (span name, kind).  "total": summed durations; "self": summed
# self times; "calls": number of spans; "count": summed span counts.
LAYER_METRICS = {
    "stlstm.encode_s": ("stlstm.encode", "total"),
    "stlstm.encode_calls": ("stlstm.encode", "calls"),
    "stlstm.encoded_steps": ("stlstm.encode", "count"),
    "autograd.backward_s": ("autograd.backward", "total"),
    "autograd.backward_calls": ("autograd.backward", "calls"),
    "nn.adam_step_s": ("nn.adam_step", "total"),
    "nn.adam_steps": ("nn.adam_step", "calls"),
    "model.fit_s": ("model.fit", "total"),
    "model.fit_self_s": ("model.fit", "self"),
    "model.build_cache_s": ("model.build_cache", "total"),
    "model.cache_rows": ("model.build_cache", "count"),
    "data.load_corpus_s": ("data.load_corpus", "total"),
    "data.preprocess_s": ("data.preprocess", "total"),
    "data.split_s": ("data.split", "total"),
    "data.vocab_s": ("data.vocab", "total"),
    "data.tables_s": ("data.tables", "total"),
    "data.queries_s": ("data.queries", "total"),
    "checkpoint.save_s": ("checkpoint.save", "total"),
    "checkpoint.load_s": ("checkpoint.load", "total"),
    "checkpoint.bytes": ("checkpoint.save", "count"),
    "model.predict_batch_s": ("model.predict_batch", "total"),
    "model.attention_s": ("model.attention", "total"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "total"),
    "evaluation.score_s": ("evaluation.evaluate", "self"),
    "model.predict_cold_s": ("model.predict_cold", "total"),
    "evaluation.cold_start_s": ("evaluation.cold_start", "total"),
    "baselines.odlstm_fit_s": ("baselines.odlstm_fit", "total"),
    "baselines.odlstm_rank_s": ("baselines.odlstm_rank", "total"),
    "baselines.freq_fit_s": ("baselines.freq_fit", "total"),
    "baselines.freq_rank_s": ("baselines.freq_rank", "total"),
    "synth.generate_s": ("synth.generate", "total"),
}

UNITS = {"_s": "s", "_calls": "count", "_steps": "count", "_rows": "count", "bytes": "bytes"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def unit_values(spans: list[Span]) -> dict[str, float]:
    """Every LAYER_METRICS value over the spans of one setup or pass."""
    selfs = self_times(spans)
    out = {m: 0.0 for m in LAYER_METRICS}
    index = {}
    for metric, (name, kind) in LAYER_METRICS.items():
        index.setdefault(name, []).append((metric, kind))
    for s in spans:
        for metric, kind in index.get(s.name, ()):
            if kind == "total":
                out[metric] += s.duration
            elif kind == "self":
                out[metric] += selfs[s.id]
            elif kind == "calls":
                out[metric] += 1
            elif s.count is not None:
                out[metric] += s.count
    return out


def layer_metrics(setup_units: list[list[Span]], pass_units: list[list[Span]]) -> dict:
    """Per-layer values: the median over traced setups plus the median over
    traced passes, so a layer reads as its cost per setup plus per pass."""
    out = {m: 0.0 for m in LAYER_METRICS}
    for units in (setup_units, pass_units):
        if not units:
            continue
        per_unit = [unit_values(u) for u in units]
        for m in LAYER_METRICS:
            out[m] += statistics.median(v[m] for v in per_unit)
    tape = [
        s.count
        for units in (setup_units, pass_units)
        for u in units
        for s in u
        if s.name == "autograd.backward" and s.count is not None
    ]
    out["autograd.tape_nodes_per_step"] = statistics.fmean(tape) if tape else 0.0
    return out
