"""Golden outputs: one sha256 per output component over a fixed small
synthetic corpus, so that a refactor can show it changed no bit.

    PYTHONPATH=src python tests/digests.py > after.txt
    PYTHONPATH=<older checkout>/src python tests/digests.py > before.txt
    PYTHONPATH=src python tests/digests.py --compare before.txt after.txt

Every model variant, under both attention contexts, contributes its loss
curve, parameters, encoder cache, checkpoint bytes, `predict_batch` rows,
`attention` and the cache's attention `keys` (neither for encoder-only,
which does not attend), `predict_cold` rows, `predict_cold_cohort` rows
(an empty and a one-trip history included), `EvalReport`, and the
predictions of its reloaded checkpoint; od-lstm contributes its loss
curve, parameters and rankings.  A second corpus of long histories
(`long/...`), each spanning several query blocks of a causal `attend`,
adds causal stod-ppa's and od-ppa's loss curve, parameters, cache and
`predict_cold_cohort` rows.  The cache and its keys are hashed user
by user, each user's rows as one array, so a cache kept as one list
entry per user and one kept flat (views taken per user) hash alike.  The
tool calls public APIs only, so it also runs against an older `src`,
which may lack a component (an older cache holds no keys).  `--compare`
prints "no component differs" or one line per component that does:
`differs:` when both sides have it, `new:` or `gone:` when only the
second or only the first has it.  It exits 0 either way: a change need
not be bit-exact.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import numpy as np

from odnext.baselines import ODLSTM
from odnext.checkpoint import load_checkpoint, save_checkpoint
from odnext.data import Corpus, build_interval_tables, build_test_queries, build_vocab
from odnext.data import chronological_split
from odnext.evaluation import ModelRanker, evaluate
from odnext.model import ATTENTION_CONTEXTS, VARIANTS, Model, ModelConfig
from odnext.nn import TrainConfig
from odnext.synth import SynthConfig, generate

SYNTH = SynthConfig(n_users=24, n_locations=12, n_clusters=3, trips_per_user=12, n_cold_users=6)
TRAIN = dict(dim=6, hdim=6, lr=1e-2, epochs=2, seed=0)
MODEL_COMPONENTS = (
    "losses", "params", "cache", "keys", "checkpoint", "predict_batch", "attention",
    "predict_cold", "predict_cold_cohort", "eval", "reloaded",
)
ATTENDING_ONLY = ("keys", "attention")  # components encoder-only does not have
OD_LSTM_COMPONENTS = ("losses", "params", "rankings")
# 40 trips: 27 training queries per user, 39 per cold history
LONG_SYNTH = SynthConfig(n_users=8, n_locations=12, n_clusters=3, trips_per_user=40, seed=1)
LONG_USERS = 6  # trained on; the other two are the cold cohort
LONG_VARIANTS = ("stod-ppa", "od-ppa")
LONG_COMPONENTS = ("losses", "params", "cache", "predict_cold_cohort")


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _world():
    """The training corpus (the main users, one user with a single trip and
    one with none), its split, queries and tables, and the cold cohort."""
    full, _ = generate(SYNTH)
    n = SYNTH.n_users
    cold = full.trips_by_user[n:]
    corpus = Corpus(
        full.locations,
        full.users[: n + 2],
        full.trips_by_user[:n] + [cold[0][:1], []],
    )
    split = chronological_split(corpus, 0.7)
    vocab = build_vocab(corpus)
    tables = build_interval_tables(split.train)
    return corpus, split, build_test_queries(split), vocab, tables, cold + [[], cold[0][:1]]


def _long_world():
    """The long-history corpus's split and its cold cohort: the full
    histories of the users it does not train on."""
    full, _ = generate(LONG_SYNTH)
    corpus = Corpus(full.locations, full.users[:LONG_USERS], full.trips_by_user[:LONG_USERS])
    return corpus, chronological_split(corpus, 0.7), full.trips_by_user[LONG_USERS:]


def _per_user(cache, rows) -> list:
    return [rows[u] for u in range(len(cache.n_train))]


def _fitted(model, train) -> tuple[dict[str, str], object]:
    """Fit `model`; the digests of its loss curve, parameters and cache,
    and the cache."""
    model.fit(train)
    cache = model.build_cache(train)
    out = {
        "losses": _sha(np.array(model.loss_curve)),
        "params": _sha(*(model.params[k].value for k in sorted(model.params))),
        "cache": _sha(
            *_per_user(cache, cache.states),
            *_per_user(cache, cache.oseq),
            *_per_user(cache, cache.dseq),
            cache.last_dest,
            cache.n_train,
        ),
    }
    return out, cache


def _model_digests(model, corpus, split, queries, cohort, workdir) -> dict[str, str]:
    out, cache = _fitted(model, split.train)
    asked = [
        (u, [x.origin for x in q], [x.prev_dest for x in q]) for u, q in enumerate(queries) if q
    ]

    def batches(m, c):
        return [m.predict_batch(c, u, origins, dprevs) for u, origins, dprevs in asked]

    out |= {
        "predict_batch": _sha(*batches(model, cache)),
        "eval": _text_sha(repr(evaluate(ModelRanker(model, cache), queries))),
    }
    if getattr(cache, "keys", None) is not None:  # kept apart from "cache"
        out["keys"] = _sha(*_per_user(cache, cache.keys))
    if model.config.variant != "encoder-only":
        out["attention"] = _sha(
            *(
                a
                for u, origins, dprevs in asked
                for o, d in zip(origins, dprevs)
                for a in model.attention(cache, u, o, d)
            )
        )
    out["predict_cold"] = _sha(
        *(
            model.predict_cold(trips[:j], trips[j].origin_loc, trips[j - 1].dest_loc)
            for trips in cohort
            for j in range(1, len(trips))
        )
    )
    out["predict_cold_cohort"] = _sha(*model.predict_cold_cohort(cohort))
    path = os.path.join(workdir, "model.ckpt")
    save_checkpoint(path, model, cache, [r.loc_id for r in corpus.locations], corpus.users)
    with open(path, "rb") as f:
        out["checkpoint"] = hashlib.sha256(f.read()).hexdigest()
    bundle = load_checkpoint(path)
    out["reloaded"] = _sha(*batches(bundle.model, bundle.cache))
    return out


def digests() -> dict[str, str]:
    """Component name -> sha256 of that output."""
    corpus, split, queries, vocab, tables, cohort = _world()
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for variant in VARIANTS:
            for context in ATTENTION_CONTEXTS:
                cfg = ModelConfig(**TRAIN, variant=variant, attention_context=context)
                model = Model(cfg, vocab, tables)
                parts = _model_digests(model, corpus, split, queries, cohort, workdir)
                out.update((f"{variant}/{context}/{name}", v) for name, v in parts.items())
    od = ODLSTM(TrainConfig(**TRAIN), vocab.n_locations)
    od.fit(split.train)
    rankings = [r for u, q in enumerate(queries) for r in od.rank_user(u, q)]
    out["od-lstm/losses"] = _sha(np.array(od.loss_curve))
    out["od-lstm/params"] = _sha(*(od.params[k].value for k in sorted(od.params)))
    out["od-lstm/rankings"] = _sha(*rankings)
    corpus, split, cohort = _long_world()
    vocab, tables = build_vocab(corpus), build_interval_tables(split.train)
    for variant in LONG_VARIANTS:
        cfg = ModelConfig(**TRAIN, variant=variant, attention_context="causal")
        model = Model(cfg, vocab, tables)
        parts, _ = _fitted(model, split.train)
        parts["predict_cold_cohort"] = _sha(*model.predict_cold_cohort(cohort))
        out.update((f"long/{variant}/causal/{name}", v) for name, v in parts.items())
    return out


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return dict(line.split() for line in f if line.strip())


def differing(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """Components whose digests differ or that only one side has."""
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def comparison(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """One line per component of `differing`: `new:` when only `after` has
    it, `gone:` when only `before` has it, `differs:` otherwise."""
    return [
        f"{'new' if k not in before else 'gone' if k not in after else 'differs'}: {k}"
        for k in differing(before, after)
    ]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        lines = comparison(_read(argv[1]), _read(argv[2]))
        print("\n".join(lines) if lines else "no component differs")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    for name, value in digests().items():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
