"""Tiny fixed instances for finite-difference gradient audits.

The instances are deliberately small (10 locations in 4 geo cells, 3
users, 4 trips each, dim=4, hidden=6) so a full central-difference sweep
over every trainable coordinate stays fast.

Seed choice matters: central differences at h=1e-5 carry irreducible
rounding noise of roughly eps*|loss|/(2h) ~ 3e-11 per coordinate.  Where
a true gradient coordinate sits near that floor, the relative-error
comparison measures noise instead of analytic correctness.  The
(corpus_seed, model_seed) pair for each variant was screened against
that, but the worst coordinate may still sit at the floor: criterion 1
names it with its analytic gradient (od-ppa's is about 2e-7).
`tests/test_kernels.py`'s oracles, which compare each fused kernel with
its unfused composition, separate analytic error from that noise.
"""

import numpy as np

import reference as ref
from odnext.baselines import ODLSTM, ODLSTMConfig
from odnext.data import (
    Corpus,
    LocationRecord,
    Trip,
    build_interval_tables,
    build_vocab,
    encoder_sequences,
)
from odnext.geo import GeoPoint
from odnext.model import Model, ModelConfig, VARIANTS

# variant -> (corpus_seed, model_seed), screened as described above
GRADCHECK_SEEDS = {
    "stod-ppa": (33, 14),
    "od-ppa": (254, 12),
    "encoder-only": (6, 11),
    "decoder-only": (21, 0),
    "user-add": (10, 16),
    "user-concat": (21, 0),
    "od-lstm": (88, 4),
}


def micro_corpus(seed):
    """10 locations spread over exactly 4 geo cells, 3 users, 4 trips each."""
    rng = np.random.default_rng([seed, 11])
    centers = [(40.0 + 0.06 * (k // 2), -74.0 + 0.06 * (k % 2)) for k in range(4)]
    locs = []
    for i in range(10):
        clat, clon = centers[i % 4]
        locs.append(
            LocationRecord(
                f"L{i}",
                GeoPoint(clat + rng.uniform(-0.005, 0.005), clon + rng.uniform(-0.005, 0.005)),
            )
        )
    users = ["u0", "u1", "u2"]
    trips = []
    for u in range(3):
        seq = []
        for j in range(4):
            o, d = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            pu = 1_599_955_200 + j * 86400 + int(rng.integers(0, 82800))
            seq.append(Trip(o, d, pu, pu + int(rng.integers(300, 3600))))
        trips.append(seq)
    return Corpus(locs, users, trips)


def micro_loss(name):
    """(params, closure) computing user 0's total cross-entropy for `name`."""
    corpus_seed, model_seed = GRADCHECK_SEEDS[name]
    corpus = micro_corpus(corpus_seed)
    vocab = build_vocab(corpus)
    assert vocab.n_geohashes == 4
    tables = build_interval_tables(corpus)
    trips0 = corpus.trips_by_user[0]
    n = float(len(trips0) - 1)
    if name == "od-lstm":
        od = ODLSTM(ODLSTMConfig(dim=4, hdim=6, seed=model_seed), vocab.n_locations)
        return od.params, lambda: ref.scale(od._loss(0, encoder_sequences(trips0)), n)
    assert name in VARIANTS
    m = Model(ModelConfig(dim=4, hdim=6, seed=model_seed, variant=name), vocab, tables)
    seqs = encoder_sequences(trips0, m.config.utc_offset_hours)
    return m.params, lambda: ref.scale(m._loss(0, seqs), n)
