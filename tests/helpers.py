"""Corpus builders, model scaffolding and checkpoint edits shared across
test modules."""

import json
import math

import numpy as np

import odnext.autograd as ag
from odnext.checkpoint import MAGIC
from odnext.data import Corpus, LocationRecord, Trip
from odnext.geo import GeoPoint
from odnext.stlstm import LSTMWeights, STLSTMWeights

DAY = 86400


def degenerate_st_weights(lstm: LSTMWeights, dim: int, n_locations: int) -> STLSTMWeights:
    """Spatio-temporal weights that collapse onto a plain LSTM: zeroed
    side branches and a fusion matrix passing only the base cell state."""
    h = lstm.hidden_dim
    w_h = np.zeros((3 * h, h))
    w_h[:h, :] = np.eye(h)
    return STLSTMWeights(
        W_x=lstm.W_x,
        U_h=lstm.U_h,
        b=lstm.b,
        W_s=ag.parameter(np.zeros((dim, 3 * h))),
        V_s=ag.parameter(np.zeros((n_locations, 3 * h))),
        U_s=ag.parameter(np.zeros((h, 3 * h))),
        b_s=ag.parameter(np.zeros(3 * h)),
        W_t=ag.parameter(np.zeros((dim, 3 * h))),
        V_t=ag.parameter(np.zeros((n_locations, 3 * h))),
        U_t=ag.parameter(np.zeros((h, 3 * h))),
        b_t=ag.parameter(np.zeros(3 * h)),
        W_h=ag.parameter(w_h),
    )


def make_locations(n, rng=None, lat0=40.0, lon0=-74.0, span=0.5):
    """n random locations near a reference point."""
    rng = rng or np.random.default_rng(7)
    out = []
    for i in range(n):
        p = GeoPoint(lat0 + span * rng.uniform(-1, 1), lon0 + span * rng.uniform(-1, 1))
        out.append(LocationRecord(f"L{i:03d}", p))
    return out


def corpus_from(trip_rows, n_locations, locations=None):
    """Build a Corpus from (user_idx, origin, dest, pickup, dropoff) rows.

    Users are named U000.. in order of first appearance; trips keep the
    given order per user, so rows should already be chronological.
    """
    locations = locations or make_locations(n_locations)
    users = []
    by_user = []
    index = {}
    for u, o, d, t0, t1 in trip_rows:
        if u not in index:
            index[u] = len(users)
            users.append(f"U{u:03d}")
            by_user.append([])
        by_user[index[u]].append(Trip(users[index[u]], o, d, t0, t1))
    return Corpus(locations=locations, users=users, trips_by_user=by_user)


def random_corpus(seed, n_users=6, n_locations=8, min_trips=2, max_trips=12):
    """Random well-formed corpus: per-user chronological trips."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        t = int(rng.integers(0, DAY))
        for _ in range(int(rng.integers(min_trips, max_trips + 1))):
            o = int(rng.integers(0, n_locations))
            d = int(rng.integers(0, n_locations))
            dur = int(rng.integers(300, 3600))
            rows.append((u, o, d, t, t + dur))
            t += dur + int(rng.integers(600, DAY))
    return corpus_from(rows, n_locations, locations=make_locations(n_locations, rng))


def split_checkpoint(blob: bytes) -> tuple[str, dict, bytes]:
    """The magic, the parsed header and the payload of a checkpoint file."""
    magic, header, payload = blob.split(b"\n", 2)
    return magic.decode("ascii"), json.loads(header), payload


def join_checkpoint(fields: dict, payload: bytes, magic: str = MAGIC) -> bytes:
    """A checkpoint file with `fields` as its header, padded as the writer
    pads it, so that the payload still starts on a 64-byte boundary."""
    head = (magic + "\n" + json.dumps(fields)).encode("utf-8")
    return head + b" " * (-(len(head) + 1) % 64) + b"\n" + payload


def tensor_offset(fields: dict, name: str) -> int:
    """Where the named tensor starts in the payload (8 bytes an element)."""
    at = 0
    for t in fields["tensors"]:
        if t["name"] == name:
            return at
        at += 8 * math.prod(t["shape"])
    raise KeyError(name)
