"""Corpus builders, model scaffolding and checkpoint edits shared across
test modules."""

import json

import numpy as np

import odnext.autograd as ag
from odnext.checkpoint import MAGIC, _stored_arrays, load_checkpoint
from odnext.data import Corpus, LocationRecord, Trip
from odnext.geo import GeoPoint
from odnext.stlstm import st_lstm_spec

DAY = 86400


def degenerate_st_weights(lstm: dict, dim: int, n_locations: int) -> dict:
    """Spatio-temporal weights that collapse onto a plain LSTM: the plain
    cell's own weights, zeroed side branches and a fusion matrix passing
    only the base cell state."""
    h = lstm["U_h"].shape[0]
    w = {s.name: ag.parameter(np.zeros(s.shape)) for s in st_lstm_spec(dim, h, n_locations)}
    w.update(lstm)
    w["W_h"].value[:h] = np.eye(h)
    return w


def user_vector(model, user: int) -> np.ndarray | None:
    """Row `user` of the model's user embedding, the vector
    `Model._predict_states` takes; None for encoder-only, which has none."""
    table = model.params.get("emb/user")
    return None if table is None else table.value[user]


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
        by_user[index[u]].append(Trip(o, d, t0, t1))
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


def stored_arrays(bundle) -> dict[str, np.ndarray]:
    """Every tensor of a loaded checkpoint under its stored name, each a
    view of the mapped file: what a save of the bundle would write."""
    return _stored_arrays(bundle.model, bundle.cache)


def tensor_offsets(path) -> dict[str, int]:
    """Where each tensor of the checkpoint at `path` starts in its payload:
    the address of its loaded view less that of the first tensor."""
    arrays = stored_arrays(load_checkpoint(str(path)))
    address = {name: a.__array_interface__["data"][0] for name, a in arrays.items()}
    start = min(address.values())
    return {name: at - start for name, at in address.items()}


def int64s(payload: bytearray, at: int, n: int) -> np.ndarray:
    """The n int64 values from byte `at` of a payload, as a view that
    edits the payload when written."""
    return np.frombuffer(payload, dtype="<i8", count=n, offset=at)
