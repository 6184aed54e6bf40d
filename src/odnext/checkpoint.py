"""Checkpoint format: one magic line, one JSON header line, raw tensors.

The header carries the model configuration, the vocabulary (with the
string ids needed to answer queries by id), the interval-table scale
constants, and the per-user cache metadata.  Every float64 array (model
parameters, interval tables, cached encoder states) follows the header
as raw little-endian bytes in the order the header lists them, so a
save/load/save round trip reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import IntervalTables, Vocab
from .model import EncodedCache, Model, ModelConfig
from .nn import ContractViolation

MAGIC = "ODNEXT-CKPT 1"
_TABLES = ("tables/spatial", "tables/temporal")


class CheckpointFormatError(ValueError):
    """The file is not a readable checkpoint."""


@dataclass
class CheckpointBundle:
    model: Model
    cache: EncodedCache
    location_ids: list[str]
    user_ids: list[str]


def _tensor_list(model: Model, cache: EncodedCache) -> list[tuple[str, np.ndarray]]:
    out = [(f"param/{name}", p.value) for name, p in model.params.items()]
    out += zip(_TABLES, (model.tables.spatial, model.tables.temporal))
    for u, states in enumerate(cache.states):
        out.append((f"cache/states/{u}", states))
    return out


def save_checkpoint(
    path: str,
    model: Model,
    cache: EncodedCache,
    location_ids: list[str],
    user_ids: list[str],
) -> None:
    if len(location_ids) != model.vocab.n_locations:
        raise ContractViolation("location id list does not match the vocabulary")
    if len(user_ids) != model.vocab.n_users:
        raise ContractViolation("user id list does not match the vocabulary")
    if len(cache.states) != model.vocab.n_users:
        raise ContractViolation("cache does not cover every user")
    tensors = _tensor_list(model, cache)
    header = {
        "config": model.config.as_dict(),
        "ids": {"locations": list(location_ids), "users": list(user_ids)},
        "vocab": {
            "geohash_codes": list(model.vocab.geohash_codes),
            "loc_geohash": model.vocab.loc_geohash.tolist(),
            "n_timeslots": model.vocab.n_timeslots,
        },
        "scales": {
            "d_max_km": model.tables.d_max_km,
            "t_max_hours": model.tables.t_max_hours,
        },
        "cache": {
            "last_dest": cache.last_dest.tolist(),
            "n_train": cache.n_train.tolist(),
            "oseq": [s.tolist() for s in cache.oseq],
            "dseq": [s.tolist() for s in cache.dseq],
        },
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    with open(path, "wb") as f:
        f.write((MAGIC + "\n").encode("ascii"))
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        for _, arr in tensors:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _in_range(ids: np.ndarray, n: int) -> bool:
    return ids.size == 0 or 0 <= ids.min() <= ids.max() < n


def _check_header(vocab: Vocab, shapes: dict, cache_meta: tuple) -> None:
    """Raise ValueError where the header disagrees with itself: tensor
    shapes that are not sizes, table shapes against the location ids,
    geohash ids against the geohash codes, cache fields against the user
    count and n_train, or cached locations outside the vocabulary."""
    n_loc = vocab.n_locations
    if n_loc < 1:
        raise ValueError("no location ids")
    if not all(type(n) is int and n >= 0 for shape in shapes.values() for n in shape):
        raise ValueError("tensor shapes must be non-negative integers")
    for key in _TABLES:
        if shapes.get(key) != (n_loc, n_loc):
            raise ValueError(f"tensor {key} has shape {shapes.get(key)} for {n_loc} locations")
    if vocab.loc_geohash.shape != (n_loc,) or not _in_range(vocab.loc_geohash, vocab.n_geohashes):
        raise ValueError(f"loc_geohash is not {n_loc} ids in [0, {vocab.n_geohashes})")
    oseq, dseq, last_dest, n_train = cache_meta
    if any(len(field) != vocab.n_users for field in cache_meta):
        raise ValueError(f"cache metadata does not cover {vocab.n_users} users")
    lengths = np.maximum(n_train - 1, 0).tolist()
    if [len(o) for o in oseq] != lengths or [len(d) for d in dseq] != lengths:
        raise ValueError("cached sequence lengths do not match n_train")
    if not _in_range(np.concatenate([*oseq, *dseq, last_dest[n_train > 0]]), n_loc):
        raise ValueError(f"cached location outside [0, {n_loc})")


def load_checkpoint(path: str) -> CheckpointBundle:
    with open(path, "rb") as f:
        blob = f.read()
    newline = blob.find(b"\n")
    if newline < 0 or blob[:newline].decode("ascii", "replace") != MAGIC:
        raise CheckpointFormatError(f"{path}: missing checkpoint magic {MAGIC!r}")
    header_end = blob.find(b"\n", newline + 1)
    if header_end < 0:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[newline + 1 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"{path}: bad header ({e})") from None

    try:
        config = ModelConfig(**header["config"])
        loc_ids = list(header["ids"]["locations"])
        user_ids = list(header["ids"]["users"])
        vocab = Vocab(
            n_locations=len(loc_ids),
            n_users=len(user_ids),
            n_timeslots=int(header["vocab"]["n_timeslots"]),
            geohash_codes=list(header["vocab"]["geohash_codes"]),
            loc_geohash=np.asarray(header["vocab"]["loc_geohash"], dtype=np.int64),
            geohash_precision=config.geohash_precision,
            utc_offset_hours=config.utc_offset_hours,
        )
        specs = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        d_max_km = float(header["scales"]["d_max_km"])
        t_max_hours = float(header["scales"]["t_max_hours"])
        meta = header["cache"]
        oseq = [np.asarray(s, dtype=np.int64) for s in meta["oseq"]]
        dseq = [np.asarray(s, dtype=np.int64) for s in meta["dseq"]]
        last_dest = np.asarray(meta["last_dest"], dtype=np.int64)
        n_train = np.asarray(meta["n_train"], dtype=np.int64)
        _check_header(vocab, dict(specs), (oseq, dseq, last_dest, n_train))
    except (KeyError, TypeError, ValueError) as e:
        # ValueError covers ContractViolation from an invalid stored config
        raise CheckpointFormatError(f"{path}: incomplete or invalid header ({e})") from None

    arrays: dict[str, np.ndarray] = {}
    offset = header_end + 1
    for name, shape in specs:
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointFormatError(f"{path}: payload truncated at tensor {name!r}")
        arrays[name] = (
            np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(blob):
        raise CheckpointFormatError(f"{path}: {len(blob) - offset} trailing bytes")

    tables = IntervalTables(
        spatial=arrays["tables/spatial"],
        temporal=arrays["tables/temporal"],
        d_max_km=d_max_km,
        t_max_hours=t_max_hours,
    )

    model = Model(config, vocab, tables)
    expected = {f"param/{name}": p.value.shape for name, p in model.params.items()}
    expected.update((key, tables.spatial.shape) for key in _TABLES)
    for u, n in enumerate(n_train.tolist()):
        expected[f"cache/states/{u}"] = (2 * (n - 1) if n >= 2 else 0, model.state_dim)
    shapes = {name: arr.shape for name, arr in arrays.items()}
    if shapes != expected:
        keys = sorted(expected.keys() | shapes.keys())
        wrong = [k for k in keys if shapes.get(k) != expected.get(k)]
        raise CheckpointFormatError(f"{path}: tensors missing, extra or misshapen: {wrong}")
    for name, p in model.params.items():
        p.value = arrays[f"param/{name}"]
    states = [arrays[f"cache/states/{u}"] for u in range(len(n_train))]
    cache = EncodedCache(states, oseq, dseq, last_dest, n_train)
    return CheckpointBundle(model=model, cache=cache, location_ids=loc_ids, user_ids=user_ids)
