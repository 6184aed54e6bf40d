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
from dataclasses import dataclass

import numpy as np

from .data import IntervalTables, Vocab
from .model import EncodedCache, Model, ModelConfig
from .nn import ContractViolation

MAGIC = "ODNEXT-CKPT 1"


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
    out.append(("tables/spatial", model.tables.spatial))
    out.append(("tables/temporal", model.tables.temporal))
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
    except (KeyError, TypeError, ValueError) as e:
        # ValueError covers ContractViolation from an invalid stored config
        raise CheckpointFormatError(f"{path}: incomplete or invalid header ({e})") from None

    arrays: dict[str, np.ndarray] = {}
    offset = header_end + 1
    for name, shape in specs:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
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

    for key in ("tables/spatial", "tables/temporal"):
        if key not in arrays:
            raise CheckpointFormatError(f"{path}: missing tensor {key!r}")
    tables = IntervalTables(
        spatial=arrays["tables/spatial"],
        temporal=arrays["tables/temporal"],
        d_max_km=d_max_km,
        t_max_hours=t_max_hours,
    )

    model = Model(config, vocab, tables)
    expected = {f"param/{name}" for name in model.params}
    present = {n for n in arrays if n.startswith("param/")}
    if expected != present:
        raise CheckpointFormatError(
            f"{path}: parameter set mismatch "
            f"(missing {sorted(expected - present)}, extra {sorted(present - expected)})"
        )
    for name, p in model.params.items():
        arr = arrays[f"param/{name}"]
        if arr.shape != p.value.shape:
            raise CheckpointFormatError(
                f"{path}: tensor param/{name} has shape {arr.shape}, "
                f"expected {p.value.shape}"
            )
        p.value = arr

    n_users = vocab.n_users
    states = []
    for u in range(n_users):
        key = f"cache/states/{u}"
        if key not in arrays:
            raise CheckpointFormatError(f"{path}: missing tensor {key!r}")
        states.append(arrays[key])
    cache = EncodedCache(states, oseq, dseq, last_dest, n_train)
    return CheckpointBundle(model=model, cache=cache, location_ids=loc_ids, user_ids=user_ids)
