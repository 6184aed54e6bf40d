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
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import IntervalTables, Vocab
from .geo import N_TIMESLOTS
from .model import EncodedCache, Model, ModelConfig, param_specs
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


def _check_header(vocab: Vocab, specs: list, cache_meta: tuple) -> None:
    """Raise ValueError where the header disagrees with itself or with the
    program: a time-slot count other than `geo.N_TIMESLOTS`, tensor
    shapes that are not sizes, geohash ids against the geohash codes,
    cache fields against the user count and n_train, or cached locations
    outside the vocabulary."""
    n_loc = vocab.n_locations
    if n_loc < 1:
        raise ValueError("no location ids")
    if type(vocab.n_timeslots) is not int or vocab.n_timeslots != N_TIMESLOTS:
        raise ValueError(f"n_timeslots {vocab.n_timeslots!r} is not the program's {N_TIMESLOTS}")
    if not all(type(n) is int and n >= 0 for _, shape in specs for n in shape):
        raise ValueError("tensor shapes must be non-negative integers")
    if vocab.loc_geohash.shape != (n_loc,) or not _in_range(vocab.loc_geohash, vocab.n_geohashes):
        raise ValueError(f"loc_geohash is not {n_loc} ids in [0, {vocab.n_geohashes})")
    oseq, dseq, last_dest, n_train = cache_meta
    n = vocab.n_users
    if (len(oseq), len(dseq), last_dest.shape, n_train.shape) != (n, n, (n,), (n,)):
        raise ValueError(f"cache metadata does not cover {vocab.n_users} users")
    if np.any(n_train < 0) or np.any(last_dest[n_train == 0] != -1):
        raise ValueError("n_train must be non-negative, and last_dest -1 exactly where it is 0")
    lengths = np.maximum(n_train - 1, 0).tolist()
    if [len(o) for o in oseq] != lengths or [len(d) for d in dseq] != lengths:
        raise ValueError("cached sequence lengths do not match n_train")
    if not _in_range(np.concatenate([*oseq, *dseq, last_dest[n_train > 0]]), n_loc):
        raise ValueError(f"cached location outside [0, {n_loc})")


def _expected_tensors(config: ModelConfig, vocab: Vocab, n_train: np.ndarray) -> list:
    """(name, shape) of every stored tensor, in file order."""
    out = [(f"param/{s.name}", s.shape) for s in param_specs(config, vocab)]
    out += [(key, (vocab.n_locations, vocab.n_locations)) for key in _TABLES]
    for u, n in enumerate(n_train.tolist()):
        out.append((f"cache/states/{u}", (2 * (n - 1) if n >= 2 else 0, config.state_dim)))
    return out


def load_checkpoint(path: str) -> CheckpointBundle:
    """Read the header and check it against itself, against the model's
    parameter declaration and against the file size before allocating;
    then read every tensor straight into its own array (no intermediate
    bytes, no copy), which the model wraps without an initialisation draw."""
    with open(path, "rb") as f:
        if f.readline(len(MAGIC) + 1).decode("ascii", "replace") != MAGIC + "\n":
            raise CheckpointFormatError(f"{path}: missing checkpoint magic {MAGIC!r}")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointFormatError(f"{path}: truncated header")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"{path}: bad header ({e})") from None

        try:
            config = ModelConfig(**header["config"])
            loc_ids = list(header["ids"]["locations"])
            user_ids = list(header["ids"]["users"])
            vocab = Vocab(
                n_locations=len(loc_ids),
                n_users=len(user_ids),
                n_timeslots=header["vocab"]["n_timeslots"],
                geohash_codes=list(header["vocab"]["geohash_codes"]),
                loc_geohash=np.asarray(header["vocab"]["loc_geohash"], dtype=np.int64),
                geohash_precision=config.geohash_precision,
                utc_offset_hours=config.utc_offset_hours,
            )
            specs = [(str(t["name"]), tuple(t["shape"])) for t in header["tensors"]]
            d_max_km = float(header["scales"]["d_max_km"])
            t_max_hours = float(header["scales"]["t_max_hours"])
            meta = header["cache"]
            oseq = [np.asarray(s, dtype=np.int64) for s in meta["oseq"]]
            dseq = [np.asarray(s, dtype=np.int64) for s in meta["dseq"]]
            last_dest = np.asarray(meta["last_dest"], dtype=np.int64)
            n_train = np.asarray(meta["n_train"], dtype=np.int64)
            _check_header(vocab, specs, (oseq, dseq, last_dest, n_train))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            # ValueError covers ContractViolation from an invalid stored config
            raise CheckpointFormatError(f"{path}: incomplete or invalid header ({e})") from None

        expected = _expected_tensors(config, vocab, n_train)
        if specs != expected:
            stored, wanted = dict(specs), dict(expected)
            keys = sorted(stored.keys() | wanted.keys())
            wrong = [k for k in keys if stored.get(k) != wanted.get(k)]
            raise CheckpointFormatError(
                f"{path}: tensors missing, extra, misshapen or out of order: {wrong or 'order'}"
            )
        nbytes = [8 * math.prod(shape) for _, shape in specs]  # checked ints
        payload, declared = os.fstat(f.fileno()).st_size - f.tell(), sum(nbytes)
        if declared > payload:
            ends = accumulate(nbytes)
            name = next(name for (name, _), end in zip(specs, ends) if end > payload)
            raise CheckpointFormatError(f"{path}: payload truncated at tensor {name!r}")
        if declared < payload:
            raise CheckpointFormatError(f"{path}: {payload - declared} trailing bytes")
        # One array per tensor rather than views of one payload-sized
        # buffer: freed blocks that large fragment the heap, and a serving
        # process's peak RSS then varied by up to 20 MB from run to run.
        arrays: dict[str, np.ndarray] = {}
        for name, shape in specs:
            a = arrays[name] = np.empty(shape, dtype="<f8")
            if f.readinto(a) != a.nbytes:
                raise CheckpointFormatError(f"{path}: payload changed while it was read")

    tables = IntervalTables(
        spatial=arrays["tables/spatial"],
        temporal=arrays["tables/temporal"],
        d_max_km=d_max_km,
        t_max_hours=t_max_hours,
    )
    params = {name[len("param/") :]: a for name, a in arrays.items() if name.startswith("param/")}
    model = Model(config, vocab, tables, params)
    states = [arrays[f"cache/states/{u}"] for u in range(len(n_train))]
    cache = EncodedCache(states, oseq, dseq, last_dest, n_train)
    return CheckpointBundle(model=model, cache=cache, location_ids=loc_ids, user_ids=user_ids)
