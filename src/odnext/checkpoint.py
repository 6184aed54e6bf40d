"""Checkpoint format 3: one magic line, one JSON header line, raw tensors.

The header carries what is small and per model: the configuration, the
vocabulary (with the string ids needed to answer queries by id), the
interval-table scale constants, each user's `last_dest` and `n_train`,
and the list of tensors with their dtypes and shapes.  The tensors follow
the header as raw little-endian bytes in that order: the model
parameters, the two interval tables, then every user's cached origin and
destination sequences (`cache/oseq`, `cache/dseq`, int64, users one after
another), encoder states (`cache/states`, float64) and, for every variant
but encoder-only, the states' attention keys (`cache/keys`, float64, the
shape of `cache/states`).  These four are `EncodedCache`'s flat arrays
as they are: a user's rows are a view taken on access, at offsets
derived once from `n_train`.  The cached states and keys hold only for
the parameters stored with them.  Format 3 added `cache/keys`; files of
an older format are refused.  The header line is padded with spaces so
that the payload starts on a 64-byte boundary; every tensor is 8 bytes
per element, so each one starts on an 8-byte boundary, and a
save/load/save round trip reproduces the file byte for byte.

`load_checkpoint` maps the payload privately (`mmap.ACCESS_COPY`) and
wraps each tensor as a view, with no per-user work, so a load reads the
header and then only the pages that a query touches, and writing into a
loaded array never reaches the file.  `save_checkpoint` runs the
loader's own checks (`_check_header`, `_expected_tensors`), so it writes
only what a load accepts, to a temporary file next to the target that it
renames over the target: a process serving the old file keeps its mapping.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .data import IntervalTables, Vocab
from .geo import N_TIMESLOTS
from .model import EncodedCache, Model, ModelConfig, history_bounds, in_range, param_specs
from .nn import ContractViolation

MAGIC = "ODNEXT-CKPT 3"
_ALIGN = 64  # payload start; views that are not aligned leave numpy's BLAS path
_TABLES = ("tables/spatial", "tables/temporal")
_SEQUENCES = ("cache/oseq", "cache/dseq")
_F8, _I8 = "<f8", "<i8"
_int64s = partial(np.asarray, dtype=np.int64)


class CheckpointFormatError(ValueError):
    """The file is not a readable checkpoint."""


@dataclass
class CheckpointBundle:
    model: Model
    cache: EncodedCache
    location_ids: list[str]
    user_ids: list[str]


def _tensor_list(model: Model, cache: EncodedCache) -> list[tuple[str, str, np.ndarray]]:
    out = [(f"param/{name}", _F8, p.value) for name, p in model.params.items()]
    out += [(key, _F8, t) for key, t in zip(_TABLES, (model.tables.spatial, model.tables.temporal))]
    out += [(key, _I8, rows.flat) for key, rows in zip(_SEQUENCES, (cache.oseq, cache.dseq))]
    out.append(("cache/states", _F8, cache.states.flat))
    if cache.keys is not None:
        out.append(("cache/keys", _F8, cache.keys.flat))
    return out


def _header_line(header: dict) -> bytes:
    """The JSON header, padded with spaces so that the payload after its
    newline starts on an `_ALIGN`-byte boundary of the file."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    end = len(MAGIC) + 1 + len(text) + 1
    return text + b" " * (-end % _ALIGN) + b"\n"


def save_checkpoint(
    path: str,
    model: Model,
    cache: EncodedCache,
    location_ids: list[str],
    user_ids: list[str],
) -> None:
    """Check the header and tensors as `load_checkpoint` does, and that
    each array casts to its stored dtype without loss, then write
    a temporary file in the target's directory and rename it over `path`:
    a mapped file is replaced, never truncated, and a failed save leaves
    `path` as it was."""
    vocab, config = model.vocab, model.config
    tensors = _tensor_list(model, cache)
    specs = [(name, dtype, a.shape) for name, dtype, a in tensors]
    try:
        _check_header(vocab, (location_ids, user_ids), specs, cache.last_dest, cache.n_train)
    except ValueError as e:
        raise ContractViolation(str(e)) from None
    rows = int(history_bounds(cache.n_train)[-1])
    expected = _expected_tensors(config, vocab, param_specs(config, vocab), rows)
    if wrong := _mismatch(specs, expected):
        raise ContractViolation(wrong)
    if unsafe := [name for name, dtype, a in tensors if not np.can_cast(a.dtype, dtype, "safe")]:
        raise ContractViolation(f"tensors that do not cast safely to their stored dtype: {unsafe}")
    header = {
        "config": config.as_dict(),
        "ids": {"locations": list(location_ids), "users": list(user_ids)},
        "vocab": {
            "geohash_codes": list(vocab.geohash_codes),
            "loc_geohash": vocab.loc_geohash.tolist(),
            "n_timeslots": vocab.n_timeslots,
        },
        "scales": {
            "d_max_km": model.tables.d_max_km,
            "t_max_hours": model.tables.t_max_hours,
        },
        "cache": {
            "last_dest": cache.last_dest.tolist(),
            "n_train": cache.n_train.tolist(),
        },
        "tensors": [{"name": n, "dtype": dtype, "shape": list(shape)} for n, dtype, shape in specs],
    }
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        # "xb" creates the file with the mode `open(path, "wb")` would give
        with open(tmp, "xb") as f:
            f.write((MAGIC + "\n").encode("ascii"))
            f.write(_header_line(header))
            for _, dtype, arr in tensors:
                f.write(np.ascontiguousarray(arr, dtype=dtype))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _field(header: dict, section: str, key: str, convert):
    """`convert(header[section][key])`; a value it refuses names its key."""
    value = header[section][key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{section}.{key}: {e}") from None


def _check_header(vocab: Vocab, ids: tuple, specs: list, last_dest, n_train) -> None:
    """Raise ValueError where the header disagrees with itself or with the
    program: a time-slot count other than `geo.N_TIMESLOTS`, id lists that
    are not the vocabulary's size or repeat an id, tensor shapes that are
    not sizes, geohash ids against the geohash codes, cache fields against
    the user count, or a last destination outside the vocabulary."""
    n_loc = vocab.n_locations
    if n_loc < 1:
        raise ValueError("no location ids")
    if type(vocab.n_timeslots) is not int or vocab.n_timeslots != N_TIMESLOTS:
        raise ValueError(f"n_timeslots {vocab.n_timeslots!r} is not the program's {N_TIMESLOTS}")
    for what, names, n in zip(("location", "user"), ids, (n_loc, vocab.n_users)):
        if len(names) != n:
            raise ValueError(f"{len(names)} {what} ids for a vocabulary of {n}")
        if len(set(names)) != len(names):  # counted only when there are repeats
            repeated = [i for i, count in Counter(names).items() if count > 1]
            raise ValueError(f"duplicate {what} ids {repeated[:3]}")
    if not all(type(n) is int and n >= 0 for _, _, shape in specs for n in shape):
        raise ValueError("tensor shapes must be non-negative integers")
    if vocab.loc_geohash.shape != (n_loc,) or not in_range(vocab.loc_geohash, vocab.n_geohashes):
        raise ValueError(f"loc_geohash is not {n_loc} ids in [0, {vocab.n_geohashes})")
    n = vocab.n_users
    if (last_dest.shape, n_train.shape) != ((n,), (n,)):
        raise ValueError(f"cache metadata does not cover {vocab.n_users} users")
    if np.any(n_train < 0) or np.any(last_dest[n_train == 0] != -1):
        raise ValueError("n_train must be non-negative, and last_dest -1 exactly where it is 0")
    if not in_range(last_dest[n_train > 0], n_loc):
        raise ValueError(f"cached location outside [0, {n_loc})")


def _expected_tensors(config: ModelConfig, vocab: Vocab, params: list, rows: int) -> list:
    """(name, dtype, shape) of every stored tensor, in file order, for the
    declared parameters `params` and `rows` cached sequence rows in all."""
    out = [(f"param/{s.name}", _F8, s.shape) for s in params]
    out += [(key, _F8, (vocab.n_locations, vocab.n_locations)) for key in _TABLES]
    out += [(key, _I8, (rows,)) for key in _SEQUENCES]
    out.append(("cache/states", _F8, (2 * rows, config.state_dim)))
    if config.variant != "encoder-only":
        out.append(("cache/keys", _F8, (2 * rows, config.state_dim)))
    return out


def _mismatch(specs: list, expected: list) -> str | None:
    """A message naming the tensors in which two (name, dtype, shape)
    lists differ, or None where they agree."""
    if specs == expected:
        return None
    stored = {name: rest for name, *rest in specs}
    wanted = {name: rest for name, *rest in expected}
    wrong = [k for k in sorted(stored.keys() | wanted.keys()) if stored.get(k) != wanted.get(k)]
    return f"tensors missing, extra, misshapen or out of order: {wrong or 'order'}"


def _read_magic(f, path: str) -> None:
    line = f.readline(len(MAGIC) + 1).decode("ascii", "replace")
    if line == MAGIC + "\n":
        return
    family, _, version = line.rstrip("\n").rpartition(" ")
    if family == MAGIC.rpartition(" ")[0]:
        raise CheckpointFormatError(
            f"{path}: checkpoint format version {version} is not readable; this program"
            f" reads {MAGIC!r} (train again to write it)"
        )
    raise CheckpointFormatError(f"{path}: missing checkpoint magic {MAGIC!r}")


def load_checkpoint(path: str) -> CheckpointBundle:
    """Read the header and check it against itself, against the model's
    parameter declaration and against the file size; then map the file
    privately and wrap every tensor as a view of the mapping (no copy, no
    read of pages nobody touches), which the model wraps without an
    initialisation draw.  Cached locations are range-checked on the
    mapped sequences."""
    with open(path, "rb") as f:
        _read_magic(f, path)
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointFormatError(f"{path}: truncated header")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"{path}: bad header ({e})") from None

        try:
            config = ModelConfig(**header["config"])
            loc_ids = _field(header, "ids", "locations", list)
            user_ids = _field(header, "ids", "users", list)
            vocab = Vocab(
                n_locations=len(loc_ids),
                n_users=len(user_ids),
                n_timeslots=header["vocab"]["n_timeslots"],
                geohash_codes=_field(header, "vocab", "geohash_codes", list),
                loc_geohash=_field(header, "vocab", "loc_geohash", _int64s),
                geohash_precision=config.geohash_precision,
                utc_offset_hours=config.utc_offset_hours,
            )
            specs = [
                (str(t["name"]), str(t["dtype"]), tuple(t["shape"])) for t in header["tensors"]
            ]
            d_max_km = _field(header, "scales", "d_max_km", float)
            t_max_hours = _field(header, "scales", "t_max_hours", float)
            last_dest = _field(header, "cache", "last_dest", _int64s)
            n_train = _field(header, "cache", "n_train", _int64s)
            _check_header(vocab, (loc_ids, user_ids), specs, last_dest, n_train)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            # ValueError covers ContractViolation from an invalid stored config
            raise CheckpointFormatError(f"{path}: incomplete or invalid header ({e})") from None

        bounds = history_bounds(n_train)
        if (bounds < 0).any():  # a sum past int64 wraps negative first
            raise CheckpointFormatError(f"{path}: n_train sums beyond int64")
        params = param_specs(config, vocab)
        expected = _expected_tensors(config, vocab, params, int(bounds[-1]))
        if wrong := _mismatch(specs, expected):
            raise CheckpointFormatError(f"{path}: {wrong}")
        start = f.tell()
        if start % _ALIGN:
            raise CheckpointFormatError(f"{path}: payload not on a {_ALIGN}-byte boundary")
        nbytes = [8 * math.prod(shape) for _, _, shape in specs]  # checked ints
        payload, declared = os.fstat(f.fileno()).st_size - start, sum(nbytes)
        if declared > payload:
            ends = accumulate(nbytes)
            name = next(name for (name, _, _), end in zip(specs, ends) if end > payload)
            raise CheckpointFormatError(f"{path}: payload truncated at tensor {name!r}")
        if declared < payload:
            raise CheckpointFormatError(f"{path}: {payload - declared} trailing bytes")
        # private and writable, never written back; the mapping outlives f
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)

    offsets = accumulate(nbytes, initial=start)
    arrays = {
        name: np.frombuffer(mapped, dtype=dtype, count=math.prod(shape), offset=at).reshape(shape)
        for (name, dtype, shape), at in zip(specs, offsets)
    }
    n_loc = vocab.n_locations
    if not all(in_range(arrays[key], n_loc) for key in _SEQUENCES):
        raise CheckpointFormatError(f"{path}: cached location outside [0, {n_loc})")

    tables = IntervalTables(
        spatial=arrays["tables/spatial"],
        temporal=arrays["tables/temporal"],
        d_max_km=d_max_km,
        t_max_hours=t_max_hours,
    )
    values = {name[len("param/") :]: a for name, a in arrays.items() if name.startswith("param/")}
    model = Model(config, vocab, tables, values, specs=params)
    cache = EncodedCache.from_flat(
        arrays["cache/states"],
        arrays.get("cache/keys"),
        *(arrays[key] for key in _SEQUENCES),
        last_dest,
        n_train,
    )
    return CheckpointBundle(model=model, cache=cache, location_ids=loc_ids, user_ids=user_ids)
