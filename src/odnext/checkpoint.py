"""Checkpoint format 4: one magic line, one JSON header line, raw tensors.

The header holds only what the program cannot derive: the configuration,
the location and user ids and the geohash codes; a load ignores any
other key.  No tensor table is stored: the tensors
follow as raw little-endian bytes, 8 per element, in the order and with
the shapes that `_expected_tensors` derives from the header.  They are
the model parameters, the two interval tables, each location's geohash id
(`vocab/loc_geohash`), each user's last destination and training-trip
count (`cache/last_dest`, `cache/n_train`), then every user's cached
origin and destination sequences (`cache/oseq`, `cache/dseq`, int64),
encoder states (`cache/states`, float64) and, for every variant but
encoder-only, the states' attention keys (`cache/keys`, float64, the
shape of `cache/states`).  The last four are `EncodedCache`'s flat arrays
as they are, users one after another, so their lengths follow from the
stored `n_train`; a user's rows are a view taken on access.  The cached
states and keys hold only for the parameters stored with them.  Files of
an older format are refused.  The header line is padded with spaces so
that the payload starts on a 64-byte boundary, so each tensor starts on
an 8-byte one, and a save/load/save round trip reproduces the file.

`load_checkpoint` checks that the payload holds the tensors whose shapes
the header fixes, maps the file privately (`mmap.ACCESS_COPY`), reads
`n_train` there and then requires the exact payload size.  Every tensor
is a view of the mapping, with no per-user work, so a load reads the
header and then only the pages that a query touches, and writing into a
loaded array never reaches the file.  `save_checkpoint` takes the
tensors by name (`_stored_arrays`) and runs the loader's own checks, so
it writes only what a load accepts, in the declared order, to a
temporary file next to the target that it renames over the target: a
process serving the old file keeps its mapping.  This module is the one
that knows the stored layout: a loaded model wraps its views unchecked.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import IntervalTables, Vocab
from .model import EncodedCache, Model, ModelConfig, history_bounds, in_range, param_specs
from .nn import ContractViolation

MAGIC = "ODNEXT-CKPT 4"
_ALIGN = 64  # payload start; views that are not aligned leave numpy's BLAS path
_TABLES = ("tables/spatial", "tables/temporal")
_INDICES = ("vocab/loc_geohash", "cache/last_dest", "cache/n_train")
_SEQUENCES = ("cache/oseq", "cache/dseq")
# appended to a refusal of bytes read where the header's sizes put them
_CAUSE = "the header's config or ids may not match the payload"
_F8, _I8 = "<f8", "<i8"


class CheckpointFormatError(ValueError):
    """The file is not a readable checkpoint."""


@dataclass
class CheckpointBundle:
    model: Model
    cache: EncodedCache
    location_ids: list[str]
    user_ids: list[str]


def _stored_arrays(model: Model, cache: EncodedCache) -> dict[str, np.ndarray]:
    """Name -> array of every tensor a save writes; `_expected_tensors`
    gives their order, dtypes and shapes."""
    out = {f"param/{name}": p.value for name, p in model.params.items()}
    out |= zip(_TABLES, (model.tables.spatial, model.tables.temporal))
    out |= zip(_INDICES, (model.vocab.loc_geohash, cache.last_dest, cache.n_train))
    out |= {key: rows.flat for key, rows in zip(_SEQUENCES, (cache.oseq, cache.dseq))}
    out["cache/states"] = cache.states.flat
    if cache.keys is not None:
        out["cache/keys"] = cache.keys.flat
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
    """Check the header and tensors as `load_checkpoint` does: the arrays
    of `_stored_arrays` must be the tensors of `_expected_tensors`, by
    name and shape, each casting to its stored dtype without loss.  Then
    write them in the declared order to a temporary file in the target's
    directory and rename it over `path`: a mapped file is replaced, never
    truncated, and a failed save leaves `path` as it was."""
    vocab, config = model.vocab, model.config
    arrays = _stored_arrays(model, cache)
    try:
        _check_header(vocab, (location_ids, user_ids))
    except ValueError as e:
        raise ContractViolation(str(e)) from None
    fixed, per_row = _expected_tensors(config, vocab, param_specs(config, vocab))
    layout = fixed + _cached_shapes(per_row, int(history_bounds(cache.n_train)[-1]))
    stored = {(name, np.shape(a)) for name, a in arrays.items()}
    if wrong := sorted({name for name, _ in stored ^ {(k, s) for k, _, s in layout}}):
        raise ContractViolation(f"tensors missing, extra or misshapen: {wrong}")
    if unsafe := [k for k, dtype, _ in layout if not np.can_cast(arrays[k].dtype, dtype, "safe")]:
        raise ContractViolation(f"tensors that do not cast safely to their stored dtype: {unsafe}")
    try:
        _check_indices(vocab, cache.last_dest, cache.n_train)
        _check_cached(vocab.n_locations, cache.oseq.flat, cache.dseq.flat)
    except ValueError as e:
        raise ContractViolation(str(e)) from None
    header = {
        "config": config.as_dict(),
        "ids": {"locations": list(location_ids), "users": list(user_ids)},
        "vocab": {"geohash_codes": list(vocab.geohash_codes)},
    }
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        # "xb" creates the file with the mode `open(path, "wb")` would give
        with open(tmp, "xb") as f:
            f.write((MAGIC + "\n").encode("ascii"))
            f.write(_header_line(header))
            for name, dtype, _ in layout:
                f.write(np.ascontiguousarray(arrays[name], dtype=dtype))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _field(header: dict, section: str, key: str) -> list:
    """`header[section][key]`, which must be a JSON array; another value names its key."""
    value = header[section][key]
    if type(value) is not list:
        raise ValueError(f"{section}.{key} must be a JSON array, not {type(value).__name__}")
    return value


def _check_header(vocab: Vocab, ids: tuple) -> None:
    """Raise ValueError where the header disagrees with itself or with the
    program: no location ids, or id lists that are not the vocabulary's
    size, hold an id that is not a string or repeat an id."""
    n_loc = vocab.n_locations
    if n_loc < 1:
        raise ValueError("no location ids")
    for what, names, n in zip(("location", "user"), ids, (n_loc, vocab.n_users)):
        if len(names) != n:
            raise ValueError(f"{len(names)} {what} ids for a vocabulary of {n}")
        try:
            "".join(names)  # one C pass that stops at the first non-string
        except TypeError:
            raise ValueError(f"{what} ids must be strings") from None
        if len(set(names)) != len(names):  # counted only when there are repeats
            repeated = [i for i, count in Counter(names).items() if count > 1]
            raise ValueError(f"duplicate {what} ids {repeated[:3]}")


def _check_indices(vocab: Vocab, last_dest: np.ndarray, n_train: np.ndarray) -> None:
    """Raise ValueError where the index arrays, of the shapes
    `_expected_tensors` gives them, disagree with the header: a geohash id
    outside the geohash codes, a negative `n_train`, or a last destination
    that is not -1 exactly where `n_train` is 0 and a location elsewhere."""
    n_loc = vocab.n_locations
    if not in_range(vocab.loc_geohash, vocab.n_geohashes):
        raise ValueError(f"loc_geohash is not {n_loc} ids in [0, {vocab.n_geohashes})")
    if (n_train < 0).any() or (last_dest[n_train == 0] != -1).any():
        raise ValueError("n_train must be non-negative, and last_dest -1 exactly where it is 0")
    if not in_range(last_dest[n_train > 0], n_loc):
        raise ValueError(f"cached location outside [0, {n_loc})")


def _check_cached(n_loc: int, oseq: np.ndarray, dseq: np.ndarray) -> None:
    """Raise ValueError where a cached origin or destination is not a location."""
    if not (in_range(oseq, n_loc) and in_range(dseq, n_loc)):
        raise ValueError(f"cached location outside [0, {n_loc})")


def _expected_tensors(config: ModelConfig, vocab: Vocab, params: list) -> tuple[list, list]:
    """(fixed, per_row): (name, dtype, shape) of every stored tensor, in
    file order, for the declared parameters `params`.  The header fixes
    the shapes in `fixed`, which ends with `cache/n_train`; the cached
    tensors of `per_row` follow, each shape given for one cached sequence
    row (`_cached_shapes`)."""
    n_loc, n_users = vocab.n_locations, vocab.n_users
    fixed = [(f"param/{s.name}", _F8, s.shape) for s in params]
    fixed += [(key, _F8, (n_loc, n_loc)) for key in _TABLES]
    fixed += [(key, _I8, (n,)) for key, n in zip(_INDICES, (n_loc, n_users, n_users))]
    per_row = [(key, _I8, (1,)) for key in _SEQUENCES]
    per_row.append(("cache/states", _F8, (2, config.state_dim)))
    if config.variant != "encoder-only":
        per_row.append(("cache/keys", _F8, (2, config.state_dim)))
    return fixed, per_row


def _cached_shapes(per_row: list, rows: int) -> list:
    """`per_row` for `rows` cached sequence rows in all."""
    return [(name, dtype, (k * rows, *rest)) for name, dtype, (k, *rest) in per_row]


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


def _sizes(path: str, specs: list, at: int, end: int) -> list[int]:
    """Each tensor's size in bytes, for `specs` stored from byte `at` of a
    file of `end` bytes on; the first tensor that ends beyond the file is
    named in a CheckpointFormatError, with the header as a possible cause:
    its config and ids fix every size."""
    sizes = [8 * math.prod(shape) for _, _, shape in specs]
    if at + sum(sizes) > end:
        name = next(name for (name, _, _), n in zip(specs, accumulate(sizes)) if at + n > end)
        raise CheckpointFormatError(f"{path}: payload truncated at tensor {name!r} ({_CAUSE})")
    return sizes


def _views(mapped: mmap.mmap, specs: list, sizes: list[int], at: int) -> list[np.ndarray]:
    """One view of the mapping per tensor of `specs`, the first at byte `at`."""
    offsets = accumulate(sizes, initial=at)
    return [np.ndarray(shape, dtype, mapped, o) for (_, dtype, shape), o in zip(specs, offsets)]


def load_checkpoint(path: str) -> CheckpointBundle:
    """Read the header and check it against itself and the program; check
    that the payload holds the tensors whose shapes the header fixes, then
    map the file privately and wrap every tensor as a view of the mapping
    (no copy, no read of pages nobody touches), which the model wraps
    without an initialisation draw.  The index arrays are checked on the
    mapping, and the stored `n_train` fixes the cached tensors' lengths
    and so the exact payload size."""
    with open(path, "rb") as f:
        _read_magic(f, path)
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointFormatError(f"{path}: truncated header")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointFormatError(f"{path}: bad header ({e})") from None

        try:
            config = ModelConfig(**header["config"])
            ids = _field(header, "ids", "locations"), _field(header, "ids", "users")
            vocab = Vocab(
                n_locations=len(ids[0]),
                n_users=len(ids[1]),
                geohash_codes=_field(header, "vocab", "geohash_codes"),
                loc_geohash=None,  # read from the payload, once it is mapped
            )
            _check_header(vocab, ids)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            # ValueError covers ContractViolation from an invalid stored config
            raise CheckpointFormatError(f"{path}: incomplete or invalid header ({e})") from None

        start = f.tell()
        if start % _ALIGN:
            raise CheckpointFormatError(f"{path}: payload not on a {_ALIGN}-byte boundary")
        end = os.fstat(f.fileno()).st_size
        params = param_specs(config, vocab)
        fixed, per_row = _expected_tensors(config, vocab, params)
        sizes = _sizes(path, fixed, start, end)
        # private and writable, never written back; the mapping outlives f
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)

    views = _views(mapped, fixed, sizes, start)
    *values, spatial, temporal, loc_geohash, last_dest, n_train = views
    vocab.loc_geohash = loc_geohash
    try:
        _check_indices(vocab, last_dest, n_train)
    except ValueError as e:  # read at offsets that the header's config and id counts fix
        raise CheckpointFormatError(f"{path}: {e} ({_CAUSE})") from None
    bounds = history_bounds(n_train)
    if (bounds < 0).any():  # a sum past int64 wraps negative first
        raise CheckpointFormatError(f"{path}: n_train sums beyond int64")
    cached = _cached_shapes(per_row, int(bounds[-1]))
    at = start + sum(sizes)
    sizes = _sizes(path, cached, at, end)
    if trailing := end - at - sum(sizes):
        raise CheckpointFormatError(f"{path}: {trailing} trailing bytes ({_CAUSE})")
    oseq, dseq, states, *keys = _views(mapped, cached, sizes, at)
    try:
        _check_cached(vocab.n_locations, oseq, dseq)
    except ValueError as e:
        raise CheckpointFormatError(f"{path}: {e}") from None

    tables = IntervalTables(spatial=spatial, temporal=temporal)
    model = Model(config, vocab, tables, dict(zip((s.name for s in params), values)))
    keys = keys[0] if keys else None
    cache = EncodedCache.from_flat(states, keys, oseq, dseq, last_dest, n_train)
    return CheckpointBundle(model=model, cache=cache, location_ids=ids[0], user_ids=ids[1])
