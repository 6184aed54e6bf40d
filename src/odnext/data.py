"""Trip corpus ingestion, filtering, chronological splitting, and the
per-location interval tables over the whole corpus.

File formats (UTF-8 CSV with headers):
  trips:     user_id,origin_id,dest_id,pickup_ts,dropoff_ts
  locations: loc_id,lat,lon
Both are read by `_csv_rows` (header, row width, blank rows skipped) and
written by `_write_csv`; each loader checks only its own fields.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geo import GeoPoint, geohash_encode, haversine_km, timeslots, N_TIMESLOTS

log = logging.getLogger(__name__)

TRIPS_HEADER = ["user_id", "origin_id", "dest_id", "pickup_ts", "dropoff_ts"]
LOCATIONS_HEADER = ["loc_id", "lat", "lon"]
_TS_RANGE = np.iinfo(np.int64)  # timestamps are held as int64 epoch seconds


class CorpusFormatError(ValueError):
    """Malformed input file; message carries file and line context."""


@dataclass(frozen=True)
class Trip:
    """One origin->destination taxi record (location fields are indices).
    Its user is the `Corpus.trips_by_user` list that holds it."""

    origin_loc: int
    dest_loc: int
    pickup_ts: int
    dropoff_ts: int


@dataclass(frozen=True)
class LocationRecord:
    loc_id: str
    point: GeoPoint


@dataclass
class Corpus:
    """Location/user tables plus per-user time-ordered trip sequences."""

    locations: list[LocationRecord]
    users: list[str]
    trips_by_user: list[list[Trip]]

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_trips(self) -> int:
        return sum(len(t) for t in self.trips_by_user)

    @property
    def is_empty(self) -> bool:
        return self.n_users == 0


def _sort_trips(trips: list[Trip]) -> list[Trip]:
    # ties: dropoff, then input order (stable sort)
    return sorted(trips, key=lambda t: (t.pickup_ts, t.dropoff_ts))


def _csv_rows(path: str, header: list[str]):
    """(line, fields) of each non-blank row of the CSV at `path` after its
    header `header`, each of its width; the line, where a row ends (a quoted
    field may span lines), also names a row that the csv module refuses."""
    with open(path, newline="", encoding="utf-8") as f:
        reader, width = csv.reader(f), len(header)
        try:
            if next(reader, None) != header:
                raise CorpusFormatError(f"{path}:1: expected header {','.join(header)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise CorpusFormatError(f"{path}:{reader.line_num}: expected {width} fields")
                yield reader.line_num, row
        except csv.Error as e:
            raise CorpusFormatError(f"{path}:{reader.line_num}: {e}") from None


def load_locations(locations_path: str) -> list[LocationRecord]:
    """Parse the location CSV; ids must be unique, coordinates valid."""
    locations: list[LocationRecord] = []
    seen: set[str] = set()
    for lineno, (loc_id, lat_s, lon_s) in _csv_rows(locations_path, LOCATIONS_HEADER):
        if loc_id in seen:
            raise CorpusFormatError(f"{locations_path}:{lineno}: duplicate loc_id {loc_id}")
        try:
            point = GeoPoint(float(lat_s), float(lon_s))
        except ValueError as e:
            raise CorpusFormatError(f"{locations_path}:{lineno}: {e}") from None
        seen.add(loc_id)
        locations.append(LocationRecord(loc_id, point))
    return locations


def load_trip_rows(trips_path: str) -> list[tuple[int, str, str, str, int, int]]:
    """Parse the trip CSV into raw (line, user, origin, dest, pickup,
    dropoff) rows without resolving location ids; timestamps must fit in
    int64.  The line is `_csv_rows`'s, for later messages."""
    rows: list[tuple[int, str, str, str, int, int]] = []
    for lineno, (user_id, origin_id, dest_id, pu_s, do_s) in _csv_rows(trips_path, TRIPS_HEADER):
        try:
            pickup, dropoff = int(pu_s), int(do_s)
        except ValueError:
            raise CorpusFormatError(
                f"{trips_path}:{lineno}: timestamps must be integer epoch seconds"
            ) from None
        if dropoff < pickup:
            raise CorpusFormatError(f"{trips_path}:{lineno}: dropoff before pickup")
        if pickup < _TS_RANGE.min or dropoff > _TS_RANGE.max:
            raise CorpusFormatError(
                f"{trips_path}:{lineno}: timestamps must lie in "
                f"[{_TS_RANGE.min}, {_TS_RANGE.max}] epoch seconds"
            )
        rows.append((lineno, user_id, origin_id, dest_id, pickup, dropoff))
    return rows


def load_corpus(trips_path: str, locations_path: str) -> Corpus:
    """Parse the two CSV files into an index-based Corpus."""
    locations = load_locations(locations_path)
    loc_index = {rec.loc_id: i for i, rec in enumerate(locations)}

    users: list[str] = []
    user_index: dict[str, int] = {}
    trips_by_user: dict[int, list[Trip]] = {}
    for lineno, user_id, origin_id, dest_id, pickup, dropoff in load_trip_rows(trips_path):
        for loc_id in (origin_id, dest_id):
            if loc_id not in loc_index:
                raise CorpusFormatError(f"{trips_path}:{lineno}: unknown loc_id {loc_id!r}")
        if user_id not in user_index:
            user_index[user_id] = len(users)
            users.append(user_id)
            trips_by_user[user_index[user_id]] = []
        trips_by_user[user_index[user_id]].append(
            Trip(loc_index[origin_id], loc_index[dest_id], pickup, dropoff)
        )

    return Corpus(
        locations=locations,
        users=users,
        trips_by_user=[_sort_trips(trips_by_user[i]) for i in range(len(users))],
    )


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def save_locations(corpus: Corpus, locations_path: str) -> None:
    rows = ([r.loc_id, repr(r.point.lat), repr(r.point.lon)] for r in corpus.locations)
    _write_csv(locations_path, LOCATIONS_HEADER, rows)


def save_trips(corpus: Corpus, trips_path: str) -> None:
    users, locs = corpus.users, corpus.locations
    rows = (
        [users[u], locs[t.origin_loc].loc_id, locs[t.dest_loc].loc_id, t.pickup_ts, t.dropoff_ts]
        for u, trips in enumerate(corpus.trips_by_user)
        for t in trips
    )
    _write_csv(trips_path, TRIPS_HEADER, rows)


def save_corpus(corpus: Corpus, trips_path: str, locations_path: str) -> None:
    save_locations(corpus, locations_path)
    save_trips(corpus, trips_path)


def preprocess(corpus: Corpus, min_trips: int = 10, min_users: int = 10) -> Corpus:
    """Iteratively drop sparse users and locations until a fixpoint.

    A surviving user has >= min_trips >= 1 trips; a surviving location is
    visited (as origin or destination) by >= min_users >= 0 distinct users.
    Dropping a location drops the trips that touch it, which can drop a
    user, and so on.  Index spaces are re-compacted in the result.
    """
    for name, value, bound in (("min_trips", min_trips, 1), ("min_users", min_users, 0)):
        if value < bound:
            raise ValueError(f"{name} must be at least {bound}, got {value}")
    user_trips = dict(enumerate(corpus.trips_by_user))
    alive_locs = set(range(corpus.n_locations))
    while True:
        user_trips = {u: trips for u, trips in user_trips.items() if len(trips) >= min_trips}
        visitors: dict[int, set[int]] = {loc: set() for loc in alive_locs}
        for u, trips in user_trips.items():
            for t in trips:
                visitors[t.origin_loc].add(u)
                visitors[t.dest_loc].add(u)
        dead = {loc for loc, users in visitors.items() if len(users) < min_users}
        if not dead:
            break
        alive_locs -= dead
        user_trips = {
            u: [t for t in trips if t.origin_loc in alive_locs and t.dest_loc in alive_locs]
            for u, trips in user_trips.items()
        }
    loc_map = {old: new for new, old in enumerate(sorted(alive_locs))}
    kept_users = sorted(user_trips)
    result = Corpus(
        locations=[corpus.locations[old] for old in sorted(alive_locs)],
        users=[corpus.users[u] for u in kept_users],
        trips_by_user=[
            [
                Trip(loc_map[t.origin_loc], loc_map[t.dest_loc], t.pickup_ts, t.dropoff_ts)
                for t in user_trips[u]
            ]
            for u in kept_users
        ],
    )
    if result.is_empty:
        log.warning(
            "preprocess removed every user (min_trips=%d, min_users=%d)", min_trips, min_users
        )
    return result


@dataclass
class SplitResult:
    """Chronological per-user partition; both corpora share index spaces."""

    train: Corpus
    test: Corpus
    flagged_users: list[int] = field(default_factory=list)  # users with no test trips


def chronological_split(corpus: Corpus, train_ratio: float = 0.7) -> SplitResult:
    """First ceil(train_ratio * n) trips per user go to train, rest to test."""
    train_trips: list[list[Trip]] = []
    test_trips: list[list[Trip]] = []
    flagged: list[int] = []
    for u, trips in enumerate(corpus.trips_by_user):
        n_train = math.ceil(train_ratio * len(trips))
        train_trips.append(trips[:n_train])
        test_trips.append(trips[n_train:])
        if n_train == len(trips):
            flagged.append(u)
    train = Corpus(corpus.locations, corpus.users, train_trips)
    test = Corpus(corpus.locations, corpus.users, test_trips)
    return SplitResult(train, test, flagged)


@dataclass
class Sequences:
    """Encoder inputs of one history, in the vocabulary's index space: the
    origins and pickup slots of one run of trips, the destinations and
    dropoff slots of another of the same length, and as targets the
    destinations of the origin run."""

    oseq: np.ndarray
    dseq: np.ndarray
    o_slots: np.ndarray
    d_slots: np.ndarray
    targets: np.ndarray


def encoder_sequences(
    trips: list[Trip], utc_offset_hours: int = 0, aligned: bool = False
) -> Sequences:
    """The two encoder sequences of a time-ordered history.

    By default origins o_2..o_n and destinations d_1..d_(n-1): the first
    origin and last destination are dropped so that both align one to
    one with the prediction targets d_2..d_n (all empty below two trips).
    `aligned` keeps every trip on both sides instead, as a cold-start
    prefix is encoded.
    """
    o_trips, d_trips = (trips, trips) if aligned else (trips[1:], trips[:-1])
    return Sequences(
        oseq=np.array([t.origin_loc for t in o_trips], dtype=np.int64),
        dseq=np.array([t.dest_loc for t in d_trips], dtype=np.int64),
        o_slots=timeslots([t.pickup_ts for t in o_trips], utc_offset_hours),
        d_slots=timeslots([t.dropoff_ts for t in d_trips], utc_offset_hours),
        targets=np.array([t.dest_loc for t in o_trips], dtype=np.int64),
    )


@dataclass(frozen=True)
class TrainingExample:
    """Predict `target` from (user, current origin, previous destination)."""

    user: int
    origin: int
    prev_dest: int
    target: int


@dataclass
class Vocab:
    """Index maps shared by the model: locations, users, geohash cells, slots."""

    n_locations: int
    n_users: int
    n_timeslots: int
    geohash_codes: list[str]  # distinct codes, index = geohash id
    loc_geohash: np.ndarray  # |L| -> geohash id

    @property
    def n_geohashes(self) -> int:
        return len(self.geohash_codes)


def build_vocab(
    corpus: Corpus, geohash_precision: int = 5, utc_offset_hours: int = 0
) -> Vocab:
    """`corpus`'s vocabulary, with geohash cells at `geohash_precision`.
    `utc_offset_hours` is read by nothing (ModelConfig owns the offset)."""
    codes: list[str] = []
    code_index: dict[str, int] = {}
    loc_geohash = np.zeros(corpus.n_locations, dtype=np.int64)
    for i, rec in enumerate(corpus.locations):
        code = geohash_encode(rec.point, geohash_precision)
        if code not in code_index:
            code_index[code] = len(codes)
            codes.append(code)
        loc_geohash[i] = code_index[code]
    return Vocab(
        n_locations=corpus.n_locations,
        n_users=corpus.n_users,
        n_timeslots=N_TIMESLOTS,
        geohash_codes=codes,
        loc_geohash=loc_geohash,
    )


@dataclass
class IntervalTables:
    """Global-view pairwise tables, max-scaled into [0, 1].

    spatial[i, j]  = haversine(loc_i, loc_j) / d_max_km
    temporal[i, j] = mean trip duration (hours) over training trips between
                     i and j in either direction, / t_max_hours; 0 if none.
    """

    spatial: np.ndarray
    temporal: np.ndarray
    d_max_km: float
    t_max_hours: float


def build_interval_tables(train: Corpus) -> IntervalTables:
    n = train.n_locations
    if n == 0:
        raise ValueError("cannot build interval tables for an empty corpus")
    points = [rec.point for rec in train.locations]
    spatial = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = haversine_km(points[i], points[j])
            spatial[i, j] = d
            spatial[j, i] = d
    d_max = float(spatial.max()) if n > 1 and spatial.max() > 0 else 1.0
    spatial /= d_max

    dur_sum = np.zeros((n, n))
    dur_count = np.zeros((n, n))
    for trips in train.trips_by_user:
        for t in trips:
            hours = (t.dropoff_ts - t.pickup_ts) / 3600.0
            i, j = t.origin_loc, t.dest_loc
            dur_sum[i, j] += hours
            dur_count[i, j] += 1
            if i != j:
                dur_sum[j, i] += hours
                dur_count[j, i] += 1
    temporal = np.divide(dur_sum, dur_count, out=np.zeros_like(dur_sum), where=dur_count > 0)
    t_max = float(temporal.max()) if temporal.max() > 0 else 1.0
    temporal /= t_max
    return IntervalTables(spatial, temporal, d_max, t_max)


def chain_queries(user: int, prev_dest: int, trips: list[Trip]) -> list[TrainingExample]:
    """One query per trip, in (pickup, dropoff) order with ties in input
    order, as `load_corpus` orders a user's trips.  The previous
    destination rolls through the trips, starting from `prev_dest`."""
    queries = []
    for t in _sort_trips(trips):
        queries.append(TrainingExample(user, t.origin_loc, prev_dest, t.dest_loc))
        prev_dest = t.dest_loc
    return queries


def build_test_queries(split: SplitResult) -> list[list[TrainingExample]]:
    """Per-user test queries, chained from the last training destination.
    A query needs the user's encoder states, so a user with under two
    training trips gets none, for every method alike."""
    return [
        chain_queries(u, train[-1].dest_loc, test) if len(train) >= 2 else []
        for u, (train, test) in enumerate(zip(split.train.trips_by_user, split.test.trips_by_user))
    ]
