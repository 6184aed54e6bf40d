"""Synthetic trip corpus with a planted, recoverable travel rule.

Locations sit in geographically separated clusters, one geohash cell
per cluster.  Every trip's destination follows a deterministic rule of
(origin cluster, half of day, user type), blurred by uniform noise:

  dest cluster   = dest_rule[half][origin cluster]
  dest member    = member_table[origin cluster][half][user type]

Users belong to one of n_user_types types (round-robin by index) and
stick to a preferred half of the day for most pickups, so
personalization and temporal context both carry signal while the
query-time slot stays hidden.  Member assignments are drawn
independently per (origin cluster, half, type); with n_user_types at or
above the user count every user gets a private destination table, which
keeps the rule invisible to pure frequency counting and makes the
personalization channel load-bearing.

An optional block of "cold" users with very few trips is appended for
held-out cold-start evaluation; their streams do not disturb the main
users' streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .data import Corpus, LocationRecord, Trip
from .geo import GeoPoint, geohash_cell
from .nn import ContractViolation, check_settings, setting

GEOHASH_PRECISION = 5

# Midnight UTC on an arbitrary day; keeps timestamps realistic.
_EPOCH0 = 1_599_955_200


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = setting(200, ge=1)
    n_locations: int = setting(60, ge=1)  # a multiple of n_clusters
    n_clusters: int = setting(6, ge=2)
    trips_per_user: int = setting(30, ge=2)
    p_noise: float = setting(0.1, ge=0, le=1)
    seed: int = setting(0, ge=0)
    n_cold_users: int = setting(0, ge=0)
    cold_trips_min: int = setting(3, ge=1)  # at most cold_trips_max
    cold_trips_max: int = setting(9, ge=1)
    n_user_types: int = setting(5, ge=1)
    day_half_adherence: float = setting(0.85, ge=0.5, le=1)
    rule_member_pool: int = setting(0, ge=0)  # 0 = whole cluster may serve as rule target
    p_stay: float = setting(0.5, ge=0, le=1)  # origin transition: stay in previous dest's cluster
    p_next: float = setting(0.3, ge=0, le=1)  # ... or move to the cyclically next cluster

    def __post_init__(self):
        check_settings(self)
        if self.n_locations % self.n_clusters != 0:
            raise ContractViolation("n_locations must be a multiple of n_clusters")
        if self.cold_trips_min > self.cold_trips_max:
            raise ContractViolation("cold_trips_min exceeds cold_trips_max")
        if self.rule_member_pool > self.n_locations // self.n_clusters:
            raise ContractViolation("rule_member_pool exceeds n_locations / n_clusters")
        if self.p_stay + self.p_next > 1.0:
            raise ContractViolation("p_stay + p_next exceeds 1")

    def as_dict(self) -> dict:
        return asdict(self)


def oracle_accuracy(p_noise: float, n_locations: int) -> float:
    """Top-1 accuracy of a predictor that knows the planted rule.

    A noisy destination is uniform over all locations, so the rule still
    hits it with probability 1/n: 1 - p * (1 - 1/n).
    """
    return 1.0 - p_noise * (1.0 - 1.0 / n_locations)


def _cluster_layout(cfg: SynthConfig, rng: np.random.Generator):
    """Place clusters in distinct geohash cells; sample members inside."""
    n_cols = int(math.ceil(math.sqrt(cfg.n_clusters)))
    size = cfg.n_locations // cfg.n_clusters
    codes: list[str] = []
    locations: list[LocationRecord] = []
    members: list[list[int]] = []
    for k in range(cfg.n_clusters):
        center = GeoPoint(40.0 + 0.06 * (k // n_cols), -74.0 + 0.06 * (k % n_cols))
        code, (lat_lo, lat_hi, lon_lo, lon_hi) = geohash_cell(center, GEOHASH_PRECISION)
        if code in codes:
            raise ContractViolation("cluster layout produced a geohash collision")
        codes.append(code)
        lat_m = 0.1 * (lat_hi - lat_lo)
        lon_m = 0.1 * (lon_hi - lon_lo)
        idx_list = []
        for _ in range(size):
            point = GeoPoint(
                rng.uniform(lat_lo + lat_m, lat_hi - lat_m),
                rng.uniform(lon_lo + lon_m, lon_hi - lon_m),
            )
            idx_list.append(len(locations))
            locations.append(LocationRecord(f"L{len(locations):03d}", point))
        members.append(idx_list)
    return codes, locations, members


def generate(cfg: SynthConfig) -> tuple[Corpus, dict]:
    """Build the corpus and a manifest describing the planted rule."""
    master = np.random.default_rng([cfg.seed, 0])
    n_clusters = cfg.n_clusters
    size = cfg.n_locations // n_clusters
    codes, locations, members = _cluster_layout(cfg, master)
    cluster_of = np.empty(cfg.n_locations, dtype=np.int64)
    for c, idx_list in enumerate(members):
        cluster_of[idx_list] = c

    dest_rule = np.empty((2, n_clusters), dtype=np.int64)
    dest_rule[0] = master.permutation(n_clusters)
    dest_rule[1] = dest_rule[0]
    a, b = master.choice(n_clusters, size=2, replace=False)
    dest_rule[1, a], dest_rule[1, b] = dest_rule[1, b], dest_rule[1, a]

    pool = cfg.rule_member_pool or size
    member_table = master.integers(
        0, pool, size=(n_clusters, 2, cfg.n_user_types), dtype=np.int64
    )

    users: list[str] = []
    trips_by_user: list[list[Trip]] = []
    user_meta: list[dict] = []
    total = cfg.n_users + cfg.n_cold_users
    for i in range(total):
        cold = i >= cfg.n_users
        rng = np.random.default_rng([cfg.seed, 2, i])
        utype = i % cfg.n_user_types
        preferred = int(rng.integers(0, 2))
        if cold:
            n_trips = int(rng.integers(cfg.cold_trips_min, cfg.cold_trips_max + 1))
            user_id = f"C{i - cfg.n_users:04d}"
        else:
            n_trips = cfg.trips_per_user
            user_id = f"U{i:04d}"

        trips: list[Trip] = []
        prev_dest_cluster = -1
        for day in range(n_trips):
            half = preferred if rng.random() < cfg.day_half_adherence else 1 - preferred
            hour = int(rng.integers(0, 12)) + 12 * half
            pickup = _EPOCH0 + day * 86400 + hour * 3600 + int(rng.integers(0, 3600))
            duration = int(rng.integers(300, 3601))

            if prev_dest_cluster < 0:
                oc = int(rng.integers(0, n_clusters))
            else:
                draw = rng.random()
                if draw < cfg.p_stay:
                    oc = prev_dest_cluster
                elif draw < cfg.p_stay + cfg.p_next:
                    oc = (prev_dest_cluster + 1) % n_clusters
                else:
                    oc = int(rng.integers(0, n_clusters))
            origin = members[oc][int(rng.integers(0, size))]

            dc = int(dest_rule[half, oc])
            dest = members[dc][int(member_table[oc, half, utype])]
            if rng.random() < cfg.p_noise:
                dest = int(rng.integers(0, cfg.n_locations))
            prev_dest_cluster = int(cluster_of[dest])
            trips.append(Trip(origin, dest, pickup, pickup + duration))

        users.append(user_id)
        trips_by_user.append(trips)
        user_meta.append(
            {
                "id": user_id,
                "type": utype,
                "preferred_half": preferred,
                "n_trips": n_trips,
                "cold": cold,
            }
        )

    corpus = Corpus(locations=locations, users=users, trips_by_user=trips_by_user)
    manifest = {
        "config": cfg.as_dict(),
        "cluster_geohashes": codes,
        "cluster_members": [list(map(int, m)) for m in members],
        "dest_rule": dest_rule.tolist(),
        "member_table": member_table.tolist(),
        "users": user_meta,
        "oracle_accuracy": oracle_accuracy(cfg.p_noise, cfg.n_locations),
    }
    return corpus, manifest
