"""Synthetic corpus generator: determinism, geography, the planted rule."""

import numpy as np
import pytest

from odnext.data import preprocess
from odnext.geo import geohash_encode, timeslot_of
from odnext.nn import ContractViolation
from odnext.synth import GEOHASH_PRECISION, SynthConfig, generate, oracle_accuracy


@pytest.fixture(scope="module")
def world():
    cfg = SynthConfig(
        n_users=30, n_locations=24, n_clusters=4, trips_per_user=20, p_noise=0.1, seed=5
    )
    corpus, manifest = generate(cfg)
    return cfg, corpus, manifest


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            SynthConfig(n_clusters=1)
        with pytest.raises(ContractViolation):
            SynthConfig(n_locations=10, n_clusters=4)
        with pytest.raises(ContractViolation):
            SynthConfig(trips_per_user=1)
        with pytest.raises(ContractViolation):
            SynthConfig(p_noise=1.2)
        with pytest.raises(ContractViolation):
            SynthConfig(day_half_adherence=0.3)
        with pytest.raises(ContractViolation):
            SynthConfig(n_cold_users=5, cold_trips_min=4, cold_trips_max=3)
        for name in ("p_noise", "day_half_adherence", "p_stay", "p_next"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ContractViolation):
                    SynthConfig(**{name: value})

    def test_oracle_accuracy_values(self):
        assert oracle_accuracy(0.0, 60) == 1.0
        assert oracle_accuracy(0.1, 60) == pytest.approx(1 - 0.1 * (1 - 1 / 60))
        assert oracle_accuracy(0.1, 60) == pytest.approx(0.90167, abs=1e-5)
        assert oracle_accuracy(1.0, 10) == pytest.approx(0.1)


class TestDeterminismAndShape:
    def test_byte_identical_regeneration(self, world):
        cfg, corpus, manifest = world
        corpus2, manifest2 = generate(cfg)
        assert manifest == manifest2
        assert corpus.users == corpus2.users
        assert corpus.trips_by_user == corpus2.trips_by_user
        assert corpus.locations == corpus2.locations

    def test_shapes(self, world):
        cfg, corpus, manifest = world
        assert corpus.n_users == cfg.n_users
        assert corpus.n_locations == cfg.n_locations
        assert all(len(t) == cfg.trips_per_user for t in corpus.trips_by_user)
        assert len(manifest["cluster_geohashes"]) == cfg.n_clusters

    def test_trips_chronological_with_valid_fields(self, world):
        cfg, corpus, _ = world
        for trips in corpus.trips_by_user:
            for a, b in zip(trips, trips[1:]):
                assert a.pickup_ts < b.pickup_ts
            for t in trips:
                assert t.dropoff_ts > t.pickup_ts
                assert 0 <= t.origin_loc < cfg.n_locations
                assert 0 <= t.dest_loc < cfg.n_locations

    def test_dense_enough_to_survive_preprocessing(self, world):
        _, corpus, _ = world
        kept = preprocess(corpus)
        assert kept.n_users == corpus.n_users
        assert kept.n_locations == corpus.n_locations


class TestGeography:
    def test_clusters_occupy_distinct_cells(self, world):
        _, corpus, manifest = world
        codes = manifest["cluster_geohashes"]
        assert len(set(codes)) == len(codes)
        for c, idx_list in enumerate(manifest["cluster_members"]):
            for i in idx_list:
                point = corpus.locations[i].point
                assert geohash_encode(point, GEOHASH_PRECISION) == codes[c]

    def test_members_partition_locations(self, world):
        cfg, _, manifest = world
        flat = sorted(i for m in manifest["cluster_members"] for i in m)
        assert flat == list(range(cfg.n_locations))


class TestPlantedRule:
    def _rule_checks(self, cfg, corpus, manifest):
        cluster_of = {}
        for c, idx_list in enumerate(manifest["cluster_members"]):
            for i in idx_list:
                cluster_of[i] = c
        dest_rule = np.array(manifest["dest_rule"])
        member_table = np.array(manifest["member_table"])
        hits = 0
        total = 0
        for meta, trips in zip(manifest["users"], corpus.trips_by_user):
            utype = meta["type"]
            for t in trips:
                half = ((t.pickup_ts // 3600) % 24) // 12
                oc = cluster_of[t.origin_loc]
                dc = int(dest_rule[half, oc])
                expected = manifest["cluster_members"][dc][
                    int(member_table[oc, half, utype])
                ]
                hits += int(t.dest_loc == expected)
                total += 1
        return hits / total

    def test_rule_holds_at_noise_rate(self, world):
        cfg, corpus, manifest = world
        frac = self._rule_checks(cfg, corpus, manifest)
        # uniform noise still matches the rule 1/n of the time
        expect = 1 - cfg.p_noise * (1 - 1 / cfg.n_locations)
        assert abs(frac - expect) < 0.03

    def test_zero_noise_is_exact(self):
        cfg = SynthConfig(
            n_users=10, n_locations=12, n_clusters=3, trips_per_user=12, p_noise=0.0, seed=2
        )
        corpus, manifest = generate(cfg)
        assert self._rule_checks(cfg, corpus, manifest) == 1.0

    def test_preferred_half_adherence(self, world):
        cfg, corpus, manifest = world
        agree = 0
        total = 0
        for meta, trips in zip(manifest["users"], corpus.trips_by_user):
            for t in trips:
                half = ((t.pickup_ts // 3600) % 24) // 12
                agree += int(half == meta["preferred_half"])
                total += 1
        assert abs(agree / total - cfg.day_half_adherence) < 0.05

    def test_half_matches_timeslot_convention(self, world):
        # halves 0/1 correspond to slots 0-3 / 4-7 under offset 0
        _, corpus, _ = world
        t = corpus.trips_by_user[0][0]
        half = ((t.pickup_ts // 3600) % 24) // 12
        slot = timeslot_of(t.pickup_ts, 0)
        assert (slot >= 4) == bool(half)


class TestColdUsers:
    def test_cold_block_appended_without_disturbing_main(self, world):
        cfg, corpus, _ = world
        cfg_cold = SynthConfig(**{**cfg.as_dict(), "n_cold_users": 7})
        corpus2, manifest2 = generate(cfg_cold)
        assert corpus2.n_users == cfg.n_users + 7
        # main users' streams are untouched by the cold block
        assert corpus2.trips_by_user[: cfg.n_users] == corpus.trips_by_user
        cold_meta = [m for m in manifest2["users"] if m["cold"]]
        assert len(cold_meta) == 7
        for m in cold_meta:
            assert m["id"].startswith("C")
            assert cfg.cold_trips_min <= m["n_trips"] <= cfg.cold_trips_max
        for trips in corpus2.trips_by_user[cfg.n_users :]:
            assert cfg.cold_trips_min <= len(trips) <= cfg.cold_trips_max

    def test_manifest_flags_match_ids(self, world):
        _, _, manifest = world
        assert all(not m["cold"] for m in manifest["users"])
