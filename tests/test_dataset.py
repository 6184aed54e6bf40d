"""Corpus IO, sparsity filtering, splitting, vocab, interval tables."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import corpus_from, make_locations, random_corpus
from odnext.data import (
    Corpus,
    CorpusFormatError,
    SplitResult,
    Trip,
    build_interval_tables,
    build_test_queries,
    chain_queries,
    build_vocab,
    chronological_split,
    encoder_sequences,
    load_corpus,
    preprocess,
    save_corpus,
)
from odnext.geo import GeoPoint, geohash_encode, haversine_km


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        corpus = random_corpus(3)
        tp, lp = str(tmp_path / "t.csv"), str(tmp_path / "l.csv")
        save_corpus(corpus, tp, lp)
        back = load_corpus(tp, lp)
        assert back.users == corpus.users
        assert back.trips_by_user == corpus.trips_by_user
        assert [r.loc_id for r in back.locations] == [r.loc_id for r in corpus.locations]
        for a, b in zip(back.locations, corpus.locations):
            assert a.point.lat == b.point.lat and a.point.lon == b.point.lon

    def test_load_sorts_shuffled_trips(self, tmp_path):
        tp, lp = tmp_path / "t.csv", tmp_path / "l.csv"
        lp.write_text("loc_id,lat,lon\nA,40.0,-74.0\nB,40.1,-74.1\n")
        tp.write_text(
            "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\n"
            "u,A,B,2000,2500\n"
            "u,B,A,1000,1500\n"
            "u,A,A,1000,1200\n"  # pickup tie: earlier dropoff first
        )
        corpus = load_corpus(str(tp), str(lp))
        got = [(t.pickup_ts, t.dropoff_ts) for t in corpus.trips_by_user[0]]
        assert got == [(1000, 1200), (1000, 1500), (2000, 2500)]


class TestLoadErrors:
    def write(self, tmp_path, trips, locs="loc_id,lat,lon\nA,40.0,-74.0\n"):
        tp, lp = tmp_path / "t.csv", tmp_path / "l.csv"
        tp.write_text(trips)
        lp.write_text(locs)
        return str(tp), str(lp)

    def test_bad_trip_header(self, tmp_path):
        tp, lp = self.write(tmp_path, "user,origin,dest,start,end\n")
        with pytest.raises(CorpusFormatError, match="header"):
            load_corpus(tp, lp)

    def test_bad_location_header(self, tmp_path):
        tp, lp = self.write(
            tmp_path, "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\n", locs="id,lat,lon\n"
        )
        with pytest.raises(CorpusFormatError, match="header"):
            load_corpus(tp, lp)

    def test_wrong_field_count(self, tmp_path):
        tp, lp = self.write(
            tmp_path, "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,1\n"
        )
        with pytest.raises(CorpusFormatError, match="t.csv:2"):
            load_corpus(tp, lp)

    def test_error_names_the_file_line_after_a_multi_line_field(self, tmp_path):
        """A quoted id that spans two lines does not shift the line number
        of a later bad row."""
        locs = 'loc_id,lat,lon\n"A\nB",40.0,-74.0\nC,95.0,-74.0\n'
        tp, lp = self.write(tmp_path, "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\n", locs)
        with pytest.raises(CorpusFormatError, match=r"l\.csv:4: latitude 95\.0"):
            load_corpus(tp, lp)

    def test_non_integer_timestamp(self, tmp_path):
        tp, lp = self.write(
            tmp_path, "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,x,2\n"
        )
        with pytest.raises(CorpusFormatError, match="integer"):
            load_corpus(tp, lp)

    @pytest.mark.parametrize("pickup, dropoff", [(-(2**63), 0), (0, 2**63 - 1)])
    def test_int64_timestamps_load(self, tmp_path, pickup, dropoff):
        tp, lp = self.write(
            tmp_path, f"user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,{pickup},{dropoff}\n"
        )
        trip = load_corpus(tp, lp).trips_by_user[0][0]
        assert (trip.pickup_ts, trip.dropoff_ts) == (pickup, dropoff)

    @pytest.mark.parametrize("pickup, dropoff", [(-(2**63) - 1, 0), (0, 2**63), (2**63, 2**63)])
    def test_timestamp_outside_int64(self, tmp_path, pickup, dropoff):
        tp, lp = self.write(
            tmp_path, f"user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,{pickup},{dropoff}\n"
        )
        with pytest.raises(CorpusFormatError, match=r"t\.csv:2: timestamps must lie in"):
            load_corpus(tp, lp)

    def test_dropoff_before_pickup(self, tmp_path):
        tp, lp = self.write(
            tmp_path, "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,10,5\n"
        )
        with pytest.raises(CorpusFormatError, match="dropoff"):
            load_corpus(tp, lp)

    def test_unknown_location(self, tmp_path):
        tp, lp = self.write(
            tmp_path, "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,1,2\nu,A,Z,3,4\n"
        )
        with pytest.raises(CorpusFormatError, match=r"t\.csv:3: unknown loc_id 'Z'$"):
            load_corpus(tp, lp)

    def test_duplicate_location_id(self, tmp_path):
        tp, lp = self.write(
            tmp_path,
            "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\n",
            locs="loc_id,lat,lon\nA,40.0,-74.0\nA,41.0,-74.0\n",
        )
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(tp, lp)

    def test_invalid_coordinates(self, tmp_path):
        tp, lp = self.write(
            tmp_path,
            "user_id,origin_id,dest_id,pickup_ts,dropoff_ts\n",
            locs="loc_id,lat,lon\nA,95.0,-74.0\n",
        )
        with pytest.raises(CorpusFormatError):
            load_corpus(tp, lp)


def brute_force_filter(corpus, min_trips, min_users):
    """Reference fixpoint: re-derive survivors from scratch each round.

    Returns the surviving trip set as (user_id, origin_id, dest_id, pickup)
    tuples so index compaction cannot mask a mismatch.
    """
    trips = [
        (corpus.users[u], corpus.locations[t.origin_loc].loc_id,
         corpus.locations[t.dest_loc].loc_id, t.pickup_ts, t.dropoff_ts)
        for u, per_user in enumerate(corpus.trips_by_user)
        for t in per_user
    ]
    while True:
        by_user = {}
        for row in trips:
            by_user.setdefault(row[0], []).append(row)
        kept_users = {u for u, rows in by_user.items() if len(rows) >= min_trips}
        trips2 = [r for r in trips if r[0] in kept_users]
        visitors = {}
        for r in trips2:
            visitors.setdefault(r[1], set()).add(r[0])
            visitors.setdefault(r[2], set()).add(r[0])
        kept_locs = {loc for loc, us in visitors.items() if len(us) >= min_users}
        trips3 = [r for r in trips2 if r[1] in kept_locs and r[2] in kept_locs]
        if len(trips3) == len(trips):
            return sorted(trips3)
        trips = trips3


class TestPreprocess:
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_brute_force(self, seed):
        corpus = random_corpus(seed, n_users=8, n_locations=6, min_trips=1, max_trips=8)
        out = preprocess(corpus, min_trips=4, min_users=3)
        got = sorted(
            (out.users[u], out.locations[t.origin_loc].loc_id,
             out.locations[t.dest_loc].loc_id, t.pickup_ts, t.dropoff_ts)
            for u, per_user in enumerate(out.trips_by_user)
            for t in per_user
        )
        assert got == brute_force_filter(corpus, 4, 3)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_postconditions_and_idempotence(self, seed):
        corpus = random_corpus(seed, n_users=10, n_locations=5, min_trips=1, max_trips=9)
        out = preprocess(corpus, min_trips=3, min_users=3)
        for trips in out.trips_by_user:
            assert len(trips) >= 3
        visitors = {i: set() for i in range(out.n_locations)}
        for u, trips in enumerate(out.trips_by_user):
            for t in trips:
                visitors[t.origin_loc].add(u)
                visitors[t.dest_loc].add(u)
        for loc, us in visitors.items():
            assert len(us) >= 3
        again = preprocess(out, min_trips=3, min_users=3)
        assert again.users == out.users
        assert again.trips_by_user == out.trips_by_user
        assert [r.loc_id for r in again.locations] == [r.loc_id for r in out.locations]

    def test_cascade_removal(self):
        # Dropping sparse user 3 starves location 2, which then starves
        # user 0, whose fourth trip depended on it.
        rows = []
        for u in (1, 2):
            rows += [(u, 0, 1, 100 * u + k, 100 * u + k + 10) for k in range(4)]
        rows += [(0, 0, 1, k, k + 10) for k in range(3)]
        rows += [(0, 0, 2, 1000, 1010)]  # user 0's 4th trip touches loc 2
        rows += [(3, 2, 2, 2000, 2010)]  # the only other visitor of loc 2
        corpus = corpus_from(sorted(rows), 3)
        out = preprocess(corpus, min_trips=4, min_users=2)
        # user 3 (1 trip) goes first -> loc 2 has lone visitor 0 -> dropped
        # -> user 0 falls to 3 trips -> dropped -> locs 0/1 keep {1, 2}.
        assert out.users == ["U001", "U002"]
        assert out.n_locations == 2

    def test_can_empty_out(self):
        corpus = random_corpus(1, n_users=3, n_locations=4, max_trips=3)
        out = preprocess(corpus, min_trips=100, min_users=1)
        assert out.is_empty
        assert out.n_trips == 0


class TestSplit:
    @given(st.integers(min_value=0, max_value=10**9))
    def test_partition_and_ceil(self, seed):
        corpus = random_corpus(seed)
        split = chronological_split(corpus, 0.7)
        for u, trips in enumerate(corpus.trips_by_user):
            n_train = math.ceil(0.7 * len(trips))
            assert split.train.trips_by_user[u] == trips[:n_train]
            assert split.test.trips_by_user[u] == trips[n_train:]
        assert split.train.users == corpus.users
        assert split.test.locations == corpus.locations

    def test_flagged_users(self):
        rows = [(0, 0, 1, k, k + 1) for k in range(10)] + [(1, 0, 1, 0, 1)]
        corpus = corpus_from(rows, 2)
        split = chronological_split(corpus, 0.7)
        assert split.flagged_users == [1]  # single trip: ceil(0.7) = 1 = all
        assert split.test.trips_by_user[1] == []

    def test_ratio_one_keeps_everything_in_train(self):
        corpus = random_corpus(5)
        split = chronological_split(corpus, 1.0)
        assert split.test.n_trips == 0
        assert split.flagged_users == list(range(corpus.n_users))


class TestSequences:
    def test_encoder_sequences_alignment(self):
        corpus = random_corpus(11)
        trips = corpus.trips_by_user[0]
        s = encoder_sequences(trips)
        assert len(s.oseq) == len(s.dseq) == len(s.targets) == len(trips) - 1
        for k in range(len(s.oseq)):
            assert s.oseq[k] == trips[k + 1].origin_loc
            assert s.dseq[k] == trips[k].dest_loc
            assert s.targets[k] == trips[k + 1].dest_loc

    def test_short_sequences_empty(self):
        for trips in ([], [Trip(0, 1, 0, 1)]):
            s = encoder_sequences(trips)
            for seq in (s.oseq, s.dseq, s.o_slots, s.d_slots, s.targets):
                assert seq.shape == (0,) and seq.dtype == np.int64

    def test_slots_and_aligned_form(self):
        trips = [Trip(1, 2, 3600 * 2, 3600 * 4), Trip(3, 4, 3600 * 23, 3600 * 25)]
        s = encoder_sequences(trips, utc_offset_hours=2)
        assert (s.oseq.tolist(), s.o_slots.tolist()) == ([3], [0])  # 23h + 2 -> 1h
        assert (s.dseq.tolist(), s.d_slots.tolist()) == ([2], [2])  # 4h + 2 -> 6h
        a = encoder_sequences(trips, utc_offset_hours=2, aligned=True)
        assert (a.oseq.tolist(), a.o_slots.tolist()) == ([1, 3], [1, 0])
        assert (a.dseq.tolist(), a.d_slots.tolist()) == ([2, 4], [2, 1])
        assert a.targets.tolist() == [2, 4]

    def test_training_examples(self):
        trips = [Trip(1, 2, 0, 1), Trip(3, 4, 2, 3), Trip(5, 6, 4, 5)]
        ex = chain_queries(7, trips[0].dest_loc, trips[1:])
        assert [(e.user, e.origin, e.prev_dest, e.target) for e in ex] == [
            (7, 3, 2, 4),
            (7, 5, 4, 6),
        ]

    def test_chain_queries_sorts_as_load_corpus_does(self):
        # out of order, with a pickup tie broken by dropoff, then by input order
        trips = [Trip(5, 6, 9, 9), Trip(1, 2, 0, 5), Trip(3, 4, 0, 3), Trip(7, 8, 0, 5)]
        ex = chain_queries(0, 9, trips)
        assert [(e.origin, e.prev_dest, e.target) for e in ex] == [
            (3, 9, 4), (1, 4, 2), (7, 2, 8), (5, 8, 6),
        ]


class TestVocab:
    def test_cells_and_mapping(self):
        # Two locations share a cell; the third sits across the meridian.
        locs = make_locations(3)
        rows = [(0, 0, 1, 0, 1), (0, 1, 2, 2, 3)]
        corpus = corpus_from(rows, 3, locations=locs)
        object.__setattr__(corpus.locations[1], "point", corpus.locations[0].point)
        vocab = build_vocab(corpus, geohash_precision=6)
        assert vocab.n_locations == 3
        assert vocab.n_geohashes == 2
        codes = [geohash_encode(r.point, 6) for r in corpus.locations]
        assert [vocab.geohash_codes[g] for g in vocab.loc_geohash] == codes

    def test_first_appearance_order(self):
        corpus = random_corpus(2, n_locations=12)
        vocab = build_vocab(corpus, geohash_precision=7)
        seen = []
        for rec in corpus.locations:
            code = geohash_encode(rec.point, 7)
            if code not in seen:
                seen.append(code)
        assert vocab.geohash_codes == seen


class TestIntervalTables:
    def corpus(self):
        locs = make_locations(3)
        rows = [
            (0, 0, 1, 0, 7200),  # 2h between 0 and 1
            (0, 1, 0, 10000, 13600),  # 1h back: mean(0,1) and (1,0) pools both
            (0, 2, 2, 20000, 21800),  # 0.5h self-loop at 2
            (1, 0, 1, 0, 10800),  # 3h between 0 and 1
        ]
        return corpus_from(rows, 3, locations=locs)

    def test_spatial_scaling(self):
        corpus = self.corpus()
        tables = build_interval_tables(corpus)
        pts = [r.point for r in corpus.locations]
        raw = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                raw[i, j] = haversine_km(pts[i], pts[j])
        assert tables.d_max_km == pytest.approx(raw.max())
        np.testing.assert_allclose(tables.spatial, raw / raw.max(), atol=1e-12)
        assert tables.spatial.max() == pytest.approx(1.0)
        np.testing.assert_allclose(np.diag(tables.spatial), 0.0)

    def test_temporal_pooling_and_scaling(self):
        tables = build_interval_tables(self.corpus())
        # (0,1) pool: 2h, 1h, 3h -> mean 2h = t_max; self-loop (2,2): 0.5h.
        assert tables.t_max_hours == pytest.approx(2.0)
        assert tables.temporal[0, 1] == pytest.approx(1.0)
        assert tables.temporal[1, 0] == pytest.approx(1.0)
        assert tables.temporal[2, 2] == pytest.approx(0.25)
        assert tables.temporal[0, 2] == 0.0  # never travelled
        np.testing.assert_array_equal(tables.temporal, tables.temporal.T)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_ranges(self, seed):
        tables = build_interval_tables(random_corpus(seed))
        for m in (tables.spatial, tables.temporal):
            assert (m >= 0).all() and (m <= 1 + 1e-12).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_interval_tables(Corpus([], [], []))


class TestTestQueries:
    def test_rolling_prev_dest(self):
        rows = [(0, k, k + 1, 100 * k, 100 * k + 50) for k in range(5)]
        corpus = corpus_from(rows, 6)
        split = chronological_split(corpus, 0.6)  # 3 train, 2 test
        queries = build_test_queries(split)[0]
        train_last = split.train.trips_by_user[0][-1]
        t3, t4 = split.test.trips_by_user[0]
        assert [(q.origin, q.prev_dest, q.target) for q in queries] == [
            (t3.origin_loc, train_last.dest_loc, t3.dest_loc),
            (t4.origin_loc, t3.dest_loc, t4.dest_loc),
        ]

    def test_users_without_encoder_states_get_no_queries(self):
        # user 0 keeps 1 of 3 trips for training, user 1 keeps 2 of 5
        rows = [(0, k, k + 1, k, k + 1) for k in range(3)]
        rows += [(1, k, k + 1, k, k + 1) for k in range(5)]
        split = chronological_split(corpus_from(rows, 6), 0.3)
        assert [len(t) for t in split.train.trips_by_user] == [1, 2]
        queries = build_test_queries(split)
        assert queries[0] == []
        assert [q.prev_dest for q in queries[1]] == [2, 3, 4]

    def test_user_without_test_trips(self):
        rows = [(0, 0, 1, k, k + 1) for k in range(3)] + [(1, 0, 1, 0, 1)]
        split = chronological_split(corpus_from(rows, 2), 0.7)
        queries = build_test_queries(split)
        assert queries[1] == []
