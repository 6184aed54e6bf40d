"""Geography primitives: great-circle distance, geohash, time slots."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from odnext.geo import (
    EARTH_RADIUS_KM,
    N_TIMESLOTS,
    GeoPoint,
    geohash_bounds,
    geohash_encode,
    haversine_km,
    timeslots,
)
from reference import timeslot_of

# Published reference hashes; prefix slices below multiply these into 40+
# independent checks of the bit interleaving and base32 alphabet.
CANONICAL = [
    (57.64911, 10.40744, "u4pruydqqvj"),
    (42.605, -5.603, "ezs42"),
    (37.8324, 112.5584, "ww8p1r4t8"),
    (-25.382708, -49.265506, "6gkzwgjzn820"),
    (48.669, -4.329, "gbsuv"),
    (0.0, 0.0, "s00000000000"),
    (90.0, 180.0, "zzzzzzzzzzzz"),
    (-90.0, -180.0, "000000000000"),
]

finite_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
finite_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, finite_lat, finite_lon)


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(48.85, 2.35)
        assert haversine_km(p, p) == 0.0

    def test_quarter_meridian(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(90, 0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 2, rel=1e-12)

    def test_antipodal(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)

    def test_one_degree_longitude_at_equator(self):
        d = haversine_km(GeoPoint(0, 10), GeoPoint(0, 11))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 180, rel=1e-9)

    def test_paris_new_york(self):
        d = haversine_km(GeoPoint(48.8566, 2.3522), GeoPoint(40.7128, -74.0060))
        assert d == pytest.approx(5837.2, abs=1.0)

    @given(points, points)
    def test_symmetric_and_bounded(self, a, b):
        d1 = haversine_km(a, b)
        d2 = haversine_km(b, a)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert 0.0 <= d1 <= math.pi * EARTH_RADIUS_KM + 1e-9

    @given(points, points, points)
    @example(GeoPoint(0.0, 180.0), GeoPoint(1.0, 0.0), GeoPoint(1e-5, 0.0))  # nearly antipodal
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)


class TestGeohash:
    @pytest.mark.parametrize("lat,lon,code", CANONICAL)
    def test_canonical_full_length(self, lat, lon, code):
        assert geohash_encode(GeoPoint(lat, lon), len(code)) == code

    @pytest.mark.parametrize("lat,lon,code", CANONICAL)
    def test_canonical_every_prefix(self, lat, lon, code):
        for p in range(1, len(code)):
            assert geohash_encode(GeoPoint(lat, lon), p) == code[:p]

    def test_precision_bounds(self):
        p = GeoPoint(10, 10)
        with pytest.raises(ValueError):
            geohash_encode(p, 0)
        with pytest.raises(ValueError):
            geohash_encode(p, 13)

    @given(points, st.integers(min_value=1, max_value=11))
    def test_prefix_property(self, p, precision):
        long = geohash_encode(p, precision + 1)
        assert geohash_encode(p, precision) == long[:precision]

    @given(points, st.integers(min_value=1, max_value=12))
    def test_point_inside_own_cell(self, p, precision):
        code = geohash_encode(p, precision)
        lat_lo, lat_hi, lon_lo, lon_hi = geohash_bounds(code)
        assert lat_lo <= p.lat <= lat_hi
        assert lon_lo <= p.lon <= lon_hi

    @given(points, st.integers(min_value=1, max_value=10))
    def test_cell_center_reencodes_to_same_code(self, p, precision):
        code = geohash_encode(p, precision)
        lat_lo, lat_hi, lon_lo, lon_hi = geohash_bounds(code)
        center = GeoPoint((lat_lo + lat_hi) / 2, (lon_lo + lon_hi) / 2)
        assert geohash_encode(center, precision) == code

    def test_bounds_shrink_by_factor_32_per_character(self):
        code = geohash_encode(GeoPoint(57.64911, 10.40744), 8)
        for p in range(1, 8):
            a = geohash_bounds(code[:p])
            b = geohash_bounds(code[: p + 1])
            area_a = (a[1] - a[0]) * (a[3] - a[2])
            area_b = (b[1] - b[0]) * (b[3] - b[2])
            assert area_a / area_b == pytest.approx(32.0, rel=1e-9)

    def test_bounds_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            geohash_bounds("ab")  # 'a' is not in the base32 alphabet
        with pytest.raises(ValueError):
            geohash_bounds("")

    def test_distinct_cells_partition(self):
        # Points straddling the prime meridian land in different cells.
        west = geohash_encode(GeoPoint(51.5, -0.1), 5)
        east = geohash_encode(GeoPoint(51.5, 0.1), 5)
        assert west != east


class TestTimeslot:
    def test_eight_slots_of_three_hours(self):
        seen = [timeslot_of(h * 3600) for h in range(24)]
        assert seen == [h // 3 for h in range(24)]
        assert set(seen) == set(range(N_TIMESLOTS))

    def test_midnight_boundary(self):
        assert timeslot_of(0) == 0
        assert timeslot_of(3 * 3600 - 1) == 0
        assert timeslot_of(3 * 3600) == 1
        assert timeslot_of(23 * 3600 + 3599) == 7

    def test_wraps_across_days(self):
        assert timeslot_of(5 * 86400 + 13 * 3600) == timeslot_of(13 * 3600)

    def test_utc_offset_shifts_slot(self):
        ts = 22 * 3600
        assert timeslot_of(ts, utc_offset_hours=0) == 7
        assert timeslot_of(ts, utc_offset_hours=3) == 0  # 22h + 3h wraps to 1h

    @given(st.integers(min_value=0, max_value=10**10), st.integers(min_value=-23, max_value=23))
    def test_always_a_valid_slot(self, ts, off):
        assert 0 <= timeslot_of(ts, off) < N_TIMESLOTS

    @given(
        st.lists(st.integers(min_value=-(10**11), max_value=10**11), max_size=20),
        st.integers(min_value=-23, max_value=23),
    )
    @example([-1, -3600, -3601, -86400 * 400 - 1], -5)
    def test_vectorised_matches_scalar(self, stamps, off):
        # negative stamps are pre-1970: floor division, not truncation
        expected = [timeslot_of(ts, off) for ts in stamps]
        assert timeslots(np.array(stamps, dtype=np.int64), off).tolist() == expected
        assert timeslots(stamps, off).tolist() == expected
