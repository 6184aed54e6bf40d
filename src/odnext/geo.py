"""Geospatial primitives: haversine distance, geohash cells, timeslot bins.
A geohash is only encoded, never decoded: one bisection walk gives the
code and its cell's box.  All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0  # mean Earth radius

GEOHASH_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"

N_TIMESLOTS = 8
TIMESLOT_HOURS = 3


@dataclass(frozen=True)
class GeoPoint:
    """A WGS-84 coordinate pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometres on a sphere of mean radius; past a
    quarter circumference, pi R less that to b's antipode (asin is steep at 1)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    cosines = math.cos(phi1) * math.cos(phi2)
    s = math.sin(dphi / 2.0) ** 2 + cosines * math.sin(dlam / 2.0) ** 2
    if s <= 0.5:
        return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(s))
    s = math.sin((phi1 + phi2) / 2.0) ** 2 + cosines * math.cos(dlam / 2.0) ** 2
    return EARTH_RADIUS_KM * (math.pi - 2.0 * math.asin(math.sqrt(s)))


def geohash_cell(p: GeoPoint, precision: int = 5) -> tuple[str, tuple[float, float, float, float]]:
    """The standard base-32 geohash of `p` (boundary coordinates round up)
    and the box of its cell, (lat_lo, lat_hi, lon_lo, lon_hi), from one
    bisection walk."""
    if not 1 <= precision <= 12:
        raise ValueError(f"geohash precision {precision} outside [1, 12]")
    lat, lon = p.lat, p.lon
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars: list[str] = []
    ch = 0
    even = True  # longitude bit first
    for i in range(1, 5 * precision + 1):
        if even:
            mid = (lon_lo + lon_hi) / 2.0
            if lon >= mid:
                ch = (ch << 1) | 1
                lon_lo = mid
            else:
                ch = ch << 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if lat >= mid:
                ch = (ch << 1) | 1
                lat_lo = mid
            else:
                ch = ch << 1
                lat_hi = mid
        even = not even
        if i % 5 == 0:
            chars.append(GEOHASH_BASE32[ch])
            ch = 0
    return "".join(chars), (lat_lo, lat_hi, lon_lo, lon_hi)


def geohash_encode(p: GeoPoint, precision: int = 5) -> str:
    """The base-32 geohash of `p`: `geohash_cell`'s code."""
    return geohash_cell(p, precision)[0]


def timeslots(ts: np.ndarray, utc_offset_hours: int = 0) -> np.ndarray:
    """Three-hour slot indices in [0, 8) of integer epoch-seconds timestamps;
    hours are floored, so a pre-1970 stamp falls in the hour it lies in."""
    hours = np.floor_divide(np.asarray(ts, dtype=np.int64), 3600) + utc_offset_hours
    return hours % 24 // TIMESLOT_HOURS
