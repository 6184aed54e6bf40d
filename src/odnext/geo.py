"""Geospatial primitives: haversine distance, geohash cells, timeslot bins.

All functions are pure and safe for concurrent use.
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
    """Great-circle distance in kilometres on a sphere of mean radius."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def geohash_encode(p: GeoPoint, precision: int = 5) -> str:
    """Standard base-32 geohash of `p` (boundary coordinates round up)."""
    if not 1 <= precision <= 12:
        raise ValueError(f"geohash precision {precision} outside [1, 12]")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars: list[str] = []
    ch = 0
    bit = 0
    even = True  # longitude bit first
    while len(chars) < precision:
        if even:
            mid = (lon_lo + lon_hi) / 2.0
            if p.lon >= mid:
                ch = (ch << 1) | 1
                lon_lo = mid
            else:
                ch = ch << 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if p.lat >= mid:
                ch = (ch << 1) | 1
                lat_lo = mid
            else:
                ch = ch << 1
                lat_hi = mid
        even = not even
        bit += 1
        if bit == 5:
            chars.append(GEOHASH_BASE32[ch])
            ch = 0
            bit = 0
    return "".join(chars)


def geohash_bounds(code: str) -> tuple[float, float, float, float]:
    """(lat_lo, lat_hi, lon_lo, lon_hi) of a geohash cell."""
    if not code:
        raise ValueError("empty geohash")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True
    for c in code:
        try:
            val = GEOHASH_BASE32.index(c)
        except ValueError:
            raise ValueError(f"invalid geohash character {c!r}") from None
        for shift in range(4, -1, -1):
            bit = (val >> shift) & 1
            if even:
                mid = (lon_lo + lon_hi) / 2.0
                if bit:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2.0
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return lat_lo, lat_hi, lon_lo, lon_hi


def timeslot_of(ts: float, utc_offset_hours: int = 0) -> int:
    """Three-hour slot index in [0, 8) for an epoch-seconds timestamp."""
    if not math.isfinite(ts):
        raise ValueError(f"non-finite timestamp {ts}")
    hour = int(math.floor(ts / 3600.0) + utc_offset_hours) % 24
    return hour // TIMESLOT_HOURS


def timeslots(ts: np.ndarray, utc_offset_hours: int = 0) -> np.ndarray:
    """`timeslot_of` over an array of integer epoch-seconds timestamps."""
    hours = np.floor_divide(np.asarray(ts, dtype=np.int64), 3600) + utc_offset_hours
    return hours % 24 // TIMESLOT_HOURS
