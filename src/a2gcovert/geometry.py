"""Spatial layer: distances, elevation angles, LoS probability and UPA lobes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArrayError, DomainError

__all__ = [
    "NodePosition",
    "AntennaSpec",
    "LobeGainTable",
    "SCurveParams",
    "distance",
    "elevation_angle_deg",
    "los_probability",
    "lobe_gains",
    "boresight_separation",
    "alice_main_lobe_covers_willie",
]


@dataclass(frozen=True)
class NodePosition:
    """A node location in metres; h is the height above ground."""

    x: float
    y: float
    h: float = 0.0

    def __post_init__(self):
        if not self.h >= 0:
            raise DomainError("node height must be nonnegative")


@dataclass(frozen=True)
class AntennaSpec:
    """Uniform planar array described by element count and beamwidths (rad)."""

    n_elements: int
    theta_h: float
    theta_ed: float

    def __post_init__(self):
        if not self.n_elements >= 1:
            raise DomainError("antenna needs at least one element")
        if not (0 < self.theta_h <= 2 * math.pi):
            raise DomainError("theta_h must be in (0, 2*pi]")
        if not (0 < self.theta_ed <= math.pi):
            raise DomainError("theta_ed must be in (0, pi]")

    @classmethod
    def with_default_beamwidths(cls, n_elements: int) -> "AntennaSpec":
        # default half-power beamwidths follow the sqrt(3/N) UPA scaling;
        # override per antenna in the scenario file for anything different
        w = math.sqrt(3.0 / n_elements)
        return cls(n_elements=n_elements, theta_h=min(w, 2 * math.pi),
                   theta_ed=min(w, math.pi))


@dataclass(frozen=True)
class LobeGainTable:
    """Main/side lobe linear gains with their pointing probabilities."""

    g_main: float
    g_side: float
    p_main: float
    p_side: float


@dataclass(frozen=True)
class SCurveParams:
    """Environment parameters of the elevation-angle LoS S-curve."""

    sigma: float
    f: float

    def __post_init__(self):
        if not (self.sigma > 0 and self.f > 0):
            raise DomainError("S-curve parameters must be positive")


def _square(x: float) -> tuple[float, float]:
    """x * x as hi + lo exactly, by Dekker's split (no fused multiply-add);
    |x| <= 1, so the split does not overflow."""
    c = 134217729.0 * x  # 2^27 + 1
    xh = c - (c - x)
    xl = x - xh
    hi = x * x
    return hi, ((xh * xh - hi) + 2 * xh * xl) + xl * xl


def distance(p: NodePosition, q: NodePosition) -> float:
    """Euclidean 3D distance in metres, within an ulp of the exact one.

    ``math.hypot`` of the rounded differences scales instead of squaring,
    so no square overflows. Where a difference rounds, one Newton step
    h + (S - h^2) / 2h puts its error back, with the exact sum of squares S
    less h^2 summed exactly after scaling h to [0.5, 1).
    """
    pairs = ((p.x, q.x), (p.y, q.y), (p.h, q.h))
    d = [a - b for a, b in pairs]
    h = math.hypot(*d)
    if not 0 < h < math.inf:
        return h
    # Knuth's two-sum: a - b == s + e exactly
    e = [(a - (s - (s - a))) - (b + (s - a)) for (a, b), s in zip(pairs, d)]
    if not any(e):
        return h
    k = math.frexp(h)[1]
    hs = math.ldexp(h, -k)
    terms = [-t for t in _square(hs)]
    for s, err in zip(d, e):
        s, err = math.ldexp(s, -k), math.ldexp(err, -k)
        terms += [*_square(s), 2 * s * err, err * err]
    return math.ldexp(hs + math.fsum(terms) / (2 * hs), k)


def elevation_angle_deg(uav: NodePosition, ground: NodePosition) -> float:
    """Elevation angle of the UAV seen from a ground node, in degrees."""
    dh = uav.h - ground.h
    if dh <= 0:
        raise DomainError("UAV must be above the ground node")
    d = distance(uav, ground)
    if d < dh:
        raise DomainError("invalid geometry: slant range below height difference")
    return math.degrees(math.asin(dh / d))


def los_probability(theta_deg: float, s: SCurveParams) -> float:
    """LoS probability 1 / (1 + sigma exp(-f (theta - sigma))), 0 on overflow."""
    if not (0 < theta_deg <= 90):
        raise DomainError("elevation angle must be in (0, 90] degrees")
    try:
        return 1.0 / (1.0 + s.sigma * math.exp(-s.f * (theta_deg - s.sigma)))
    except OverflowError:
        return 0.0


def _sidelobe_ratio(n: int) -> float:
    r = math.sqrt(n)
    s = math.sin(3 * math.pi / (2 * r))
    c = math.sqrt(3) / (2 * math.pi)
    den = r - c * s
    if den <= 0:
        raise DegenerateArrayError(f"side-lobe denominator nonpositive for N={n}")
    return (r - c * n * s) / den


def lobe_gains(a: AntennaSpec) -> LobeGainTable:
    """Sectorised UPA gain table: main lobe N, side lobe from the ratio form.

    The ratio form goes nonpositive for N >~ 16 (its small-angle expansion
    turns negative), which is unusable as a linear gain.  In that regime we
    substitute the power-conserving side lobe computed with the physical
    sqrt(3)/sqrt(N) half-power beamwidth, which stays in (0, 1).
    """
    n = a.n_elements
    g_main = float(n)
    g_side = _sidelobe_ratio(n)
    if g_side <= 0:
        theta3 = math.sqrt(3) / math.sqrt(n)
        p3 = (theta3 / (2 * math.pi)) * (theta3 / math.pi)
        g_side = (1.0 - n * p3) / (1.0 - p3)
        if g_side <= 0:
            raise DegenerateArrayError(f"no positive side-lobe gain for N={n}")
    g_side = min(g_side, g_main)
    p_main = min(1.0, (a.theta_h / (2 * math.pi)) * (a.theta_ed / math.pi))
    return LobeGainTable(g_main=g_main, g_side=g_side,
                         p_main=p_main, p_side=1.0 - p_main)


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = math.hypot(*vec)
    if norm == 0:
        raise DomainError("coincident nodes have no direction")
    return vec / norm


def boresight_separation(alice: NodePosition, bob: NodePosition,
                         willie: NodePosition) -> float:
    """Angle (rad) between Alice's boresight (toward Bob) and Alice->Willie."""
    u = _unit(np.array([bob.x - alice.x, bob.y - alice.y, bob.h - alice.h]))
    v = _unit(np.array([willie.x - alice.x, willie.y - alice.y, willie.h - alice.h]))
    return float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))


def alice_main_lobe_covers_willie(alice: NodePosition, bob: NodePosition,
                                  willie: NodePosition,
                                  alice_ant: AntennaSpec) -> bool:
    """True when Willie falls inside Alice's Bob-steered main lobe."""
    return boresight_separation(alice, bob, willie) <= alice_ant.theta_ed

