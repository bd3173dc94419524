"""Scenario configuration: types, Table-defaults, file loading and validation.

Scenario files are flat ``key = value`` text with dotted keys (see
``DEFAULT_FLAT`` for the full schema).  dB / dBm quantities are converted to
linear ratios / milliwatts exactly once, at load time; every downstream
computation is linear.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .channel import NakagamiLaw, NoiseModel, PathLoss, RicianLaw
from .errors import ScenarioError
from .geometry import (
    AntennaSpec,
    NodePosition,
    SCurveParams,
    distance,
    elevation_angle_deg,
    los_probability,
)
from .specfun import MARCUM_ARG_MAX

__all__ = [
    "BandModel",
    "Scenario",
    "LinkGeometry",
    "db_to_linear",
    "dbm_to_mw",
    "default_scenario",
    "loads_scenario",
    "scenario_to_flat",
    "scenario_from_flat",
    "scenario_hash",
]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _finite(value: float, db: bool) -> bool:
    """Whether ``value`` is a finite number and, if it is a dB or dBm
    reading (``db``), so is its linear value."""
    try:
        return math.isfinite(value) and (not db or math.isfinite(
            db_to_linear(value)))
    except (OverflowError, TypeError):
        return False


@dataclass(frozen=True)
class BandModel:
    """Per-mode propagation bundle (path loss, fading family, bandwidth)."""

    mode: str  # "om" or "dm"
    pl_los: PathLoss
    pl_nlos: PathLoss
    bandwidth_hz: float
    rician: RicianLaw | None = None  # OM only
    nakagami: NakagamiLaw | None = None  # DM only

    def __post_init__(self):
        if self.mode not in ("om", "dm"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if not self.bandwidth_hz > 0:
            raise ScenarioError("bandwidth_hz must be positive")
        if self.mode == "om" and self.rician is None:
            raise ScenarioError("OM band needs a Rician law")
        if self.mode == "dm" and self.nakagami is None:
            raise ScenarioError("DM band needs Nakagami shapes")


@dataclass(frozen=True)
class LinkGeometry:
    """Derived spatial quantities of one UAV-to-ground link."""

    d: float
    theta_rad: float
    p_los: float


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration."""

    alice: NodePosition
    bob: NodePosition
    willie: NodePosition
    d_aw_min: float
    d_aw_max: float
    p_max: float  # mW
    p_a: float  # mW, operating power for non-optimised metrics
    epsilon: float
    r_b: float  # bits/s
    noise: NoiseModel
    scurve: SCurveParams
    om: BandModel
    dm: BandModel
    ant_alice: AntennaSpec
    ant_bob: AntennaSpec
    ant_willie: AntennaSpec
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ScenarioError("epsilon must lie in (0, 1)")
        if not 0 < self.p_max < math.inf:
            raise ScenarioError("p_max must be positive and finite")
        if not 0 <= self.p_a < math.inf:
            raise ScenarioError("p_a must be nonnegative and finite")
        if not 0 <= self.r_b < math.inf:
            raise ScenarioError("r_b must be nonnegative and finite")
        if not (0 < self.d_aw_min <= self.d_aw_max):
            raise ScenarioError("safe-distance bounds must satisfy 0 < min <= max")
        if not self.seed >= 0:
            raise ScenarioError(f"seed = {self.seed} must be >= 0")

    def band(self, mode: str) -> BandModel:
        if mode == "om":
            return self.om
        if mode == "dm":
            return self.dm
        raise ScenarioError(f"unknown mode {mode!r}")

    def link(self, uav: NodePosition, node: NodePosition) -> LinkGeometry:
        d = distance(uav, node)
        theta = elevation_angle_deg(uav, node)
        return LinkGeometry(
            d=d,
            theta_rad=math.radians(theta),
            p_los=los_probability(theta, self.scurve),
        )

    def check_safe_distance(self, uav: NodePosition, allow_unsafe: bool = False):
        d = distance(uav, self.willie)
        if not (self.d_aw_min <= d <= self.d_aw_max) and not allow_unsafe:
            raise ScenarioError(
                f"d_aw = {d:.6g} m violates [{self.d_aw_min}, {self.d_aw_max}]; "
                "pass --allow-unsafe to sweep across the bound"
            )


# Table defaults in file units (dB/dBm where marked).  The Rician anchors are
# read as dB ratios; the target rate is an absolute bits/s figure.  Both
# interpretations are echoed in output metadata.
DEFAULT_FLAT: dict[str, float | int] = {
    "alice.x": 1000.0,
    "alice.y": 0.0,
    "alice.h": 500.0,
    "bob.x": -500.0,
    "bob.y": 0.0,
    "bob.h": 0.0,
    "willie.x": 1000.0,
    "willie.y": 0.0,
    "willie.h": 0.0,
    "d_aw_min": 300.0,
    "d_aw_max": 1500.0,
    "p_max_dbm": 20.0,
    "p_a_dbm": 15.0,
    "epsilon": 0.2,
    "r_b": 1.0e6,
    "seed": 0,
    "noise.sigma_n2_dbm": -80.0,
    "noise.rho_db": 2.0,
    "scurve.sigma": 4.88,
    "scurve.f": 0.429,
    "om.beta_los": 1.0e-6,
    "om.beta_nlos": 1.0e-7,
    "om.alpha_los": 1.64,
    "om.alpha_nlos": 2.71,
    "om.bandwidth_hz": 40.0e6,
    "om.k0_db": 5.0,
    "om.k_half_pi_db": 15.0,
    "dm.beta_los": 10.0 ** -6.11,
    "dm.beta_nlos": 10.0 ** -7.18,
    "dm.alpha_los": 2.0,
    "dm.alpha_nlos": 3.0,
    "dm.bandwidth_hz": 100.0e6,
    "dm.s_los": 3,
    "dm.s_nlos": 2,
    "antenna.alice.n": 6,
    "antenna.bob.n": 18,
    "antenna.willie.n": 18,
    # beamwidths default to sqrt(3/N) radians; set explicitly to override
    "antenna.alice.theta_h_rad": -1.0,
    "antenna.alice.theta_ed_rad": -1.0,
    "antenna.bob.theta_h_rad": -1.0,
    "antenna.bob.theta_ed_rad": -1.0,
    "antenna.willie.theta_h_rad": -1.0,
    "antenna.willie.theta_ed_rad": -1.0,
}

_INT_KEYS = {"seed", "dm.s_los", "dm.s_nlos",
             "antenna.alice.n", "antenna.bob.n", "antenna.willie.n"}


def _parse_flat(text: str) -> dict[str, float | int]:
    values = dict(DEFAULT_FLAT)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in DEFAULT_FLAT:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                parsed: float | int = int(val)
            else:
                parsed = float(val)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        values[key] = parsed
    return values


def _antenna(values: dict, who: str) -> AntennaSpec:
    n = int(values[f"antenna.{who}.n"])
    if n < 1:
        raise ScenarioError(f"antenna.{who}.n = {n} must be >= 1")
    base = AntennaSpec.with_default_beamwidths(n)
    th = values[f"antenna.{who}.theta_h_rad"]
    te = values[f"antenna.{who}.theta_ed_rad"]
    return AntennaSpec(
        n_elements=n,
        theta_h=base.theta_h if th <= 0 else th,
        theta_ed=base.theta_ed if te <= 0 else te,
    )


# The microwave outage evaluates the Marcum-Q surrogate at a = sqrt(2k), which
# is verified only up to MARCUM_ARG_MAX; k(theta) <= k_half_pi at every
# elevation, so bounding the anchor bounds every position.
_K_HALF_PI_MAX = 0.5 * MARCUM_ARG_MAX * MARCUM_ARG_MAX
_K_HALF_PI_MAX_DB = 10.0 * math.log10(_K_HALF_PI_MAX)


def _build(values: dict[str, float | int]) -> Scenario:
    for key, val in values.items():
        if not _finite(val, key.endswith(("_db", "_dbm"))):
            raise ScenarioError(f"{key} = {val!r} does not give a finite value")
        if key in _INT_KEYS and not float(val).is_integer():
            raise ScenarioError(f"{key} = {val!r} must be an integer")
    # the noise model's own check, here to name the key: a rho_db that
    # rounds rho to 1 is refused too
    rho = db_to_linear(values["noise.rho_db"])
    if rho <= 1:
        raise ScenarioError(f"noise.rho_db = {values['noise.rho_db']!r} gives "
                            f"rho = {rho!r}, which must exceed 1")
    if db_to_linear(values["om.k_half_pi_db"]) > _K_HALF_PI_MAX:
        raise ScenarioError(
            f"om.k_half_pi_db = {values['om.k_half_pi_db']:g} dB exceeds "
            f"{_K_HALF_PI_MAX_DB:.4f} dB: Rice factors above "
            f"{_K_HALF_PI_MAX:g} lie outside the range of the Marcum-Q "
            "surrogate used by the microwave outage")
    try:
        om = BandModel(
            mode="om",
            pl_los=PathLoss(values["om.beta_los"], values["om.alpha_los"]),
            pl_nlos=PathLoss(values["om.beta_nlos"], values["om.alpha_nlos"]),
            bandwidth_hz=values["om.bandwidth_hz"],
            rician=RicianLaw(
                k0=db_to_linear(values["om.k0_db"]),
                k_half_pi=db_to_linear(values["om.k_half_pi_db"]),
            ),
        )
        dm = BandModel(
            mode="dm",
            pl_los=PathLoss(values["dm.beta_los"], values["dm.alpha_los"]),
            pl_nlos=PathLoss(values["dm.beta_nlos"], values["dm.alpha_nlos"]),
            bandwidth_hz=values["dm.bandwidth_hz"],
            nakagami=NakagamiLaw(int(values["dm.s_los"]), int(values["dm.s_nlos"])),
        )
        return Scenario(
            alice=NodePosition(values["alice.x"], values["alice.y"], values["alice.h"]),
            bob=NodePosition(values["bob.x"], values["bob.y"], values["bob.h"]),
            willie=NodePosition(values["willie.x"], values["willie.y"], values["willie.h"]),
            d_aw_min=values["d_aw_min"],
            d_aw_max=values["d_aw_max"],
            p_max=dbm_to_mw(values["p_max_dbm"]),
            p_a=dbm_to_mw(values["p_a_dbm"]),
            epsilon=values["epsilon"],
            r_b=values["r_b"],
            noise=NoiseModel(
                sigma_n2=dbm_to_mw(values["noise.sigma_n2_dbm"]),
                rho=rho,
            ),
            scurve=SCurveParams(values["scurve.sigma"], values["scurve.f"]),
            om=om,
            dm=dm,
            ant_alice=_antenna(values, "alice"),
            ant_bob=_antenna(values, "bob"),
            ant_willie=_antenna(values, "willie"),
            seed=int(values["seed"]),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def loads_scenario(text: str) -> Scenario:
    """Parse scenario text; omitted keys take the network-default values."""
    return _build(_parse_flat(text))


def default_scenario(**overrides) -> Scenario:
    """The default scenario, optionally with dataclass-level overrides."""
    scn = _build(dict(DEFAULT_FLAT))
    return replace(scn, **overrides) if overrides else scn


def scenario_to_flat(values_text: str | None = None) -> dict[str, float | int]:
    """Flat key/value view of a scenario file (defaults merged in)."""
    return _parse_flat(values_text or "")


def scenario_from_flat(flat: dict[str, float | int]) -> Scenario:
    """Build the scenario of a flat key/value view such as ``scenario_to_flat``
    returns; omitted keys take the default values."""
    unknown = sorted(set(flat) - set(DEFAULT_FLAT))
    if unknown:
        raise ScenarioError(f"unknown keys {unknown}")
    return _build({**DEFAULT_FLAT, **flat})


def scenario_hash(flat: dict[str, float | int]) -> str:
    blob = "\n".join(f"{k}={flat[k]!r}" for k in sorted(flat)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
