"""Synthetic land-surface data: a heterogeneous leaky-bucket water balance
standing in for a land surface model, plus the noise and observation-schedule
machinery for hindcast experiments.

Per pixel and day (depth in mm, moisture as volumetric fraction):

    theta[t+1] = clamp(theta[t] + (inf * P - ET * theta - k * theta**b) / depth,
                       residual, porosity)

P is a seeded wet-day precipitation process, ET demand follows a seasonal
potential-evapotranspiration cycle, and the per-pixel parameters drawn from
the heterogeneity ranges become the static attributes. The clean series is
kept as ground truth; the target is a noisy, subsampled copy.

Generation works on the whole grid at once. The calendar (day of year) and
the seasonal cycles are computed once per dataset. A first pass draws each
pixel's parameters and forcings from the pixel's own random stream, the
bucket then steps all pixels together day by day, and a second pass
continues each stream for the target, lsm channel and revisit schedule.
The drainage power is taken with ``math.pow``, the C library ``pow`` behind
Python's ``**``: numpy's array ``power`` may take a SIMD path that differs
from it in the last bit, and the datasets are kept bit-identical to a
one-pixel-at-a-time simulation.
"""

from __future__ import annotations

import datetime as dt
import math
import typing
from dataclasses import dataclass

import numpy as np

from .config import Config
from .dataset import GridDataset, PixelSeries, parse_date
from .errors import ValidationError
from .lstm import make_rng

NOISE_KINDS = ("none", "white", "relative")
FORCING_NAMES = ["precip", "pet", "tair"]


@dataclass
class SyntheticConfig(Config):
    rows: int = 8
    cols: int = 8
    years: int = 3
    start_date: str = "2000-01-01"
    # bucket parameter ranges, sampled per pixel
    porosity: tuple[float, float] = (0.42, 0.48)
    residual: tuple[float, float] = (0.08, 0.12)
    infiltration: tuple[float, float] = (0.4, 0.6)
    et_coef: tuple[float, float] = (0.8, 1.2)
    drainage_coef: tuple[float, float] = (40.0, 80.0)   # mm/day at theta = 1
    drainage_exp: tuple[float, float] = (2.0, 3.0)
    depth_mm: tuple[float, float] = (250.0, 350.0)
    # precipitation process, sampled per pixel
    wet_day_prob: tuple[float, float] = (0.25, 0.35)
    wet_day_depth: tuple[float, float] = (6.0, 10.0)    # mean mm on wet days
    # target corruption
    noise_kind: str = "none"
    noise_param: float = 0.0
    revisit_days: int = 3
    irregular_revisit: bool = False
    # optional biased dense model-simulated channel
    include_lsm: bool = False
    lsm_bias_range: tuple[float, float] = (-0.08, 0.08)
    lsm_noise_std: float = 0.0
    # when set, one visible attribute ("biasattr") encodes each pixel's lsm
    # bias position so models can in principle learn the correction
    lsm_bias_from_attr: bool = False
    # optional pixel-constant offset added to the target, driven by one extra
    # quadratic attribute; exercises instantaneous nonlinearity
    bias_attr_scale: float = 0.0
    # hide the bucket parameters from the attribute vector (pixel
    # heterogeneity the models cannot see)
    expose_bucket_attrs: bool = True
    # optional region labels laid out as blocks of the grid
    region_layout: tuple[int, int] | None = None
    seed: int = 0

    def validate(self):
        if self.rows < 1 or self.cols < 1 or self.years < 1:
            raise ValidationError("grid dims and years must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name, tp in typing.get_type_hints(type(self)).items():
            if tp == tuple[float, float] and getattr(self, name)[0] > getattr(self, name)[1]:
                raise ValidationError(f"{name!r} must be a [low, high] range, "
                                      f"got {list(getattr(self, name))}")
        if not 0 <= self.wet_day_prob[0] <= self.wet_day_prob[1] <= 1:
            raise ValidationError(f"'wet_day_prob' must lie in [0, 1], "
                                  f"got {list(self.wet_day_prob)}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValidationError(f"noise kind must be one of {NOISE_KINDS}")
        if self.noise_kind != "none" and self.noise_param <= 0:
            raise ValidationError("noise_param must be positive for noisy targets")
        if self.revisit_days < 1:
            raise ValidationError("revisit interval must be >= 1 day")
        if self.porosity[0] <= self.residual[1]:
            raise ValidationError("porosity range must sit above residual range")
        if self.region_layout is not None:
            nr, nc = self.region_layout
            if min(nr, nc) < 1 or self.rows % nr or self.cols % nc:
                raise ValidationError("region layout must tile the grid evenly")
        if self.lsm_bias_from_attr and not self.include_lsm:
            raise ValidationError("lsm_bias_from_attr requires include_lsm")
        if self.lsm_bias_from_attr and self.bias_attr_scale > 0:
            raise ValidationError(
                "biasattr cannot drive the lsm bias and a target offset at once")
        return self

    @property
    def n_days(self) -> int:
        return self.years * 365


def add_noise(series: np.ndarray, kind: str, param: float, seed) -> np.ndarray:
    """Corrupt a series with independent (non-autocorrelated) noise.

    "white" adds N(0, param); "relative" multiplies by (1 + e) with
    e ~ N(0, param).
    """
    if kind not in ("white", "relative"):
        raise ValidationError(f"noise kind must be white or relative, got {kind!r}")
    if param <= 0:
        raise ValidationError("noise parameter must be positive")
    series = np.asarray(series, dtype=float)
    rng = make_rng(seed)
    eps = rng.normal(0.0, param, size=series.shape)
    if kind == "white":
        return series + eps
    return series * (1.0 + eps)


def _day_of_year(start: dt.date, n_days: int) -> np.ndarray:
    """Day of year (1-366) of each of ``n_days`` days from ``start``."""
    days = np.datetime64(start, "D") + np.arange(n_days)
    return (days - days.astype("datetime64[Y]")).astype(float) + 1.0


def _seasonal_cycle(doy: np.ndarray, amplitude: float, base: float) -> np.ndarray:
    return base + amplitude * np.sin(2.0 * np.pi * (doy - 105.0) / 365.25)


def _bucket_lockstep(precip: np.ndarray, pet: np.ndarray, et_coef, porosity,
                     residual, infiltration, drainage_coef, drainage_exp,
                     depth_mm, theta0) -> np.ndarray:
    """Step every pixel's bucket together over time.

    ``precip`` and ``pet`` are (T, P); the parameters and ``theta0`` are
    (P,). ET demand is ``et_coef * pet``, formed one day at a time so no
    second (T, P) array is held. Returns theta as (T, P). The drainage
    power goes through ``math.pow`` (libm, the same as Python's ``**``)
    rather than numpy's array ``power``, whose SIMD path can differ in the
    last bit.
    """
    T, P = precip.shape
    theta = np.empty((T, P))
    b = np.asarray(drainage_exp, dtype=float).tolist()
    x = np.asarray(theta0, dtype=float)
    for t in range(T):
        theta[t] = x
        drain = np.fromiter(map(math.pow, x.tolist(), b), float, P)
        flux = infiltration * precip[t] - (et_coef * pet[t]) * x - drainage_coef * drain
        x = np.minimum(np.maximum(x + flux / depth_mm, residual), porosity)
    return theta


def _region_label(row: int, col: int, cfg: SyntheticConfig) -> str | None:
    if cfg.region_layout is None:
        return None
    nr, nc = cfg.region_layout
    return f"R{row // (cfg.rows // nr)}{col // (cfg.cols // nc)}"


BURN_IN_DAYS = 365  # simulated before the record starts, then discarded
# per-pixel bucket parameters, in draw order; also the exposed attribute names
BUCKET_PARAMS = ("porosity", "residual", "infiltration", "et_coef",
                 "drainage_coef", "drainage_exp", "depth_mm")


def generate_synthetic(config: SyntheticConfig) -> GridDataset:
    """Build a bucket-model GridDataset per the config; bit-identical for a
    given config (per-pixel RNG streams keyed on the config seed).

    Every pixel is simulated for one extra year before the record begins and
    that burn-in is discarded, so day 0 of the stored series is already in
    the stationary regime rather than relaxing from the bucket's arbitrary
    initial state.

    Two passes over the pixels sit around one lockstep bucket run. Pass 1
    draws each pixel's parameters, precipitation and forcing jitter from its
    own stream ``make_rng([seed, k])``; the bucket then steps all pixels
    together; pass 2 continues each pixel's same stream for the bias
    attribute, the lsm bias and noise, the target noise and the irregular
    revisit schedule. The draw order within each stream is that of a
    pixel-at-a-time loop, so a pixel's series do not depend on the grid size.
    """
    cfg = config.validate()
    n_days = cfg.n_days
    start = parse_date(cfg.start_date)
    burn = BURN_IN_DAYS
    sim_days = n_days + burn
    sim_start = start - dt.timedelta(days=burn)

    attribute_names = []
    if cfg.expose_bucket_attrs:
        attribute_names = list(BUCKET_PARAMS)
    if cfg.bias_attr_scale > 0 or cfg.lsm_bias_from_attr:
        attribute_names = attribute_names + ["biasattr"]

    doy = _day_of_year(sim_start, sim_days)
    pet_cycle = _seasonal_cycle(doy, amplitude=2.0, base=3.0)
    tair_cycle = _seasonal_cycle(doy, amplitude=10.0, base=12.0)

    # pass 1: parameters and forcings, one column per pixel
    n_px = cfg.rows * cfg.cols
    params = np.empty((len(BUCKET_PARAMS), n_px))
    precip = np.empty((sim_days, n_px))
    pet = np.empty((sim_days, n_px))
    tair = np.empty((sim_days, n_px))
    rngs = []
    for k in range(n_px):
        rng = make_rng([cfg.seed, k])
        rngs.append(rng)
        for j, name in enumerate(BUCKET_PARAMS):
            params[j, k] = rng.uniform(*getattr(cfg, name))
        wet_p = rng.uniform(*cfg.wet_day_prob)
        wet_depth = rng.uniform(*cfg.wet_day_depth)
        wet = rng.random(sim_days) < wet_p
        precip[:, k] = np.where(wet, rng.exponential(wet_depth, size=sim_days), 0.0)
        pet[:, k] = np.maximum(pet_cycle + rng.normal(0.0, 0.3, size=sim_days), 0.05)
        tair[:, k] = np.maximum(tair_cycle + rng.normal(0.0, 1.5, size=sim_days), 0.05)

    porosity, residual, infiltration, et_coef, k_drain, b_drain, depth = params
    theta = _bucket_lockstep(precip, pet, et_coef, porosity, residual,
                             infiltration, k_drain, b_drain, depth,
                             theta0=0.5 * (residual + porosity))

    # pass 2: target, lsm channel and schedule, continuing each pixel's stream
    pixels = []
    for k, rng in enumerate(rngs):
        row, col = divmod(k, cfg.cols)
        attrs = list(params[:, k]) if cfg.expose_bucket_attrs else []
        truth = theta[burn:, k].copy()
        bias_attr = None
        if cfg.bias_attr_scale > 0 or cfg.lsm_bias_from_attr:
            bias_attr = rng.uniform(-1.0, 1.0)
            attrs.append(bias_attr)
        if cfg.bias_attr_scale > 0:
            # quadratic in the attribute, centered to zero mean over U(-1,1)
            truth = truth + cfg.bias_attr_scale * (bias_attr ** 2 - 1.0 / 3.0)

        region = _region_label(row, col, cfg)
        lsm = None
        if cfg.include_lsm:
            lo, hi = cfg.lsm_bias_range
            frac = _region_bias_fraction(row, col, cfg, rng)
            if cfg.lsm_bias_from_attr:
                # overwrite the sampled attribute so it encodes the bias
                attrs[-1] = 2.0 * frac - 1.0
            bias = lo + (hi - lo) * frac
            lsm = truth + bias
            if cfg.lsm_noise_std > 0:
                lsm = lsm + rng.normal(0.0, cfg.lsm_noise_std, size=n_days)

        if cfg.noise_kind == "none":
            target = truth.copy()
        else:
            target = add_noise(truth, cfg.noise_kind, cfg.noise_param, rng)
        target = np.clip(target, 0.0, 1.0)

        if cfg.irregular_revisit:
            observed = rng.random(n_days) < 1.0 / cfg.revisit_days
        else:
            offset = (row + col) % cfg.revisit_days  # destagger like swaths
            observed = (np.arange(n_days) % cfg.revisit_days) == offset
        target = np.where(observed, target, np.nan)

        pixels.append(PixelSeries(
            pixel_id=f"px_{row}_{col}", row=row, col=col,
            forcing=np.column_stack([precip[burn:, k], pet[burn:, k], tair[burn:, k]]),
            attributes=np.asarray(attrs, dtype=float),
            target=target, mask=observed,
            lsm=lsm, truth=truth, region=region,
        ))

    ds = GridDataset(rows=cfg.rows, cols=cfg.cols, start_date=start,
                     n_days=n_days, forcing_names=list(FORCING_NAMES),
                     attribute_names=attribute_names, pixels=pixels)
    return ds.validate()


def _region_bias_fraction(row: int, col: int, cfg: SyntheticConfig,
                          rng: np.random.Generator) -> float:
    """Position of this pixel's lsm bias inside lsm_bias_range, in [0, 1].

    With regions, region index sets the center (regions are ordered low to
    high bias) and pixels jitter around it; without regions the fraction is
    uniform.
    """
    if cfg.region_layout is None:
        return rng.uniform(0.0, 1.0)
    nr, nc = cfg.region_layout
    n_regions = nr * nc
    idx = (row // (cfg.rows // nr)) * nc + (col // (cfg.cols // nc))
    if n_regions == 1:
        center = 0.5
    else:
        center = idx / (n_regions - 1)
    half_width = 0.5 / max(n_regions - 1, 1)
    return float(np.clip(center + rng.uniform(-half_width, half_width), 0.0, 1.0))
