"""Activation-analysis reduction.

The small amount of physics needed to reduce irradiate-decay-count
measurements: decay factors, comparator-standard concentrations and
gamma self-absorption losses.  It needs no specimen model, so an ``naa``
command loads this module alone; replicate measurements are summarised
where they are read, in ``ingest``.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, checked, require_finite


@checked
class DecaySchedule(NamedTuple):
    """Irradiate/decay/count timing for one activation product.

    All durations in seconds: ``t_irradiate`` in flux, ``t_decay``
    between removal and counting, ``t_count`` on the detector.
    """

    half_life: float
    t_irradiate: float
    t_decay: float
    t_count: float

    def _checked(self):
        fields = self._asdict()
        require_finite(**fields)
        for name, value in fields.items():
            if value <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def decay_constant(self) -> float:
        return math.log(2.0) / self.half_life


def decay_factor(d: DecaySchedule) -> float:
    """Activate-decay-count factor, in seconds.

    ``(1 - exp(-lam*Ti)) * exp(-lam*Td) * (1 - exp(-lam*Tc)) / lam``
    with ``lam = ln 2 / half_life``: saturation during irradiation,
    decay over the delay, and the integrated count-period activity.
    Strictly positive; vanishes as the delay grows or the half-life
    shrinks to zero.
    """
    lam = d.decay_constant
    saturation = -math.expm1(-lam * d.t_irradiate)
    delay = math.exp(-lam * d.t_decay)
    counted = -math.expm1(-lam * d.t_count)
    return saturation * delay * counted / lam


def comparator_concentration(
    sample_counts: float,
    sample_mass_mg: float,
    std_counts: float,
    std_mass_ug: float,
    sample_schedule: DecaySchedule,
    std_schedule: DecaySchedule,
) -> float:
    """Concentration in ppm by ratio to a co-irradiated standard.

    The standard carries a known element mass (micrograms); the sample
    mass is in milligrams.  Count rates are normalized by each
    schedule's decay factor, so shared flux cancels and the schedules
    need not be identical.  ppm is micrograms of analyte per gram of
    sample.  A decay factor, standard rate or gram mass that underflows
    to 0, or a result that overflows, is refused with ``DomainError``.
    """
    require_finite(
        sample_counts=sample_counts,
        sample_mass_mg=sample_mass_mg,
        std_counts=std_counts,
        std_mass_ug=std_mass_ug,
    )
    if sample_counts < 0:
        raise ValueError("sample_counts must be >= 0")
    if sample_mass_mg <= 0 or std_mass_ug <= 0:
        raise ValueError("masses must be > 0")
    if std_counts <= 0:
        raise ValueError("standard counts must be > 0")
    sample_factor = decay_factor(sample_schedule)
    std_factor = decay_factor(std_schedule)
    if sample_factor == 0.0 or std_factor == 0.0:
        raise DomainError(
            "decay factor underflows to 0; the schedule leaves no countable activity"
        )
    sample_rate = sample_counts / sample_factor
    std_rate = std_counts / std_factor
    sample_mass_g = sample_mass_mg / 1000.0
    for name, value in (("standard count rate", std_rate), ("sample mass in grams", sample_mass_g)):
        if value == 0.0:
            raise DomainError(f"{name} underflows to 0")
    ppm = (std_mass_ug / sample_mass_g) * (sample_rate / std_rate)
    require_finite(concentration_ppm=ppm)
    return ppm


@checked
class AttenuationEntry(NamedTuple):
    """Linear gamma attenuation in lead at one energy (per cm)."""

    energy_kev: float
    mu_linear_per_cm: float

    def _checked(self):
        require_finite(**self._asdict())
        if self.energy_kev <= 0:
            raise ValueError("energy must be > 0")
        if self.mu_linear_per_cm <= 0:
            raise ValueError("mu_linear must be > 0")


#: Linear attenuation coefficients of bullet lead at the four indicator
#: gamma energies (Cu 511, As 559, Sb 564, Ag 657 keV).  Mass
#: coefficients log-log interpolated from the Hubbell & Seltzer (NIST)
#: photon attenuation tables for Pb (0.4/0.5/0.6/0.8 MeV grid points
#: 0.2323, 0.1614, 0.1248, 0.08870 cm^2/g), times density 11.35 g/cm^3.
DEFAULT_ATTENUATION: tuple[AttenuationEntry, ...] = (
    AttenuationEntry(511.0, 1.776513),
    AttenuationEntry(559.0, 1.565200),
    AttenuationEntry(564.0, 1.545663),
    AttenuationEntry(657.0, 1.271831),
)


def self_absorption_loss(mean_max_dimension_mm: float, entry: AttenuationEntry) -> float:
    """Fraction of gamma intensity lost inside the specimen itself.

    Uses an effective path of half the mean maximum linear dimension
    (midpoint-emission approximation): ``1 - exp(-mu * L/2)``.  Strictly
    increasing in the dimension, tending to 0 as ``mu -> 0``.
    """
    require_finite(dimension_mm=mean_max_dimension_mm)
    if mean_max_dimension_mm <= 0:
        raise ValueError("dimension must be > 0")
    path_cm = (mean_max_dimension_mm / 10.0) / 2.0
    return -math.expm1(-entry.mu_linear_per_cm * path_cm)
