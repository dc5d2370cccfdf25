"""Input tables: measurement CSV, attenuation CSV and table fixtures.

CSV schema (UTF-8, comma separated, header required)::

    specimen_id,kind,lot,location,element,value_ppm,sigma_ppm,basis

``basis`` is ``poisson_single`` (row carries its own sigma) or
``replicate_member`` (sigma empty; rows sharing specimen, element and
location are aggregated by ``replicate_summary`` into one series whose
standard error comes from replication).  ``location`` is
outer/middle/inner/unlabeled.
``parse_rows`` returns the rows as ``RawRow`` named tuples;
``parse_csv`` groups them by specimen id and builds each specimen from
its own rows, in order of first appearance.  The attenuation table of
``naa selfabs --table`` has the header ``energy_kev,mu_linear_per_cm``
and gives each energy once.

Three embedded fixtures transcribe the published measurement tables:

* ``table1`` - the five assassination specimens, silver and antimony.
  All standard errors are single-count Poisson sigmas except CE 840,
  whose value summarizes 3 replicate measurements (df = 2).
* ``table2`` - bullet 1 of lot 6003 by radial location plus combined,
  as mean / standard error of the mean with degrees of freedom.
* ``table3`` - bullets 1, 8, 9 and 10 of lot 6003.  Caveat: the
  per-location spreads in this table are standard-deviation scale
  (inconsistent with table2's standard errors for the same physical
  fragments) and are stored verbatim in the ``se`` slot; whole-bullet
  rows are standard-error scale and agree with table2.  Analyses that
  need per-location standard errors should use ``table2``.
"""

from __future__ import annotations

import csv
import io
import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .errors import ConflictError, DomainError, ParseError, UnknownSpecimenError
from .model import Basis, Element, ElementSeries, Kind, Location, Specimen

if TYPE_CHECKING:
    from .uncertainty import AttenuationEntry

CSV_HEADER = [
    "specimen_id",
    "kind",
    "lot",
    "location",
    "element",
    "value_ppm",
    "sigma_ppm",
    "basis",
]

ATTENUATION_HEADER = ["energy_kev", "mu_linear_per_cm"]


class Dataset:
    """Specimens plus a provenance label (file path or fixture name).

    It iterates over its specimens, and its length is their count.
    """

    __slots__ = ("specimens", "provenance", "_by_id")

    def __init__(self, specimens: tuple[Specimen, ...], provenance: str) -> None:
        by_id = {s.id: s for s in specimens}
        if len(by_id) != len(specimens):
            raise ConflictError("specimen ids must be unique within a dataset")
        self.specimens = specimens
        self.provenance = provenance
        self._by_id = by_id

    def __iter__(self):
        return iter(self.specimens)

    def __len__(self) -> int:
        return len(self.specimens)

    def get(self, specimen_id: str) -> Specimen:
        try:
            return self._by_id[specimen_id]
        except KeyError:
            raise UnknownSpecimenError(f"no specimen {specimen_id!r} in {self.provenance}") from None


class RawRow(NamedTuple):
    """One CSV row: a measurement plus its specimen attribution."""

    specimen_id: str
    kind: Kind
    lot: Optional[str]
    location: Location
    element: Element
    value: float
    sigma: Optional[float]
    basis: Basis


def _table_rows(text: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, cells)`` for each nonblank data row of a CSV table.

    The first row must be ``header`` and every data row must be as wide.
    Cells come stripped; ``line`` counts CSV records, the header being 1.
    A record the ``csv`` module refuses (a field over its size limit) is a
    ``ParseError`` at that record, and so is one holding a NUL byte, on
    every Python version: the module refuses it before 3.11 and passes it
    on from then, so it is refused here as the module refused it.
    """
    rows = csv.reader(io.StringIO(text))
    if "\0" in text:
        rows = map(_without_nul, rows)
    line = 0  # the last record read
    try:
        first = next(rows, None)
        if first is None:
            raise ParseError("empty input: header row required")
        line = 1
        if [c.strip() for c in first] != header:
            raise ParseError(f"header must be {','.join(header)}, got {','.join(first)}")
        for line, row in enumerate(rows, start=2):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(cells)}", line=line)
            yield line, cells
    except csv.Error as exc:
        raise ParseError(str(exc), line=line + 1) from None


def _without_nul(row: list[str]) -> list[str]:
    if any("\0" in cell for cell in row):
        raise csv.Error("line contains NUL")
    return row


def _token(cls, text: str, line: int):
    """The member of vocabulary enum ``cls`` whose value is ``text``."""
    member = cls._value2member_map_.get(text)
    if member is None:
        try:
            member = cls(text)  # the enum's refusal names the valid values
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
    return member


def _parse_float(text: str, field: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{field} is not a number: {text!r}", line=line) from exc
    if not math.isfinite(value):
        raise DomainError(f"line {line}: {field} must be finite, got {text!r}")
    return value


def parse_rows(text: str) -> list[RawRow]:
    """Parse schema CSV into raw rows without aggregation.

    Used by analyses that need the individual replicate values (the
    factorial heterogeneity tests) rather than per-specimen summaries.
    """
    out = []
    for line, cells in _table_rows(text, CSV_HEADER):
        sid, kind_s, lot_s, loc_s, elem_s, value_s, sigma_s, basis_s = cells
        if not sid:
            raise ParseError("specimen_id must be nonempty", line=line)
        kind = _token(Kind, kind_s, line)
        location = _token(Location, loc_s or "unlabeled", line)
        element = _token(Element, elem_s, line)
        value = _parse_float(value_s, "value_ppm", line)
        if value <= 0:
            raise DomainError(f"line {line}: value_ppm must be > 0, got {value}")
        basis = _token(Basis, basis_s, line)
        sigma = None
        if basis is Basis.POISSON_SINGLE:
            if not sigma_s:
                raise ParseError("poisson_single rows need sigma_ppm", line=line)
            sigma = _parse_float(sigma_s, "sigma_ppm", line)
            if sigma < 0:
                raise DomainError(f"line {line}: sigma_ppm must be >= 0, got {sigma}")
        elif sigma_s:
            raise ParseError("replicate_member rows must leave sigma_ppm empty", line=line)
        out.append(RawRow(sid, kind, lot_s or None, location, element, value, sigma, basis))
    return out


def parse_csv(text: str, provenance: str = "<csv>") -> Dataset:
    """Parse measurement CSV into a Dataset, one specimen per id in order
    of first appearance.

    Rows that disagree about a specimen's kind or lot raise a conflict,
    in row order, before any specimen is built; after that the first
    specimen in file order with a fault is the one reported.  Replicate
    members sharing (specimen, element, location) aggregate into one
    series by ``replicate_summary``, the same in any row order.
    Duplicate single-count rows for one (specimen, element) conflict.
    """
    by_id: dict[str, list[RawRow]] = {}
    for row in parse_rows(text):
        rows = by_id.get(row.specimen_id)
        if rows is None:
            by_id[row.specimen_id] = [row]
            continue
        if rows[0].kind is not row.kind:
            raise ConflictError(f"specimen {row.specimen_id!r} changes kind")
        if rows[0].lot != row.lot:
            raise ConflictError(f"specimen {row.specimen_id!r} changes lot")
        rows.append(row)
    return Dataset(tuple(_specimen(sid, rows) for sid, rows in by_id.items()), provenance)


def _specimen(sid: str, rows: list[RawRow]) -> Specimen:
    """Build one specimen from its rows, which agree on kind and lot.

    Single-count series come first, in row order, then one series per
    replicate group by (element, location).  The specimen has a location
    when all its rows share one labeled location.
    """
    series: dict[Element, ElementSeries] = {}
    replicates: dict[tuple[Element, Location], list[float]] = {}
    for row in rows:
        if row.basis is Basis.POISSON_SINGLE:
            if row.element in series:
                raise ConflictError(f"duplicate poisson_single for {sid!r} {row.element.value}")
            series[row.element] = ElementSeries(row.value, row.sigma)
        else:
            replicates.setdefault((row.element, row.location), []).append(row.value)
    for (element, _location), values in sorted(
        replicates.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        earlier = series.get(element)
        if earlier is not None and earlier.df is None:
            raise ConflictError(
                f"specimen {sid!r} {element.value} mixes poisson_single and replicate rows"
            )
        if len(values) < 2:
            raise ParseError(
                f"specimen {sid!r} {element.value} has a single replicate_member row; need >= 2"
            )
        if earlier is not None:
            raise ConflictError(
                f"specimen {sid!r} {element.value} has replicate groups at several locations"
            )
        try:
            series[element] = replicate_summary(values)
        except DomainError as exc:
            raise DomainError(f"specimen {sid!r} {element.value}: {exc}") from None
    locations = {row.location for row in rows}
    location = locations.pop() if len(locations) == 1 else None
    if location is Location.UNLABELED:
        location = None
    return Specimen(sid, rows[0].kind, rows[0].lot, series, location)


def replicate_summary(values: Sequence[float]) -> ElementSeries:
    """Summarize n >= 2 replicate measurements as an element series.

    ``se`` is the sample standard deviation divided by ``sqrt(n)``;
    ``df`` is ``n - 1``.  Sums are exactly rounded and squares are
    ``x * x``, so any order of the values gives the same series on every
    Python.  A mean <= 0 is refused as the series refuses it, and a mean
    or spread beyond the float range with ``DomainError``.
    """
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 replicates, got {n}")
    mean = var = math.inf
    try:
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) * (v - mean) for v in values) / (n - 1)
    except OverflowError:  # the series refuses the infinite mean or se
        pass
    return ElementSeries(mean, math.sqrt(var / n), n - 1, n)


def parse_attenuation_csv(text: str) -> tuple[AttenuationEntry, ...]:
    """Parse an attenuation table: ``energy_kev,mu_linear_per_cm``.

    An energy given on two lines is a ``ConflictError`` naming both: a
    report keyed by energy would show one of them and drop the other.
    """
    from .uncertainty import AttenuationEntry  # here, so measurement jobs never load it

    entries = []
    lines: dict[float, int] = {}  # energy -> the line that gives it
    for line, (energy, mu) in _table_rows(text, ATTENUATION_HEADER):
        try:
            entry = AttenuationEntry(float(energy), float(mu))
        except (ValueError, DomainError) as exc:
            raise ParseError(str(exc), line=line) from exc
        first = lines.setdefault(entry.energy_kev, line)
        if first != line:
            raise ConflictError(f"lines {first} and {line} both give energy {entry.energy_kev:g} keV")
        entries.append(entry)
    return tuple(entries)


# Fixture name -> (lot, element order, rows).  A row is id, kind,
# location (None for a whole object) and one (mean, se, n) per element;
# n > 1 gives df = n - 1.
_FIXTURES = {
    "table1": (None, (Element.AG, Element.SB), (
        ("CE 399", "bullet", None, (8.8, 0.5, 1), (833.0, 9.0, 1)),
        ("CE 842", "fragment", None, (9.8, 0.5, 1), (797.0, 7.0, 1)),
        ("CE 567", "fragment", None, (8.1, 0.6, 1), (602.0, 4.0, 1)),
        ("CE 843", "fragment", None, (7.9, 0.3, 1), (621.0, 4.0, 1)),
        ("CE 840", "fragment", None, (8.2, 0.4, 3), (642.0, 6.0, 3)),
    )),
    "table2": ("6003", (Element.AG, Element.SB), (
        ("bullet-1-outer", "bullet_section", "outer", (6.30, 0.13, 4), (578.0, 9.75, 4)),
        ("bullet-1-middle", "bullet_section", "middle", (6.66, 0.05, 3), (585.0, 6.97, 3)),
        ("bullet-1-inner", "bullet_section", "inner", (6.35, 0.14, 4), (581.0, 7.56, 4)),
        ("bullet-1", "bullet", None, (6.30, 0.06, 20), (576.0, 3.47, 18)),
    )),
    "table3": ("6003", (Element.SB, Element.AG), (
        ("bullet-1-outer", "bullet_section", "outer", (578.0, 19.5, 4), (6.30, 0.26, 4)),
        ("bullet-1-middle", "bullet_section", "middle", (585.0, 12.1, 3), (6.66, 0.09, 3)),
        ("bullet-1-inner", "bullet_section", "inner", (581.0, 15.1, 4), (6.35, 0.27, 4)),
        ("bullet-1", "bullet", None, (576.0, 3.47, 18), (6.30, 0.06, 20)),
        ("bullet-8-outer", "bullet_section", "outer", (957.0, 4.86, 3), (6.90, 0.14, 3)),
        ("bullet-8-middle", "bullet_section", "middle", (952.0, 17.4, 3), (6.79, 0.16, 3)),
        ("bullet-8-inner", "bullet_section", "inner", (963.0, 16.3, 3), (6.73, 0.18, 3)),
        ("bullet-8", "bullet", None, (966.0, 7.32, 12), (6.81, 0.04, 18)),
        ("bullet-9-outer", "bullet_section", "outer", (1829.0, 61.4, 3), (8.71, 0.38, 3)),
        ("bullet-9-middle", "bullet_section", "middle", (1806.0, 18.1, 3), (8.51, 0.28, 3)),
        ("bullet-9-inner", "bullet_section", "inner", (1869.0, 13.4, 3), (8.68, 0.42, 3)),
        ("bullet-9", "bullet", None, (1834.0, 14.3, 9), (8.66, 0.08, 18)),
        ("bullet-10-outer", "bullet_section", "outer", (260.0, 10.0, 3), (5.04, 0.25, 3)),
        ("bullet-10-middle", "bullet_section", "middle", (262.0, 0.180, 3), (5.21, 0.09, 3)),
        ("bullet-10-inner", "bullet_section", "inner", (258.0, 4.69, 3), (5.14, 0.16, 3)),
        ("bullet-10", "bullet", None, (260.0, 1.93, 9), (5.04, 0.05, 18)),
    )),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> Dataset:
    """Return one of the embedded measurement tables."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r} (have: {', '.join(FIXTURE_NAMES)})")
    lot, panel, rows = _FIXTURES[name]
    specimens = tuple(
        Specimen(
            id=sid,
            kind=Kind(kind),
            lot=lot,
            series={
                e: ElementSeries(mean, se, df=None if n == 1 else n - 1, n=n)
                for e, (mean, se, n) in zip(panel, values)
            },
            location=Location(location) if location else None,
        )
        for sid, kind, location, *values in rows
    )
    return Dataset(specimens=specimens, provenance=f"fixture:{name}")
