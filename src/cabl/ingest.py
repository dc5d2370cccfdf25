"""Measurement ingestion: CSV parsing and table fixtures.

CSV schema (UTF-8, comma separated, header required)::

    specimen_id,kind,lot,location,element,value_ppm,sigma_ppm,basis

``basis`` is ``poisson_single`` (row carries its own sigma) or
``replicate_member`` (sigma empty; rows sharing specimen, element and
location are aggregated into one series whose standard error comes from
replication).  ``location`` is outer/middle/inner/unlabeled.

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
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ConflictError, DomainError, ParseError
from .model import Basis, Element, ElementSeries, Kind, Location, Specimen
from .uncertainty import replicate_summary

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

@dataclass(frozen=True)
class Dataset:
    """Specimens plus a provenance label (file path or fixture name)."""

    specimens: tuple[Specimen, ...]
    provenance: str

    def __post_init__(self) -> None:
        by_id = {s.id: s for s in self.specimens}
        if len(by_id) != len(self.specimens):
            raise ConflictError("specimen ids must be unique within a dataset")
        object.__setattr__(self, "_by_id", by_id)

    def __iter__(self):
        return iter(self.specimens)

    def __len__(self) -> int:
        return len(self.specimens)

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.specimens)

    def get(self, specimen_id: str) -> Specimen:
        try:
            return self._by_id[specimen_id]
        except KeyError:
            raise KeyError(f"no specimen {specimen_id!r} in {self.provenance}") from None

    def subset(
        self,
        ids: Optional[Iterable[str]] = None,
        kind: Optional[Kind] = None,
        location: Optional[Location] = None,
    ) -> "Dataset":
        wanted = set(ids) if ids is not None else None
        picked = []
        for s in self.specimens:
            if wanted is not None and s.id not in wanted:
                continue
            if kind is not None and s.kind is not kind:
                continue
            if location is not None and s.location is not location:
                continue
            picked.append(s)
        if wanted is not None:
            missing = wanted - {s.id for s in picked}
            if missing:
                raise KeyError(f"no specimen {sorted(missing)} in {self.provenance}")
        return Dataset(specimens=tuple(picked), provenance=self.provenance)


@dataclass(frozen=True)
class RawRow:
    """One CSV row: a measurement plus its specimen attribution."""

    specimen_id: str
    kind: Kind
    lot: Optional[str]
    location: Location
    element: Element
    value: float
    sigma: Optional[float]
    basis: Basis


def _parse_location(text: str, line: int) -> Location:
    text = text.strip()
    if not text:
        return Location.UNLABELED
    for member in Location:
        if member.value == text:
            return member
    raise ParseError(f"unknown location {text!r}", line=line)


def _parse_float(text: str, field: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{field} is not a number: {text!r}", line=line) from exc
    if not math.isfinite(value):
        raise DomainError(f"line {line}: {field} must be finite, got {text!r}")
    return value


def parse_rows(text: str) -> list["RawRow"]:
    """Parse schema CSV into raw rows without aggregation.

    Used by analyses that need the individual replicate values (the
    factorial heterogeneity tests) rather than per-specimen summaries.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ParseError("empty input: header row required")
    if [c.strip() for c in rows[0]] != CSV_HEADER:
        raise ParseError(
            f"header must be {','.join(CSV_HEADER)}, got {','.join(rows[0])}"
        )
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} columns, got {len(row)}", line=line)
        sid, kind_s, lot_s, loc_s, elem_s, value_s, sigma_s, basis_s = (
            c.strip() for c in row
        )
        if not sid:
            raise ParseError("specimen_id must be nonempty", line=line)
        try:
            kind = next(k for k in Kind if k.value == kind_s)
        except StopIteration:
            raise ParseError(f"unknown kind {kind_s!r}", line=line) from None
        location = _parse_location(loc_s, line)
        try:
            element = Element.from_symbol(elem_s)
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from exc
        value = _parse_float(value_s, "value_ppm", line)
        if value <= 0:
            raise DomainError(f"line {line}: value_ppm must be > 0, got {value}")
        try:
            basis = next(b for b in Basis if b.value == basis_s)
        except StopIteration:
            raise ParseError(f"unknown basis {basis_s!r}", line=line) from None
        sigma = None
        if basis is Basis.POISSON_SINGLE:
            if not sigma_s:
                raise ParseError("poisson_single rows need sigma_ppm", line=line)
            sigma = _parse_float(sigma_s, "sigma_ppm", line)
            if sigma < 0:
                raise DomainError(f"line {line}: sigma_ppm must be >= 0, got {sigma}")
        elif sigma_s:
            raise ParseError("replicate_member rows must leave sigma_ppm empty", line=line)
        out.append(
            RawRow(
                specimen_id=sid,
                kind=kind,
                lot=lot_s or None,
                location=location,
                element=element,
                value=value,
                sigma=sigma,
                basis=basis,
            )
        )
    return out


def parse_csv(text: str, provenance: str = "<csv>") -> Dataset:
    """Parse measurement CSV into a Dataset.

    Replicate members sharing (specimen, element, location) aggregate
    into one series; aggregation is order independent.  Duplicate
    single-count rows for one (specimen, element) raise a conflict, as
    do rows that disagree about a specimen's kind or lot.
    """
    raw_rows = parse_rows(text)

    order: list[str] = []
    kinds: dict[str, Kind] = {}
    lots: dict[str, Optional[str]] = {}
    locations: dict[str, set[Location]] = {}
    poisson: dict[tuple[str, Element], ElementSeries] = {}
    replicates: dict[tuple[str, Element, Location], list[float]] = {}

    for raw in raw_rows:
        sid = raw.specimen_id
        if sid in kinds:
            if kinds[sid] is not raw.kind:
                raise ConflictError(f"specimen {sid!r} changes kind")
            if lots[sid] != raw.lot:
                raise ConflictError(f"specimen {sid!r} changes lot")
        else:
            order.append(sid)
            kinds[sid] = raw.kind
            lots[sid] = raw.lot
            locations[sid] = set()
        locations[sid].add(raw.location)

        if raw.basis is Basis.POISSON_SINGLE:
            key = (sid, raw.element)
            if key in poisson:
                raise ConflictError(
                    f"duplicate poisson_single for {sid!r} {raw.element.value}"
                )
            poisson[key] = ElementSeries(
                element=raw.element, mean=raw.value, se=raw.sigma, df=None, n=1
            )
        else:
            replicates.setdefault((sid, raw.element, raw.location), []).append(raw.value)

    series_by_specimen: dict[str, dict[Element, ElementSeries]] = {sid: {} for sid in order}
    for (sid, element), series in poisson.items():
        series_by_specimen[sid][element] = series
    for (sid, element, _location), values in sorted(
        replicates.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2].value)
    ):
        if (sid, element) in poisson:
            raise ConflictError(
                f"specimen {sid!r} {element.value} mixes poisson_single and replicate rows"
            )
        if len(values) < 2:
            raise ParseError(
                f"specimen {sid!r} {element.value} has a single replicate_member row; need >= 2"
            )
        if element in series_by_specimen[sid]:
            raise ConflictError(
                f"specimen {sid!r} {element.value} has replicate groups at several locations"
            )
        # canonical summation order makes aggregation exactly row-order independent
        summary = replicate_summary(sorted(values))
        series_by_specimen[sid][element] = ElementSeries(
            element=element, mean=summary.mean, se=summary.se, df=summary.df, n=summary.n
        )

    specimens = []
    for sid in order:
        labeled = locations[sid] - {Location.UNLABELED}
        spec_location = labeled.pop() if len(labeled) == 1 and len(locations[sid]) == 1 else None
        specimens.append(
            Specimen(
                id=sid,
                kind=kinds[sid],
                lot=lots[sid],
                series=series_by_specimen[sid],
                location=spec_location,
            )
        )
    return Dataset(specimens=tuple(specimens), provenance=provenance)


def _series(element: Element, mean: float, se: float, n: int) -> ElementSeries:
    df = None if n == 1 else n - 1
    return ElementSeries(element=element, mean=mean, se=se, df=df, n=n)


def _table1() -> Dataset:
    rows = [
        # id, kind, Ag (mean, se, n), Sb (mean, se, n)
        ("CE 399", Kind.BULLET, (8.8, 0.5, 1), (833.0, 9.0, 1)),
        ("CE 842", Kind.FRAGMENT, (9.8, 0.5, 1), (797.0, 7.0, 1)),
        ("CE 567", Kind.FRAGMENT, (8.1, 0.6, 1), (602.0, 4.0, 1)),
        ("CE 843", Kind.FRAGMENT, (7.9, 0.3, 1), (621.0, 4.0, 1)),
        ("CE 840", Kind.FRAGMENT, (8.2, 0.4, 3), (642.0, 6.0, 3)),
    ]
    specimens = tuple(
        Specimen(
            id=sid,
            kind=kind,
            lot=None,
            series={
                Element.AG: _series(Element.AG, *ag),
                Element.SB: _series(Element.SB, *sb),
            },
        )
        for sid, kind, ag, sb in rows
    )
    return Dataset(specimens=specimens, provenance="fixture:table1")


def _table2() -> Dataset:
    rows = [
        # id, location, Ag (mean, se, n), Sb (mean, se, n)
        ("bullet-1-outer", Location.OUTER, (6.30, 0.13, 4), (578.0, 9.75, 4)),
        ("bullet-1-middle", Location.MIDDLE, (6.66, 0.05, 3), (585.0, 6.97, 3)),
        ("bullet-1-inner", Location.INNER, (6.35, 0.14, 4), (581.0, 7.56, 4)),
        ("bullet-1", None, (6.30, 0.06, 20), (576.0, 3.47, 18)),
    ]
    specimens = tuple(
        Specimen(
            id=sid,
            kind=Kind.BULLET if location is None else Kind.BULLET_SECTION,
            lot="6003",
            series={
                Element.AG: _series(Element.AG, *ag),
                Element.SB: _series(Element.SB, *sb),
            },
            location=location,
        )
        for sid, location, ag, sb in rows
    )
    return Dataset(specimens=specimens, provenance="fixture:table2")


# (bullet, location or None for whole) -> Sb (mean, pm, n), Ag (mean, pm, n).
# Location rows are standard-deviation scale as printed; whole rows are
# standard errors.
_TABLE3_ROWS = [
    ("1", Location.OUTER, (578.0, 19.5, 4), (6.30, 0.26, 4)),
    ("1", Location.MIDDLE, (585.0, 12.1, 3), (6.66, 0.09, 3)),
    ("1", Location.INNER, (581.0, 15.1, 4), (6.35, 0.27, 4)),
    ("1", None, (576.0, 3.47, 18), (6.30, 0.06, 20)),
    ("8", Location.OUTER, (957.0, 4.86, 3), (6.90, 0.14, 3)),
    ("8", Location.MIDDLE, (952.0, 17.4, 3), (6.79, 0.16, 3)),
    ("8", Location.INNER, (963.0, 16.3, 3), (6.73, 0.18, 3)),
    ("8", None, (966.0, 7.32, 12), (6.81, 0.04, 18)),
    ("9", Location.OUTER, (1829.0, 61.4, 3), (8.71, 0.38, 3)),
    ("9", Location.MIDDLE, (1806.0, 18.1, 3), (8.51, 0.28, 3)),
    ("9", Location.INNER, (1869.0, 13.4, 3), (8.68, 0.42, 3)),
    ("9", None, (1834.0, 14.3, 9), (8.66, 0.08, 18)),
    ("10", Location.OUTER, (260.0, 10.0, 3), (5.04, 0.25, 3)),
    ("10", Location.MIDDLE, (262.0, 0.180, 3), (5.21, 0.09, 3)),
    ("10", Location.INNER, (258.0, 4.69, 3), (5.14, 0.16, 3)),
    ("10", None, (260.0, 1.93, 9), (5.04, 0.05, 18)),
]


def _table3() -> Dataset:
    specimens = []
    for bullet, location, sb, ag in _TABLE3_ROWS:
        sid = f"bullet-{bullet}" if location is None else f"bullet-{bullet}-{location.value}"
        specimens.append(
            Specimen(
                id=sid,
                kind=Kind.BULLET if location is None else Kind.BULLET_SECTION,
                lot="6003",
                series={
                    Element.SB: _series(Element.SB, *sb),
                    Element.AG: _series(Element.AG, *ag),
                },
                location=location,
            )
        )
    return Dataset(specimens=tuple(specimens), provenance="fixture:table3")


_FIXTURES = {"table1": _table1, "table2": _table2, "table3": _table3}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> Dataset:
    """Return one of the embedded measurement tables."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r} (have: {', '.join(FIXTURE_NAMES)})")
    return _FIXTURES[name]()
