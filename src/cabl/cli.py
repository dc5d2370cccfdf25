"""Command-line surface: ingest -> match -> group -> evidence/stats -> report.

Subcommands: match, group, evidence, hetero, distfit, naa, report.
Every command accepts ``--format json|text``, added once for all.  Each
setting has one flag: ``match``, ``group`` and ``report`` take the
criterion from ``--criterion``, ``--k``, ``--elements``, ``--boundary``
and ``--bias``, and ``naa selfabs`` its attenuation table from
``--table``.  The parser picks each command's function (``--manova``
sets ``hetero``'s) and refuses ``--ids`` with ``--locations``.  Exit
codes: 0 success, 1 internal failure, 2 usage/validation.

Each command builds one payload dict.  ``--format json`` prints it as
JSON; ``--format text`` renders the same payload through the command's
text renderer, so both formats report the same values and refuse the
same inputs (a t-test between two zero-spread samples with different
means, for one, exits 2 in both).  Reports carry a ``decisions`` block
echoing the conventions behind the numbers (boundary handling, bias
ranges, table semantics), and all output is deterministic for fixed
inputs.  JSON comes from ``render_json``, this module's own writer,
byte-identical to ``json.dumps(indent=2, sort_keys=True)``: it appends
the text of every value, bracket and separator to one flat list of parts
and joins that once, and it joins a list of strings in one C pass, with
no Python call per item.  ``main`` writes a JSON report to stdout in
64 KiB slices, so the stream never encodes a second full copy, and a
text report in batches of lines as it is rendered, so its whole text
never exists at once.  ``group`` and ``report`` count every nontransitive
triple and list the first ``--witnesses N`` of them (100 unless told,
``all`` for every one).  The one payload value that is not plain data
is ``match``'s pair list (``_MatchRows``): ``match_table``'s table, the
specimens' ids in id order, one byte of per-element verdicts a pair and
the overlaps' bounds in one float array, with each element's
``bias_used`` read off the criterion once per report.  The writer asks
the table for the parts of one ``{"a", "b", "matched", "per_element"}``
dict a pair, all of them text shared across the report, so the
n(n-1)/2 pairs never exist as a tree of dicts or as a tuple each.

Each command, and each option helper, imports its own modules inside
its function, naming the module that defines each function, so a job
loads only the code of the command it runs.  At the top this module
imports only ``argparse``, ``errors`` and the standard library every
job uses; JSON strings are quoted by ``_json``'s C escaper, the one
``json.dumps`` uses, so no job loads the ``json`` package.
``build_parser(argv)`` registers every command but adds arguments only
to the one ``argv`` names, so a job builds its own options alone (and
the choices of ``--fixture`` and ``--criterion`` load ``ingest`` and
``model`` only for the commands that take them); ``naa`` builds only
the arguments of the subcommand ``argv`` names, by the same rule.
Every command, ``hetero --manova`` included, runs on the standard
library alone.

A job on the paper's tables does well under a millisecond of
arithmetic, less than the full garbage collections the interpreter runs
over every object as it exits.  So ``main()`` with no ``argv`` (the
process's own command line) freezes the heap with ``gc.freeze()`` once
the report is written, and those collections skip it; ``main(argv)``
with an explicit list never freezes.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from _json import encode_basestring_ascii as _quote
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import CablError, DegreesOfFreedomError, DomainError

if TYPE_CHECKING:
    from .ingest import Dataset
    from .model import BiasCorrection, Element, MatchCriterion

_BOUNDARY_NOTE = "closed boundary counts exactly touching intervals as a match"
_TABLE3_NOTE = (
    "table3 per-location spreads are standard-deviation scale as printed; "
    "whole-bullet rows are standard errors"
)
_BIAS_SIDE_NOTE = "criterion bias corrections apply to the first specimen of each pair"


def render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"``.

    With ``indent``, ``json.dumps`` leaves CPython's C encoder (3.10 to
    3.13) for a pure-Python generator of millions of small chunks on the
    large ``match`` and ``group`` payloads.  This writer gives the same
    bytes from one flat list of text parts, joined once: each container
    appends its opening, its separators and its closing to the list and
    never joins a text of its own, so the document exists once, not once
    per nesting level.  Strings are quoted with the C escaper
    ``json.dumps`` uses.  A list or tuple of strings (a witness triple, a
    group's members) is quoted and joined in one C pass; at its first
    non-string item the escaper raises ``TypeError`` and the list is
    written item by item.  ``match``'s rows add their pairs' parts from
    text shared across the report (see ``_MatchRows.encode``).  Dict keys
    must be ``str``.
    """
    parts: list[str] = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(value: object, newline: str, parts: list[str]) -> None:
    """Append ``value``'s JSON text to ``parts``; ``newline`` is a newline plus its indent."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(float.__repr__(value))
    elif isinstance(value, _MatchRows):
        value.encode(newline, parts)
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            # _quote raises TypeError on a non-str key
            parts.append(f"{separator}{_quote(key)}: ")
            _encode(item, inner, parts)
            separator = comma
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        if isinstance(value[0], str):
            try:
                body = comma.join(map(_quote, value))
            except TypeError:  # _quote met a non-string item
                pass
            else:
                parts += ("[" + inner, body, newline + "]")
                return
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _encode(item, inner, parts)
            separator = comma
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse_duration(text: str) -> float:
    """Seconds from '30', '24s', '12.7h', '2.70d' or '5m'."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    number = text.strip()
    factor = 1.0
    if number and number[-1].lower() in units:
        factor = units[number[-1].lower()]
        number = number[:-1]
    try:
        seconds = float(number) * factor
    except ValueError:
        raise ValueError(f"cannot parse duration {text!r}") from None
    if seconds <= 0:
        raise ValueError(f"duration must be > 0, got {seconds}")
    return seconds


def _split(text: str) -> list[str]:
    """The nonblank items of a comma list, stripped: ' Sb, Ag,' -> ['Sb', 'Ag']."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _numbers(text: str, flag: str, convert: type) -> list:
    """The items of a comma list, each read with ``convert`` (``int`` or
    ``float``); an item it refuses is named, with its flag."""
    numbers = []
    for item in _split(text):
        try:
            numbers.append(convert(item))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"{flag}: {item!r} is not {kind}") from None
    return numbers


def _bias_table(text: str) -> dict[Element, BiasCorrection]:
    """The ``--bias`` table: 'Sb=0.02:0.054,Ag=0.055' gives Sb [0.02, 0.054]
    and Ag [0.055, 0.055].  Each element takes one or two numbers, once,
    ``BiasCorrection`` refuses one that is not finite, and a table must
    name an element: an empty one would read as no table at all."""
    from .model import BiasCorrection, Element

    table = {}
    for item in _split(text):
        symbol, sep, values = item.partition("=")
        if not sep:
            raise ValueError(f"bias entry {item!r} must look like Sb=0.02:0.054")
        element = Element(symbol.strip())
        if element in table:
            raise ValueError(f"bias for {element} given more than once")
        try:
            bounds = [float(value) for value in values.split(":")]
        except ValueError:
            bounds = []
        if len(bounds) not in (1, 2):
            raise ValueError(f"bias for {element} must be one or two numbers, got {values!r}")
        table[element] = BiasCorrection(bounds[0], bounds[-1])
    if not table:
        raise ValueError(f"bias table {text!r} names no element, e.g. Sb=0.02:0.054")
    return table


def _read_text(path: str) -> str:
    """A UTF-8 input file's text, without the byte-order mark spreadsheets write."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _build_criterion(args: argparse.Namespace) -> MatchCriterion:
    """The ``--criterion`` preset (``guinn4`` unless named), each value a flag gives replaced."""
    from .model import Boundary, Element, criterion_preset

    # a flag given empty, as --elements , or --bias "", is read and refused
    given = {
        "k": args.k,
        "elements": None if args.elements is None else tuple(map(Element, _split(args.elements))),
        "bias": None if args.bias is None else _bias_table(args.bias),
        "boundary": None if args.boundary is None else Boundary(args.boundary),
    }
    preset = criterion_preset(args.criterion or "guinn4")
    return preset._replace(**{field: value for field, value in given.items() if value is not None})


def _criterion_dict(criterion: MatchCriterion) -> dict:
    return {
        "k": criterion.k,
        "elements": [e.value for e in criterion.elements],
        "boundary": criterion.boundary.value,
        "bias": None
        if criterion.bias is None
        else {e.value: (c.c_lo, c.c_hi) for e, c in criterion.bias.items()},
    }


def _load_dataset(args: argparse.Namespace) -> Dataset:
    from .ingest import fixture, parse_csv

    if args.fixture and args.input:
        raise ValueError("give either --fixture or --input, not both")
    if args.fixture:
        return fixture(args.fixture)
    if not args.input:
        raise ValueError("an input is required: --fixture NAME or --input PATH")
    dataset = parse_csv(_read_text(args.input), provenance=args.input)
    if not len(dataset):
        raise ValueError("dataset has no specimens")
    return dataset


def _dataset_decisions(dataset: Dataset) -> dict:
    notes = {}
    if dataset.provenance == "fixture:table3":
        notes["table3_semantics"] = _TABLE3_NOTE
    return notes


def _report_head(command: str, dataset: Dataset, criterion: MatchCriterion, **notes: str) -> dict:
    """The keys ``match``, ``group`` and ``report`` share: the command, the
    dataset's provenance, the criterion and the ``decisions`` block, which
    holds the boundary note, ``notes`` and the dataset's own notes."""
    return {
        "command": command,
        "dataset": dataset.provenance,
        "criterion": _criterion_dict(criterion),
        "decisions": {"boundary_note": _BOUNDARY_NOTE, **notes, **_dataset_decisions(dataset)},
    }


class _Once(argparse.Action):
    """Store an option's value, and refuse it a second time: the run reads
    one source, so a repeated ``--fixture`` or ``--input`` would be dropped."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once; give one input")
        setattr(namespace, self.dest, values)


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    from .ingest import FIXTURE_NAMES

    parser.add_argument("--fixture", action=_Once, choices=FIXTURE_NAMES, help="embedded table")
    parser.add_argument("--input", action=_Once, help="measurement CSV path")


def _add_criterion_options(parser: argparse.ArgumentParser) -> None:
    from .model import PRESET_NAMES

    parser.add_argument("--criterion", choices=PRESET_NAMES, help="criterion preset")
    parser.add_argument("--k", type=float, help="standard-error multiplier")
    parser.add_argument("--elements", help="element panel, e.g. Sb,Ag")
    parser.add_argument("--boundary", choices=("closed", "open"), help="interval boundary")
    parser.add_argument("--bias", help="bias table, e.g. Sb=0.02:0.054,Ag=0.055")


def _witness_limit(text: str) -> Optional[int]:
    """``--witnesses``: ``all`` (None) or a count of at least 0."""
    if text == "all":
        return None
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0 or 'all', got {text!r}")
    return int(text)


def _add_witness_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--witnesses",
        type=_witness_limit,
        default=100,
        metavar="N|all",
        help="list the first N nontransitive triples (default 100) or all; all are counted",
    )


# ---------------------------------------------------------------- match


class _MatchRows:
    """``match``'s pair list: ``match_table``'s ``(ids, masks, bounds)``
    table; ``len`` counts the pairs.

    ``ids`` are the specimens' ids in canonical order, ``masks`` one byte
    a pair of them, row by row (bit ``i`` set when panel element ``i``
    overlaps), and ``bounds`` the ``lo, hi`` of every overlap, in pair and
    panel order.  Every bound the CLI makes is a float (ingest reads means
    and errors with ``float``, the fixtures are float literals, and
    ``--k`` is read with ``float``), so the ``array('d')`` keeps its
    bytes.  ``matched`` counts the pairs whose overlaps are all present.
    Panel order is sorted by symbol, the order JSON keys take, and
    ``bias_used`` is each element's correction range, the same for every
    pair.  ``_encode`` asks the table for its text parts, which join to
    what it would write for the pair dicts ``{"a", "b", "matched",
    "per_element"}`` it stands for; ``lines`` gives the text report's.
    """

    def __init__(self, table: tuple, criterion: MatchCriterion) -> None:
        self.ids, self.masks, self.bounds = table
        self.symbols = tuple(e.value for e in criterion.elements)
        bias = [criterion.bias_for(e) for e in criterion.elements]
        self.bias_used = tuple(None if c is None else (c.c_lo, c.c_hi) for c in bias)
        self.matched = self.masks.count((1 << len(self.symbols)) - 1)

    def __len__(self) -> int:
        return len(self.masks)

    def encode(self, newline: str, parts: list[str]) -> None:
        """Append the list's JSON text to ``parts``; ``newline`` is a newline plus its indent.

        A pair adds a few parts, all of them text built once per report: a
        pair that fails on every element adds its ``a`` side's opening and
        its ``b`` side's tail, one each per specimen.  Any other pair adds
        its opening, its quoted ``b``, its verdict and each element's text,
        where an overlapping element's two bounds are text built once per
        element and distinct bound.
        """
        if not self:
            parts.append("[]")
            return
        pair, key, element, field, bound = (newline + "  " * d for d in range(1, 6))
        # each element's text when it fails, and its text around the bounds when it holds
        fails, elements = [], []
        for i, (symbol, bias) in enumerate(zip(self.symbols, self.bias_used)):
            bias_text: list[str] = []
            _encode(bias, field, bias_text)
            head = (
                f'{"," if i else ""}{element}{_quote(symbol)}: {{{field}"bias_used": '
                f'{"".join(bias_text)},{field}"matched": '
            )
            fails.append(f'{head}false,{field}"overlap": null{element}}}')
            hold = (f'{head}true,{field}"overlap": [{bound}', f"{field}]{element}}}")
            # each distinct bound's text, keyed by the bound
            elements.append((1 << i, fails[-1], hold, {}, {}))
        # indexed by whether some element fails
        verdicts = [f',{key}"matched": {word},{key}"per_element": {{' for word in ("true", "false")]
        closing = f"{key}}}{pair}}}"
        all_fail = verdicts[1] + "".join(fails) + closing
        full = (1 << len(fails)) - 1
        quoted = list(map(_quote, self.ids))
        failed = [b + all_fail for b in quoted]
        bounds, masks = iter(self.bounds), iter(self.masks)
        first = len(parts)
        for i, a in enumerate(quoted):
            opening = f',{pair}{{{key}"a": {a},{key}"b": '
            # zip stops at the row's end, before it takes the next row's byte
            for j, mask in zip(range(i + 1, len(quoted)), masks):
                if not mask:
                    parts += (opening, failed[j])
                    continue
                parts += (opening, quoted[j], verdicts[mask != full])
                for bit, fail, (head, tail), lows, highs in elements:
                    if not mask & bit:
                        parts.append(fail)
                        continue
                    lo, hi = next(bounds), next(bounds)
                    # 0.0 and -0.0 are one key but print apart, so a zero is not shared
                    low, high = lows.get(lo), highs.get(hi)
                    if low is None or not lo:
                        low = lows[lo] = f"{head}{lo!r},{bound}"
                    if high is None or not hi:
                        high = highs[hi] = f"{hi!r}{tail}"
                    parts += (low, high)
                parts.append(closing)
        # the list opens where the first pair's separator stands
        parts[first] = "[" + parts[first][1:]
        parts.append(newline + "]")

    def lines(self) -> Iterator[str]:
        """The text report's line for each pair."""
        full = (1 << len(self.symbols)) - 1
        # each verdict's text, by mask, built at its first pair
        verdicts: dict[int, str] = {}
        padded = [f"{sid:<16}" for sid in self.ids]
        masks = iter(self.masks)
        for i, a in enumerate(padded):
            for b, mask in zip(padded[i + 1 :], masks):
                verdict = verdicts.get(mask)
                if verdict is None:
                    detail = "; ".join(
                        f"{symbol} {'ok' if mask >> e & 1 else 'fails'}"
                        for e, symbol in enumerate(self.symbols)
                    )
                    verdict = verdicts[mask] = (
                        f"{'match   ' if mask == full else 'no match'} ({detail})"
                    )
                yield f"  {a} vs {b} {verdict}"


def cmd_match(args: argparse.Namespace) -> dict:
    from .matching import match_table

    dataset = _load_dataset(args)
    criterion = _build_criterion(args)
    pairs = _MatchRows(match_table(dataset, criterion), criterion)
    return {
        **_report_head("match", dataset, criterion, bias_note=_BIAS_SIDE_NOTE),
        "pairs": pairs,
        "pairs_total": len(pairs),
        "pairs_matched": pairs.matched,
    }


def _match_text(p: dict) -> Iterable[str]:
    criterion, pairs = p["criterion"], p["pairs"]
    yield (
        f"pairwise matches under k={criterion['k']} "
        f"panel={{{','.join(criterion['elements'])}}} boundary={criterion['boundary']}"
    )
    yield from pairs.lines()
    yield f"{p['pairs_matched']} of {p['pairs_total']} pairs matched"


# ---------------------------------------------------------------- group


def _grouped(args: argparse.Namespace, mode: str) -> tuple:
    """The dataset, criterion and ``group`` result that ``group`` and ``report`` share."""
    dataset = _load_dataset(args)
    criterion = _build_criterion(args)
    from .grouping import group

    return dataset, criterion, group(dataset, criterion, mode=mode, witnesses=args.witnesses)


def cmd_group(args: argparse.Namespace) -> dict:
    mode = {"cc": "connected_components", "clique": "maximal_cliques"}[args.mode]
    dataset, criterion, result = _grouped(args, mode)
    return {
        **_report_head(
            "group", dataset, criterion, grouping_note="groups ordered by smallest member id"
        ),
        **result.as_dict(),
    }


def _groups_text(groups: list) -> Iterable[str]:
    for i, members in enumerate(groups, start=1):
        yield f"  group {i}: {', '.join(members)}"


def _triples_text(grouping: dict) -> Iterable[str]:
    total, listed = grouping["nontransitive_triples_total"], grouping["nontransitive_triples"]
    if total:
        yield (
            "nontransitive triples (a-b and b-c match, a-c does not): "
            f"{total} in all, {len(listed)} listed"
        )
        for a, b, c in listed:
            yield f"  {a} - {b} - {c}"


def _group_text(p: dict) -> Iterable[str]:
    yield f"{len(p['groups'])} group(s), mode={p['mode']}"
    yield from _groups_text(p["groups"])
    yield from _triples_text(p)


# ------------------------------------------------------------- evidence


def cmd_evidence(args: argparse.Namespace) -> dict:
    from fractions import Fraction

    from .evidence import BoxModel, likelihood_ratio, posterior_odds

    sizes = tuple(_numbers(args.box, "--box", int))
    box = BoxModel(sizes)
    result = likelihood_ratio(box, args.groups_observed, args.draws_t, args.draws_not_t)
    if args.prior_odds is not None:
        try:
            prior = Fraction(args.prior_odds)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse prior odds {args.prior_odds!r}") from None
        result = result._replace(posterior_odds=posterior_odds(result.likelihood_ratio, prior))
    return {
        "command": "evidence",
        "box": list(sizes),
        "draws_t": args.draws_t,
        "draws_not_t": args.draws_not_t,
        "groups_observed": args.groups_observed,
        **result.as_dict(),
        "decisions": {
            "model_note": "uniform draws without replacement; no measurement error "
            "or heterogeneity enters this calculation",
        },
    }


def _evidence_text(p: dict) -> Iterable[str]:
    # the box prints as a tuple: (6, 4), or (10,) for a single group
    yield f"box groups {tuple(p['box'])}, evidence: >= {p['groups_observed']} group(s) spanned"
    yield f"  P(E | {p['draws_t']} bullets)  = {p['p_given_t_exact']} = {p['p_given_t']:.6f}"
    yield f"  P(E | {p['draws_not_t']} bullets)  = {p['p_given_not_t_exact']} = {p['p_given_not_t']:.6f}"
    yield f"  likelihood ratio = {p['likelihood_ratio_exact']} = {p['likelihood_ratio']:.6f}"
    if "posterior_odds" in p:
        yield f"  posterior odds   = {p['posterior_odds_exact']} = {p['posterior_odds']:.6f}"


# --------------------------------------------------------------- hetero


def _pick_by_location(dataset: Dataset, element: Element, token: str):
    from .model import Location

    location = Location(token)
    hits = [s for s in dataset if s.location is location and element in s.series]
    if not hits:
        raise ValueError(f"no specimen at location {token!r} carrying {element.value}")
    if len(hits) > 1:
        raise ValueError(
            f"location {token!r} is ambiguous ({', '.join(s.id for s in hits)}); use --ids"
        )
    return hits[0]


def cmd_ttest(args: argparse.Namespace) -> dict:
    from .model import Element
    from .stats.ttest import TwoSampleInput, pooled_t_test

    # a flag only --manova reads is refused, not dropped
    if args.responses is not None:
        raise ValueError("--responses is not read by the t-test")
    dataset = _load_dataset(args)
    if not args.element:
        raise ValueError("--element is required for the t-test")
    element = Element(args.element)
    if args.ids:
        tokens = _split(args.ids)
        if len(tokens) != 2:
            raise ValueError("--ids needs exactly two specimen ids")
        specimens = [dataset.get(t) for t in tokens]
        for s in specimens:
            if element not in s.series:
                raise ValueError(f"specimen {s.id!r} has no {element.value} series")
    elif args.locations:
        tokens = _split(args.locations)
        if len(tokens) != 2:
            raise ValueError("--locations needs exactly two locations")
        specimens = [_pick_by_location(dataset, element, t) for t in tokens]
    else:
        raise ValueError("give --locations a,b or --ids id1,id2")
    if specimens[0] is specimens[1]:
        raise ValueError(
            f"both sides are specimen {specimens[0].id!r}; the t-test needs two different specimens"
        )
    sides = []
    for s in specimens:
        series = s.series[element]
        if series.df is None:
            raise DegreesOfFreedomError(
                f"specimen {s.id!r} {element.value} is a single-count series; "
                "the pooled t-test needs replicate-based sides"
            )
        sides.append(TwoSampleInput(series.mean, series.se, series.n, label=s.id))
    result = pooled_t_test(sides[0], sides[1])
    return {
        "command": "hetero",
        "test": "pooled_t_test",
        "dataset": dataset.provenance,
        "element": element.value,
        "samples": [
            {"id": side.label, "mean_ppm": side.mean, "se_ppm": side.se, "n": side.n}
            for side in sides
        ],
        "t": result.t,
        "df": result.df,
        "p_two_sided": result.p_two_sided,
        "decisions": {
            "se_to_sd": "sample sd recovered as se * sqrt(n)",
            **_dataset_decisions(dataset),
        },
    }


def cmd_manova(args: argparse.Namespace) -> dict:
    from .ingest import parse_rows
    from .model import Basis, Element, Location

    # a flag only the t-test reads is refused, not dropped
    for name in ("fixture", "element", "locations", "ids"):
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} is not read by --manova")
    if not args.input:
        raise ValueError("--manova needs --input with raw replicate rows")
    if not args.responses:
        raise ValueError("--manova needs --responses, e.g. Ag,As")
    # a repeated element is one response, as repeated --families are one family
    elements = tuple(dict.fromkeys(map(Element, _split(args.responses))))
    if not elements:
        raise ValueError("--responses must name at least one element")
    rows = parse_rows(_read_text(args.input))
    cells: dict[tuple[str, str], dict[Element, list[float]]] = {}
    for row in rows:
        if row.basis is not Basis.REPLICATE_MEMBER or row.element not in elements:
            continue
        if row.location is Location.UNLABELED:
            continue
        key = (row.specimen_id, row.location.value)
        cells.setdefault(key, {e: [] for e in elements})[row.element].append(row.value)
    from .stats.manova import FactorialObservation, manova_two_way

    observations = []
    for (bullet, location), by_element in sorted(cells.items()):
        counts = [len(by_element[e]) for e in elements]
        if len(set(counts)) != 1:
            listed = ", ".join(f"{e.value}: {c}" for e, c in zip(elements, counts))
            raise ValueError(
                f"cell ({bullet}, {location}) has unequal replicate counts per element: {{{listed}}}"
            )
        for i in range(counts[0]):
            responses = tuple(math.log(by_element[e][i]) for e in elements)
            observations.append(
                FactorialObservation(bullet=bullet, location=location, responses=responses)
            )
    tests = manova_two_way(observations)
    return {
        "command": "hetero",
        "test": "manova_two_way",
        "responses": [e.value for e in elements],
        "n_observations": len(observations),
        "effects": {name: test._asdict() for name, test in tests.items()},
        "decisions": {
            "log_note": "responses are natural-log concentrations",
            "pairing_note": "replicates pair by row order within each (bullet, location) cell; "
            "unlabeled rows are excluded",
        },
    }


def _hetero_text(p: dict) -> Iterable[str]:
    if p["test"] == "pooled_t_test":
        for side in p["samples"]:
            yield f"  {side['id']:<18} {side['mean_ppm']} +/- {side['se_ppm']} (n={side['n']})"
        yield f"t = {p['t']:.4f}, df = {p['df']}, two-sided p = {p['p_two_sided']:.4f}"
        return
    for name, effect in p["effects"].items():
        yield (
            f"  {name:<12} Wilks={effect['wilks_lambda']:.4f} "
            f"F={effect['wilks_f']:.3f} p={effect['wilks_p']:.4f} | "
            f"Hotelling-Lawley={effect['hotelling_lawley']:.4f} p={effect['hl_p']:.4f}"
        )


# -------------------------------------------------------------- distfit


def _read_values(path: str) -> list[float]:
    values = []
    for i, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for part in line.replace(",", " ").split():
            try:
                value = float(part)
            except ValueError:
                raise ValueError(f"{path}:{i}: not a number: {part!r}") from None
            if not math.isfinite(value):
                raise DomainError(f"{path}:{i}: value must be finite, got {part!r}")
            values.append(value)
    return values


def cmd_distfit(args: argparse.Namespace) -> dict:
    from .stats.fitting import FAMILIES, rank_families

    values = _read_values(args.input)
    if args.families in (None, "all"):
        families: Sequence[str] = FAMILIES
    else:
        families = tuple(dict.fromkeys(_split(args.families)))
        if not families:
            raise ValueError("--families must name at least one family")
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown families {unknown}; have {', '.join(FAMILIES)}")
    return {
        "command": "distfit",
        "input": args.input,
        "n": len(values),
        "ranking": [e._asdict() for e in rank_families(values, families)],
        "decisions": {
            "gof_note": "chi-squared on max(5, n//5) equal-probability bins; "
            "df = bins - 1 - #params",
        },
    }


def _distfit_text(p: dict) -> Iterable[str]:
    yield f"{p['n']} values; families ranked by goodness-of-fit p"
    for entry in p["ranking"]:
        if "error" in entry:
            yield f"  {entry['family']:<12} FAILED: {entry['error']}"
            continue
        params = ", ".join(f"{k}={v:.6g}" for k, v in sorted(entry["params"].items()))
        yield (
            f"  {entry['family']:<12} p={entry['p_value']:.4f} "
            f"stat={entry['gof_stat']:.3f} df={entry['gof_df']} ({params})"
        )


# ------------------------------------------------------------------ naa


def _schedule_from(args: argparse.Namespace, prefix: str = ""):
    from .uncertainty import DecaySchedule

    def pick(name: str) -> str:
        # argparse requires the sample's flags; each --std-* one falls back to them
        value = getattr(args, prefix + name)
        return getattr(args, name) if value is None else value

    return DecaySchedule(
        half_life=_parse_duration(pick("half_life")),
        t_irradiate=_parse_duration(pick("ti")),
        t_decay=_parse_duration(pick("td")),
        t_count=_parse_duration(pick("tc")),
    )


def cmd_naa_decay(args: argparse.Namespace) -> dict:
    from .uncertainty import decay_factor

    schedule = _schedule_from(args)
    return {
        "command": "naa decay",
        "schedule": {
            "half_life_s": schedule.half_life,
            "t_irradiate_s": schedule.t_irradiate,
            "t_decay_s": schedule.t_decay,
            "t_count_s": schedule.t_count,
        },
        "decay_factor_s": decay_factor(schedule),
        "decisions": {"formula": "(1-exp(-lam*Ti)) * exp(-lam*Td) * (1-exp(-lam*Tc)) / lam"},
    }


def cmd_naa_conc(args: argparse.Namespace) -> dict:
    from .uncertainty import comparator_concentration

    ppm = comparator_concentration(
        sample_counts=args.sample_counts,
        sample_mass_mg=args.sample_mass_mg,
        std_counts=args.std_counts,
        std_mass_ug=args.std_mass_ug,
        sample_schedule=_schedule_from(args),
        std_schedule=_schedule_from(args, prefix="std_"),
    )
    return {
        "command": "naa conc",
        "concentration_ppm": ppm,
        "decisions": {
            "comparator_note": "decay-factor normalized count ratio times the "
            "standard-to-sample mass ratio; shared flux cancels"
        },
    }


def cmd_naa_selfabs(args: argparse.Namespace) -> dict:
    from .uncertainty import DEFAULT_ATTENUATION, self_absorption_loss

    entries = DEFAULT_ATTENUATION
    if args.table:
        from .ingest import parse_attenuation_csv

        entries = parse_attenuation_csv(_read_text(args.table))
    if args.energies not in (None, "all"):
        wanted = set(_numbers(args.energies, "--energies", float))
        entries = tuple(e for e in entries if e.energy_kev in wanted)
        missing = wanted - {e.energy_kev for e in entries}
        if missing:
            raise ValueError(f"energies {sorted(missing)} not in the attenuation table")
    if not entries:
        raise ValueError("no attenuation entries selected")
    losses = {e.energy_kev: self_absorption_loss(args.dimension_mm, e) for e in entries}
    # the report keys energies by their :g text, so two that print alike
    # would show one loss while the average counts both
    printed: dict[str, float] = {}
    for kev in sorted(losses):
        other = printed.setdefault(f"{kev:g}", kev)
        if other != kev:
            raise ValueError(
                f"attenuation energies {other!r} and {kev!r} keV both print as "
                f"{kev:g} keV; select one of them"
            )
    return {
        "command": "naa selfabs",
        "dimension_mm": args.dimension_mm,
        "losses": {f"{kev:g}": loss for kev, loss in sorted(losses.items())},
        "average_loss": sum(losses.values()) / len(losses),
        "decisions": {
            "path_note": "effective absorption path is half the mean maximum dimension",
            "table_note": "default table: Hubbell & Seltzer lead mass attenuation "
            "(log-log interpolated) times density 11.35 g/cm^3",
        },
    }


def _selfabs_text(p: dict) -> Iterable[str]:
    # keys are the energies already formatted with :g
    for kev, loss in p["losses"].items():
        yield f"  {kev:>6} keV: loss {loss * 100:.3f}%"
    yield f"  average: {p['average_loss'] * 100:.3f}%"


# --------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> dict:
    dataset, criterion, result = _grouped(args, "connected_components")
    from .grouping import within_box_match_rate

    rate = within_box_match_rate(dataset, result)
    specimens = [
        {
            "id": s.id,
            "kind": s.kind.value,
            "lot": s.lot,
            "location": s.location.value if s.location else None,
            "series": {
                e.value: {"mean_ppm": x.mean, "se_ppm": x.se, "df": x.df, "n": x.n}
                for e, x in s.series.items()
            },
        }
        for s in dataset
    ]
    return {
        **_report_head("report", dataset, criterion, bias_note=_BIAS_SIDE_NOTE),
        "specimens": specimens,
        "grouping": result.as_dict(),
        "within_lot": {
            "pairs_total": rate.pairs_total,
            "pairs_matched": rate.pairs_matched,
            "rate": rate.rate,
        },
    }


def _report_text(p: dict) -> Iterable[str]:
    yield f"dataset: {p['dataset']} ({len(p['specimens'])} specimens)"
    for s in p["specimens"]:
        parts = ", ".join(
            f"{symbol} {d['mean_ppm']:g} +/- {d['se_ppm']:g}"
            for symbol, d in s["series"].items()
        )
        lot = f" lot {s['lot']}" if s["lot"] else ""
        yield f"  {s['id']:<18} {s['kind']}{lot}: {parts}"
    yield f"groups under k={p['criterion']['k']}:"
    yield from _groups_text(p["grouping"]["groups"])
    yield from _triples_text(p["grouping"])
    within = p["within_lot"]
    if within["pairs_total"]:
        yield (
            f"within-lot pairs matched: {within['pairs_matched']}/{within['pairs_total']} "
            f"(rate {within['rate']:.3f})"
        )


# ------------------------------------------------------------------ main


def _match_arguments(parser: argparse.ArgumentParser) -> None:
    _add_input_options(parser)
    _add_criterion_options(parser)
    parser.set_defaults(func=cmd_match, text=_match_text)


def _group_arguments(parser: argparse.ArgumentParser) -> None:
    _add_input_options(parser)
    _add_criterion_options(parser)
    parser.add_argument("--mode", choices=("cc", "clique"), default="cc")
    _add_witness_option(parser)
    parser.set_defaults(func=cmd_group, text=_group_text)


def _evidence_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--box", required=True, help="group sizes, e.g. 6,4")
    parser.add_argument("--draws-t", type=int, required=True, help="bullets under T")
    parser.add_argument("--draws-not-t", type=int, required=True, help="bullets under not-T")
    parser.add_argument("--groups-observed", type=int, required=True)
    parser.add_argument("--prior-odds", help="prior odds, e.g. 1.0 or 2/3")
    parser.set_defaults(func=cmd_evidence, text=_evidence_text)


def _hetero_arguments(parser: argparse.ArgumentParser) -> None:
    _add_input_options(parser)
    parser.add_argument("--element", help="element for the pooled t-test")
    sides = parser.add_mutually_exclusive_group()
    sides.add_argument("--locations", help="two locations, e.g. outer,middle")
    sides.add_argument("--ids", help="two specimen ids")
    parser.add_argument(
        "--manova", dest="func", action="store_const", const=cmd_manova,
        help="two-way MANOVA on raw rows",
    )
    parser.add_argument("--responses", help="MANOVA response elements, e.g. Ag,As")
    parser.set_defaults(func=cmd_ttest, text=_hetero_text)


def _distfit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", action=_Once, required=True, help="file with one value per line")
    parser.add_argument("--families", help="'all' or a comma list")
    parser.set_defaults(func=cmd_distfit, text=_distfit_text)


def _naa_decay_arguments(parser: argparse.ArgumentParser) -> None:
    for flag in ("--half-life", "--ti", "--td", "--tc"):
        parser.add_argument(flag, required=True)
    parser.set_defaults(
        func=cmd_naa_decay, text=lambda p: [f"decay factor = {p['decay_factor_s']:.4f} s"]
    )


def _naa_conc_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sample-counts", type=float, required=True)
    parser.add_argument("--sample-mass-mg", type=float, required=True)
    parser.add_argument("--std-counts", type=float, required=True)
    parser.add_argument("--std-mass-ug", type=float, required=True)
    for flag in ("--half-life", "--ti", "--td", "--tc"):
        parser.add_argument(flag, required=True)
    for flag in ("--std-half-life", "--std-ti", "--std-td", "--std-tc"):
        parser.add_argument(flag, help="standard's schedule; defaults to the sample's")
    parser.set_defaults(
        func=cmd_naa_conc, text=lambda p: [f"concentration = {p['concentration_ppm']:.6g} ppm"]
    )


def _naa_selfabs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dimension-mm", type=float, required=True)
    parser.add_argument("--energies", help="'all' or comma list of keV in the table")
    parser.add_argument("--table", help="attenuation CSV (energy_kev,mu_linear_per_cm)")
    parser.set_defaults(func=cmd_naa_selfabs, text=_selfabs_text)


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    _add_input_options(parser)
    _add_criterion_options(parser)
    _add_witness_option(parser)
    parser.set_defaults(func=cmd_report, text=_report_text)


# command -> (its help, the function that adds its arguments, or the
# table of its own subcommands)
_COMMANDS = {
    "match": ("pairwise indistinguishability decisions", _match_arguments),
    "group": ("compositional grouping", _group_arguments),
    "evidence": ("hypergeometric likelihood ratio", _evidence_arguments),
    "hetero": ("heterogeneity tests", _hetero_arguments),
    "distfit": ("distribution fitting and ranking", _distfit_arguments),
    "naa": ("activation-analysis reduction", {
        "decay": ("activate-decay-count factor", _naa_decay_arguments),
        "conc": ("comparator-standard concentration", _naa_conc_arguments),
        "selfabs": ("gamma self-absorption loss", _naa_selfabs_arguments),
    }),
    "report": ("full pipeline report", _report_arguments),
}


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The ``cabl`` parser, for parsing ``argv`` (every command when None).

    Every command, and every ``naa`` subcommand, is registered with its
    help, but only the one ``argv`` names gets its arguments (see
    ``_add_commands``).  So a job builds only its own command's options,
    and the parser's usage, help and errors for ``argv`` are those of the
    full parser.
    """
    parser = argparse.ArgumentParser(
        prog="cabl",
        description="Comparative bullet lead analysis: matching, grouping, "
        "evidence and measurement reduction.",
    )
    _add_commands(parser, "command", _COMMANDS, argv or ())
    return parser


def _add_commands(
    parser: argparse.ArgumentParser, dest: str, commands: dict, argv: Sequence[str]
) -> None:
    """Register ``commands`` on ``parser``; arguments go to the one ``argv`` names.

    That is its first item that is one of their names, since argparse
    runs the command its first positional item names and no option above
    a command takes a value.  Where ``argv`` names none of them, every one
    gets its arguments.  A command with a table of subcommands (``naa``)
    gets them by the same rule, under ``dest`` ``<name>_command``.
    """
    sub = parser.add_subparsers(dest=dest, required=True)
    named = next((arg for arg in argv if arg in commands), None)
    for name, (help_text, arguments) in commands.items():
        command = sub.add_parser(name, help=help_text)
        if named not in (None, name):
            continue
        if isinstance(arguments, dict):
            _add_commands(command, f"{name}_command", arguments, argv)
        else:
            arguments(command)
            command.add_argument("--format", choices=("json", "text"), default="text")


_SLICE = 1 << 16  # characters per write of a JSON report to stdout
_LINES = 1 << 8  # lines per write of a text report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` when None) and return its exit code.

    Called with no ``argv``, as ``python -m cabl.cli`` and the ``cabl``
    script call it, ``main`` runs the process's own command line and then
    freezes the heap (``gc.freeze``), so the collections the interpreter
    runs as it exits skip every object the job made; output, exit code,
    final flush and ``atexit`` handlers are those of ``main(sys.argv[1:])``.
    An explicit ``argv``, as tests and library callers pass, never
    freezes, so their heap stays collectable.  Stdout is flushed before
    ``main`` returns, so a report it cannot write (a full disk, a closed
    pipe) exits 2 with its error however stdout is buffered.
    """
    if argv is None:
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.func(args)
        if args.format == "json":
            document = render_json(payload)
            # in slices, so the stream never encodes a second copy of a large report
            for start in range(0, len(document), _SLICE):
                sys.stdout.write(document[start : start + _SLICE])
        else:
            # in batches as it is rendered, since a write a line is slow; the
            # payload is checked, so no line fails once one is out
            lines = iter(args.text(payload))  # naa's renderers return lists
            while batch := "".join([f"{line}\n" for line in islice(lines, _LINES)]):
                sys.stdout.write(batch)
        try:
            sys.stdout.flush()
        except OSError:
            # what is left in the buffer would fail again as the interpreter
            # exits; the null device takes it, as in the signal module's docs
            if sys.stdout is sys.__stdout__:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise
        return 0
    except (CablError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
