"""Command-line surface: ingest -> match -> group -> evidence/stats -> report.

Subcommands: match, group, evidence, hetero, distfit, naa, report.
Every command accepts ``--format json|text``.  ``--config PATH`` (a JSON
file) is offered only where it is read: ``match``, ``group`` and
``report`` take criterion defaults and a bias table from it, ``naa
selfabs`` an attenuation table.  Exit codes: 0 success, 1 internal
failure, 2 usage/validation.

Each command builds one payload dict.  ``--format json`` prints it as
JSON; ``--format text`` renders the same payload through the command's
text renderer, so both formats report the same values and refuse the
same inputs (a t-test between two zero-spread samples with different
means, for one, exits 2 in both).  Reports carry a ``decisions`` block
echoing the conventions behind the numbers (boundary handling, bias
ranges, table semantics), and all output is deterministic for fixed
inputs.  JSON comes from ``render_json``, this module's own writer,
byte-identical to ``json.dumps(indent=2, sort_keys=True)``.  The one
payload value that is not plain data is ``match``'s pair list: a tuple
of ``(a, b, overlaps)`` rows (``_MatchRows``), each ``overlaps`` the
pair's ``match_specimens`` result, with each element's ``bias_used``
read off the criterion once per report.  The writer asks the rows for
their text, that of one ``{"a", "b", "matched", "per_element"}`` dict a
pair, so the n(n-1)/2 pairs never exist as a tree of dicts.

Each command imports its own modules inside its function, naming the
module that defines each function, so a job loads only the code of the
command it runs.  At the top this module imports only ``errors``, and
``model`` and ``ingest`` (which loads ``uncertainty``), whose names give
``build_parser`` its choices.
numpy loads only where a command works on arrays: ``hetero --manova``
imports the MANOVA module after its input is validated, so a bad-input
job exits 2 without loading it, and every other command, ``group`` and
``report`` included, runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import CablError, DegreesOfFreedomError, DomainError
from .ingest import (
    ATTENUATION_HEADER,
    FIXTURE_NAMES,
    Dataset,
    fixture,
    parse_attenuation_csv,
    parse_csv,
    parse_rows,
)
from .model import (
    Basis,
    BiasCorrection,
    Boundary,
    Element,
    Location,
    MatchCriterion,
    PRESET_NAMES,
    criterion_preset,
)

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
    bytes, building each container's text as one string from its
    children's and quoting strings with the C escaper ``json.dumps``
    uses.  Dict keys must be ``str``.
    """
    return _encode(payload, "\n") + "\n"


def _encode(value: object, newline: str) -> str:
    """JSON text of ``value``; ``newline`` is a newline plus its indent."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, _MatchRows):
        return value.json(newline)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError on a non-str key
        body = [f"{_quote(k)}: {_encode(v, inner)}" for k, v in sorted(value.items())]
        return _lines("{", body, newline, "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return _lines("[", [_encode(v, inner) for v in value], newline, "]")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _lines(opening: str, body: list[str], newline: str, closing: str) -> str:
    """One container's text: ``body`` one item a line, indented, in brackets.

    The brackets go onto the first and last items before the join, so a
    large container is copied once; wrapping the joined text would copy
    it again while the items are still alive.
    """
    inner = newline + "  "
    body[0] = opening + inner + body[0]
    body[-1] += newline + closing
    return ("," + inner).join(body)


def _parse_duration(text: str) -> float:
    """Seconds from '30', '24s', '12.7h', '2.70d' or '5m'."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    text = text.strip()
    factor = 1.0
    if text and text[-1].lower() in units:
        factor = units[text[-1].lower()]
        text = text[:-1]
    try:
        seconds = float(text) * factor
    except ValueError:
        raise ValueError(f"cannot parse duration {text!r}") from None
    if seconds <= 0:
        raise ValueError(f"duration must be > 0, got {seconds}")
    return seconds


def _split(text: str) -> list[str]:
    """The nonblank items of a comma list, stripped: ' Sb, Ag,' -> ['Sb', 'Ag']."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_bias_spec(text: str) -> dict[str, list[float]]:
    """Read 'Sb=0.02:0.054,Ag=0.055' into the config form {symbol: [lo, hi]}."""
    spec = {}
    for item in _split(text):
        symbol, sep, values = item.partition("=")
        if not sep:
            raise ValueError(f"bias entry {item!r} must look like Sb=0.02:0.054")
        spec[symbol.strip()] = [float(value) for value in values.split(":")]
    return spec


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return config


def _config_number(value: object, key: str, refusal: Optional[str] = None) -> float:
    """``value`` as a float.  A bool (JSON true/false, an int to isinstance) or a
    non-number raises ``refusal``; too large an integer, a DomainError naming ``key``."""
    if type(value) not in (int, float):
        raise ValueError(refusal or f"config {key} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"config {key} exceeds the float range") from None


def _bias_table(spec: object) -> dict[Element, BiasCorrection]:
    """Bias table from {symbol: c or [c] or [c_lo, c_hi]}, every c a number."""
    if not isinstance(spec, dict):
        raise ValueError(f"bias must be an object keyed by element, got {json.dumps(spec)}")
    table = {}
    for symbol, value in spec.items():
        element = Element(symbol)
        bounds = value if isinstance(value, list) else [value]
        refusal = f"bias for {symbol} must be one or two numbers, got {json.dumps(value)}"
        if len(bounds) not in (1, 2):
            raise ValueError(refusal)
        numbers = [_config_number(c, f"criterion.bias.{symbol}", refusal) for c in bounds]
        table[element] = BiasCorrection(numbers[0], numbers[-1])
    return table


def _build_criterion(args: argparse.Namespace, config: dict) -> MatchCriterion:
    # flags win over config values, which win over the preset's; a config
    # value is checked where it is read, so one a flag overrides goes unread
    conf = config.get("criterion", {})
    if not isinstance(conf, dict):
        raise ValueError(f"config criterion must be an object, got {json.dumps(conf)}")
    # an absent panel takes the preset's default; an empty one is refused
    symbols = conf.get("elements") if args.elements is None else _split(args.elements)
    if symbols is not None and not isinstance(symbols, list):
        raise ValueError(f"config criterion.elements must be a list, got {json.dumps(symbols)}")
    elements = None if symbols is None else tuple(map(Element, symbols))
    bias_spec = _parse_bias_spec(args.bias) if args.bias else conf.get("bias")
    bias = None if bias_spec is None else _bias_table(bias_spec) or None
    preset = _config_string(conf, "preset", "guinn4") if args.criterion is None else args.criterion
    criterion = criterion_preset(preset, elements=elements, bias=bias)
    k = args.k if args.k is not None else conf.get("k")
    k = criterion.k if k is None else _config_number(k, "criterion.k")
    boundary = args.boundary
    if boundary is None:
        boundary = _config_string(conf, "boundary", criterion.boundary.value)
    return MatchCriterion(k, criterion.elements, criterion.bias, Boundary(boundary))


def _config_string(conf: dict, key: str, default: str) -> str:
    # only an absent value takes the default: "" is an unknown token
    value = conf.get(key)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"config criterion.{key} must be a string, got {json.dumps(value)}")
    return default if value is None else value


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
    if args.fixture and args.input:
        raise ValueError("give either --fixture or --input, not both")
    if args.fixture:
        return fixture(args.fixture)
    if args.input:
        text = Path(args.input).read_text(encoding="utf-8")
        return parse_csv(text, provenance=args.input)
    raise ValueError("an input is required: --fixture NAME or --input PATH")


def _dataset_decisions(dataset: Dataset) -> dict:
    notes = {}
    if dataset.provenance == "fixture:table3":
        notes["table3_semantics"] = _TABLE3_NOTE
    return notes


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fixture", choices=FIXTURE_NAMES, help="embedded table")
    parser.add_argument("--input", help="measurement CSV path")


def _add_criterion_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--criterion", choices=PRESET_NAMES, help="criterion preset")
    parser.add_argument("--k", type=float, help="standard-error multiplier")
    parser.add_argument("--elements", help="element panel, e.g. Sb,Ag")
    parser.add_argument("--boundary", choices=("closed", "open"), help="interval boundary")
    parser.add_argument("--bias", help="bias table, e.g. Sb=0.02:0.054,Ag=0.055")
    parser.add_argument("--config", help="JSON config path (criterion defaults)")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")


# ---------------------------------------------------------------- match


class _MatchRows(tuple):
    """``match``'s pair list: one row ``(a, b, overlaps)`` a pair.

    ``overlaps`` is the pair's ``MatchResult.overlaps``: each panel
    element's ``(lo, hi)`` overlap, or None, in panel order (sorted by
    symbol, the order JSON keys take), and a pair matches when none is
    None.  ``bias_used`` is each element's correction range, the same for
    every pair.  ``_encode`` asks the rows for their text, which is what
    it would write for the pair dicts ``{"a", "b", "matched",
    "per_element"}`` they stand for.
    """

    def __new__(cls, rows: Iterable[tuple], criterion: MatchCriterion) -> _MatchRows:
        self = super().__new__(cls, rows)
        self.symbols = tuple(e.value for e in criterion.elements)
        bias = [criterion.bias_for(e) for e in criterion.elements]
        self.bias_used = tuple(None if c is None else (c.c_lo, c.c_hi) for c in bias)
        return self

    @property
    def matched(self) -> int:
        return sum(None not in overlaps for _, _, overlaps in self)

    def json(self, newline: str) -> str:
        """The list's JSON text; ``newline`` is a newline plus its indent."""
        if not self:
            return "[]"
        pair, key, element, field, bound = (newline + "  " * d for d in range(1, 6))
        # each element's text up to its verdict, and the rest of it when it fails
        heads = [
            f'{"," if i else ""}{element}{_quote(symbol)}: {{{field}"bias_used": '
            f'{_encode(bias, field)},{field}"matched": '
            for i, (symbol, bias) in enumerate(zip(self.symbols, self.bias_used))
        ]
        fails = f'false,{field}"overlap": null{element}}}'
        holds = f'true,{field}"overlap": [{bound}'
        items = []
        for a, b, overlaps in self:
            text = [
                f'{{{key}"a": {_quote(a)},{key}"b": {_quote(b)},{key}"matched": '
                f'{"false" if None in overlaps else "true"},{key}"per_element": {{'
            ]
            for head, overlap in zip(heads, overlaps):
                if overlap is None:
                    text.append(head + fails)
                    continue
                lo, hi = overlap
                text.append(f"{head}{holds}{lo!r},{bound}{hi!r}{field}]{element}}}")
            text.append(f"{key}}}{pair}}}")
            items.append("".join(text))
        return _lines("[", items, newline, "]")


def cmd_match(args: argparse.Namespace) -> dict:
    from .matching import match_specimens

    config = _load_config(args.config)
    dataset = _load_dataset(args)
    criterion = _build_criterion(args, config)
    specimens = sorted(dataset, key=lambda s: s.id)
    rows = []
    for i, a in enumerate(specimens):
        for b in specimens[i + 1 :]:
            rows.append((a.id, b.id, match_specimens(a, b, criterion).overlaps))
    pairs = _MatchRows(rows, criterion)
    return {
        "command": "match",
        "dataset": dataset.provenance,
        "criterion": _criterion_dict(criterion),
        "pairs": pairs,
        "pairs_total": len(pairs),
        "pairs_matched": pairs.matched,
        "decisions": {
            "boundary_note": _BOUNDARY_NOTE,
            "bias_note": _BIAS_SIDE_NOTE,
            **_dataset_decisions(dataset),
        },
    }


def _match_text(p: dict) -> Iterable[str]:
    criterion, pairs = p["criterion"], p["pairs"]
    yield (
        f"pairwise matches under k={criterion['k']} "
        f"panel={{{','.join(criterion['elements'])}}} boundary={criterion['boundary']}"
    )
    words = [(f"{symbol} ok", f"{symbol} fails") for symbol in pairs.symbols]
    for a, b, overlaps in pairs:
        verdict = "no match" if None in overlaps else "match   "
        detail = "; ".join(word[overlap is None] for word, overlap in zip(words, overlaps))
        yield f"  {a:<16} vs {b:<16} {verdict} ({detail})"
    yield f"{p['pairs_matched']} of {p['pairs_total']} pairs matched"


# ---------------------------------------------------------------- group


def _grouped(args: argparse.Namespace, mode: str) -> tuple:
    """The dataset, criterion and ``group`` result that ``group`` and ``report`` share."""
    config = _load_config(args.config)
    dataset = _load_dataset(args)
    if not len(dataset):
        raise ValueError("dataset has no specimens")
    criterion = _build_criterion(args, config)
    from .grouping import group

    return dataset, criterion, group(dataset, criterion, mode=mode)


def cmd_group(args: argparse.Namespace) -> dict:
    mode = {"cc": "connected_components", "clique": "maximal_cliques"}[args.mode]
    dataset, criterion, result = _grouped(args, mode)
    return {
        "command": "group",
        "dataset": dataset.provenance,
        "criterion": _criterion_dict(criterion),
        **result.as_dict(),
        "decisions": {
            "boundary_note": _BOUNDARY_NOTE,
            "grouping_note": "groups ordered by smallest member id",
            **_dataset_decisions(dataset),
        },
    }


def _groups_text(groups: list) -> Iterable[str]:
    for i, members in enumerate(groups, start=1):
        yield f"  group {i}: {', '.join(members)}"


def _group_text(p: dict) -> Iterable[str]:
    yield f"{len(p['groups'])} group(s), mode={p['mode']}"
    yield from _groups_text(p["groups"])
    if p["nontransitive_triples"]:
        yield "nontransitive triples (a-b and b-c match, a-c does not):"
        for a, b, c in p["nontransitive_triples"]:
            yield f"  {a} - {b} - {c}"


# ------------------------------------------------------------- evidence


def cmd_evidence(args: argparse.Namespace) -> dict:
    from fractions import Fraction

    from .evidence import BoxModel, likelihood_ratio, posterior_odds

    sizes = tuple(int(part) for part in _split(args.box))
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
    location = Location(token)
    hits = [s for s in dataset if s.location is location and element in s.series]
    if not hits:
        raise ValueError(f"no specimen at location {token!r} carrying {element.value}")
    if len(hits) > 1:
        raise ValueError(
            f"location {token!r} is ambiguous ({', '.join(s.id for s in hits)}); use --ids"
        )
    return hits[0]


def _hetero_ttest(args: argparse.Namespace, dataset: Dataset) -> dict:
    from .stats.ttest import TwoSampleInput, pooled_t_test

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
        "element": element.value,
        "samples": [
            {"id": side.label, "mean_ppm": side.mean, "se_ppm": side.se, "n": side.n}
            for side in sides
        ],
        "t": result.t,
        "df": result.df,
        "p_two_sided": result.p_two_sided,
        "decisions": {"se_to_sd": "sample sd recovered as se * sqrt(n)"},
    }


def _hetero_manova(args: argparse.Namespace) -> dict:
    if not args.input:
        raise ValueError("--manova needs --input with raw replicate rows")
    if not args.responses:
        raise ValueError("--manova needs --responses, e.g. Ag,As")
    # a repeated element is one response, as repeated --families are one family
    elements = tuple(dict.fromkeys(map(Element, _split(args.responses))))
    if not elements:
        raise ValueError("--responses must name at least one element")
    rows = parse_rows(Path(args.input).read_text(encoding="utf-8"))
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
        counts = {e: len(v) for e, v in by_element.items()}
        if len(set(counts.values())) != 1:
            raise ValueError(
                f"cell ({bullet}, {location}) has unequal replicate counts per element: {counts}"
            )
        for i in range(counts[elements[0]]):
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


def cmd_hetero(args: argparse.Namespace) -> dict:
    if args.manova:
        payload = _hetero_manova(args)
    else:
        dataset = _load_dataset(args)
        if not args.element:
            raise ValueError("--element is required for the t-test")
        payload = _hetero_ttest(args, dataset)
        payload["dataset"] = dataset.provenance
        payload["decisions"].update(_dataset_decisions(dataset))
    return payload


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
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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
        value = getattr(args, prefix + name, None)
        if value is None:
            value = getattr(args, name, None)
        if value is None:
            raise ValueError(f"missing --{(prefix + name).replace('_', '-')}")
        return value

    return DecaySchedule(
        half_life=_parse_duration(pick("half_life")),
        t_irradiate=_parse_duration(pick("ti")),
        t_decay=_parse_duration(pick("td")),
        t_count=_parse_duration(pick("tc")),
    )


def _attenuation_entries(args: argparse.Namespace, config: dict) -> tuple:
    from .uncertainty import DEFAULT_ATTENUATION, AttenuationEntry

    if getattr(args, "table", None):
        return parse_attenuation_csv(Path(args.table).read_text(encoding="utf-8"))
    # only an absent or null table takes the default; [] and {} are refused
    spec = config.get("attenuation")
    if spec is None:
        return DEFAULT_ATTENUATION
    refusal = (
        'config attenuation entries must look like {"energy_kev": 559, "mu_linear_per_cm": 12.1},'
        f" in a nonempty list; got {json.dumps(spec)}"
    )
    if not (isinstance(spec, list) and spec and all(isinstance(e, dict) for e in spec)):
        raise ValueError(refusal)
    return tuple(
        AttenuationEntry(*(_config_number(e.get(f), f, refusal) for f in ATTENUATION_HEADER))
        for e in spec
    )


def cmd_naa(args: argparse.Namespace) -> dict:
    from .uncertainty import comparator_concentration, decay_factor, self_absorption_loss

    if args.naa_command == "decay":
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
            "decisions": {
                "formula": "(1-exp(-lam*Ti)) * exp(-lam*Td) * (1-exp(-lam*Tc)) / lam"
            },
        }
    if args.naa_command == "conc":
        sample_schedule = _schedule_from(args)
        std_schedule = _schedule_from(args, prefix="std_")
        ppm = comparator_concentration(
            sample_counts=args.sample_counts,
            sample_mass_mg=args.sample_mass_mg,
            std_counts=args.std_counts,
            std_mass_ug=args.std_mass_ug,
            sample_schedule=sample_schedule,
            std_schedule=std_schedule,
        )
        return {
            "command": "naa conc",
            "concentration_ppm": ppm,
            "decisions": {
                "comparator_note": "decay-factor normalized count ratio times the "
                "standard-to-sample mass ratio; shared flux cancels"
            },
        }
    entries = _attenuation_entries(args, _load_config(args.config))
    if args.energies and args.energies != "all":
        wanted = {float(t) for t in _split(args.energies)}
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
        "command": "report",
        "dataset": dataset.provenance,
        "criterion": _criterion_dict(criterion),
        "specimens": specimens,
        "grouping": result.as_dict(),
        "within_lot": {
            "pairs_total": rate.pairs_total,
            "pairs_matched": rate.pairs_matched,
            "rate": rate.rate,
        },
        "decisions": {
            "boundary_note": _BOUNDARY_NOTE,
            "bias_note": _BIAS_SIDE_NOTE,
            **_dataset_decisions(dataset),
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
    within = p["within_lot"]
    if within["pairs_total"]:
        yield (
            f"within-lot pairs matched: {within['pairs_matched']}/{within['pairs_total']} "
            f"(rate {within['rate']:.3f})"
        )


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabl",
        description="Comparative bullet lead analysis: matching, grouping, "
        "evidence and measurement reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="pairwise indistinguishability decisions")
    _add_input_options(p_match)
    _add_criterion_options(p_match)
    _add_common_options(p_match)
    p_match.set_defaults(func=cmd_match, text=_match_text)

    p_group = sub.add_parser("group", help="compositional grouping")
    _add_input_options(p_group)
    _add_criterion_options(p_group)
    p_group.add_argument("--mode", choices=("cc", "clique"), default="cc")
    _add_common_options(p_group)
    p_group.set_defaults(func=cmd_group, text=_group_text)

    p_ev = sub.add_parser("evidence", help="hypergeometric likelihood ratio")
    p_ev.add_argument("--box", required=True, help="group sizes, e.g. 6,4")
    p_ev.add_argument("--draws-t", type=int, required=True, help="bullets under T")
    p_ev.add_argument("--draws-not-t", type=int, required=True, help="bullets under not-T")
    p_ev.add_argument("--groups-observed", type=int, required=True)
    p_ev.add_argument("--prior-odds", help="prior odds, e.g. 1.0 or 2/3")
    _add_common_options(p_ev)
    p_ev.set_defaults(func=cmd_evidence, text=_evidence_text)

    p_het = sub.add_parser("hetero", help="heterogeneity tests")
    _add_input_options(p_het)
    p_het.add_argument("--element", help="element for the pooled t-test")
    p_het.add_argument("--locations", help="two locations, e.g. outer,middle")
    p_het.add_argument("--ids", help="two specimen ids")
    p_het.add_argument("--manova", action="store_true", help="two-way MANOVA on raw rows")
    p_het.add_argument("--responses", help="MANOVA response elements, e.g. Ag,As")
    _add_common_options(p_het)
    p_het.set_defaults(func=cmd_hetero, text=_hetero_text)

    p_fit = sub.add_parser("distfit", help="distribution fitting and ranking")
    p_fit.add_argument("--input", required=True, help="file with one value per line")
    p_fit.add_argument("--families", help="'all' or a comma list")
    _add_common_options(p_fit)
    p_fit.set_defaults(func=cmd_distfit, text=_distfit_text)

    p_naa = sub.add_parser("naa", help="activation-analysis reduction")
    naa_sub = p_naa.add_subparsers(dest="naa_command", required=True)
    p_decay = naa_sub.add_parser("decay", help="activate-decay-count factor")
    for flag in ("--half-life", "--ti", "--td", "--tc"):
        p_decay.add_argument(flag, required=True)
    _add_common_options(p_decay)
    p_decay.set_defaults(text=lambda p: [f"decay factor = {p['decay_factor_s']:.4f} s"])
    p_conc = naa_sub.add_parser("conc", help="comparator-standard concentration")
    p_conc.add_argument("--sample-counts", type=float, required=True)
    p_conc.add_argument("--sample-mass-mg", type=float, required=True)
    p_conc.add_argument("--std-counts", type=float, required=True)
    p_conc.add_argument("--std-mass-ug", type=float, required=True)
    for flag in ("--half-life", "--ti", "--td", "--tc"):
        p_conc.add_argument(flag, required=True)
    for flag in ("--std-half-life", "--std-ti", "--std-td", "--std-tc"):
        p_conc.add_argument(flag, help="standard's schedule; defaults to the sample's")
    _add_common_options(p_conc)
    p_conc.set_defaults(text=lambda p: [f"concentration = {p['concentration_ppm']:.6g} ppm"])
    p_self = naa_sub.add_parser("selfabs", help="gamma self-absorption loss")
    p_self.add_argument("--dimension-mm", type=float, required=True)
    p_self.add_argument("--energies", help="'all' or comma list of keV in the table")
    p_self.add_argument("--table", help="attenuation CSV (energy_kev,mu_linear_per_cm)")
    p_self.add_argument("--config", help="JSON config path (attenuation table)")
    _add_common_options(p_self)
    p_self.set_defaults(text=_selfabs_text)
    p_naa.set_defaults(func=cmd_naa)

    p_rep = sub.add_parser("report", help="full pipeline report")
    _add_input_options(p_rep)
    _add_criterion_options(p_rep)
    _add_common_options(p_rep)
    p_rep.set_defaults(func=cmd_report, text=_report_text)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.func(args)
        if args.format == "json":
            sys.stdout.write(render_json(payload))
        else:
            sys.stdout.write("".join(f"{line}\n" for line in args.text(payload)))
        return 0
    except (CablError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
