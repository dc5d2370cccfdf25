"""Output checks for benchmark jobs.

Every job passes exactly one check, chosen by ``Job.check``.  The checks
use oracles written here, independent of ``cabl``: an exact
span-probability count for evidence, interval overlap plus union-find
for ``guinn4`` grouping, closed-form NAA formulas, and structural rules
(partition, symmetry, clique maximality, ranking order, p in [0, 1]) for
everything else.  They leave alone the conventions the program is
expected to revise: which specimen a bias applies to, the shape of the
non-transitive triples list, and the exit code of zero-spread t-tests.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

from workloads import FAMILIES, Job

TABLE1_IDS = ("CE 399", "CE 567", "CE 840", "CE 842", "CE 843")
TABLE1_GROUPS = {frozenset({"CE 399", "CE 842"}), frozenset({"CE 567", "CE 840", "CE 843"})}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------------ oracles


def span_counts(sizes: list[int], draws: int) -> list[int]:
    """Draw subsets touching exactly j groups, j = 0..G, by generating function.

    count(m, j) is the coefficient of x^m y^j in prod_i (1 + y((1+x)^s_i - 1)).
    """
    poly = [[1]]  # poly[j][m]
    for size in sizes:
        grown = [math.comb(size, m) for m in range(size + 1)]
        grown[0] = 0  # (1+x)^s - 1
        nxt = [[0] * (len(poly[0]) + size) for _ in range(len(poly) + 1)]
        for j, row in enumerate(poly):
            for m, c in enumerate(row):
                if c:
                    nxt[j][m] += c
                    for d, g in enumerate(grown):
                        if g:
                            nxt[j + 1][m + d] += c * g
        poly = nxt
    return [row[draws] if draws < len(row) else 0 for row in poly]


def span_counts_brute(sizes: list[int], draws: int) -> list[int]:
    labels = [g for g, size in enumerate(sizes) for _ in range(size)]
    counts = [0] * (len(sizes) + 1)
    for pick in itertools.combinations(labels, draws):
        counts[len(set(pick))] += 1
    return counts


def p_span(sizes: list[int], draws: int, observed: int) -> Fraction:
    total = sum(sizes)
    counts = span_counts_brute(sizes, draws) if total <= 12 else span_counts(sizes, draws)
    return Fraction(sum(counts[observed:]), math.comb(total, draws))


def decay_factor(schedule: dict) -> float:
    lam = math.log(2.0) / schedule["half_life"]
    return (
        (1 - math.exp(-lam * schedule["ti"]))
        * math.exp(-lam * schedule["td"])
        * (1 - math.exp(-lam * schedule["tc"]))
        / lam
    )


def _components(ids, edges: set[frozenset]) -> set[frozenset]:
    """Connected components by union-find."""
    parent = {s: s for s in ids}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for edge in edges:
        a, b = tuple(edge)
        parent[find(a)] = find(b)
    comps: dict[str, set] = {}
    for s in ids:
        comps.setdefault(find(s), set()).add(s)
    return {frozenset(c) for c in comps.values()}


class GroupingOracle:
    """Interval-overlap adjacency and its connected components."""

    def __init__(self, csv_path: str, k: float, elements: tuple[str, ...], boundary: str) -> None:
        means: dict[str, dict[str, float]] = {}
        sigmas: dict[str, dict[str, float]] = {}
        replicates: dict[tuple[str, str], list[float]] = {}
        self.lots: dict[str, str] = {}
        with open(csv_path, encoding="utf-8", newline="") as handle:
            for row in itertools.islice(csv.reader(handle), 1, None):
                sid, _kind, lot, _loc, element, value, sigma, basis = row
                self.lots[sid] = lot
                means.setdefault(sid, {})
                sigmas.setdefault(sid, {})
                if basis == "poisson_single":
                    means[sid][element] = float(value)
                    sigmas[sid][element] = float(sigma)
                else:
                    replicates.setdefault((sid, element), []).append(float(value))
        for (sid, element), values in replicates.items():
            values.sort()
            n = len(values)
            mean = sum(values) / n
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            means[sid][element] = mean
            sigmas[sid][element] = math.sqrt(var / n)
        self.ids = list(means)
        mean = np.array([[means[s][e] for e in elements] for s in self.ids])
        half = k * np.array([[sigmas[s][e] for e in elements] for s in self.ids])
        lo, hi = mean - half, mean + half
        adjacent = np.ones((len(self.ids), len(self.ids)), dtype=bool)
        for col in range(len(elements)):
            top = np.maximum(lo[:, col][:, None], lo[:, col][None, :])
            bottom = np.minimum(hi[:, col][:, None], hi[:, col][None, :])
            adjacent &= top <= bottom if boundary == "closed" else top < bottom
        np.fill_diagonal(adjacent, False)
        self.adjacent = adjacent
        self.index = {s: i for i, s in enumerate(self.ids)}
        self.edges = {
            frozenset((self.ids[a], self.ids[b])) for a, b in zip(*np.nonzero(np.triu(adjacent)))
        }
        self.components = _components(self.ids, self.edges)

    def lot_pairs(self) -> tuple[int, int]:
        """Same-lot unordered pairs, and how many of them are adjacent."""
        total = matched = 0
        for a, b in itertools.combinations(self.ids, 2):
            if self.lots[a] and self.lots[a] == self.lots[b]:
                total += 1
                matched += bool(self.adjacent[self.index[a], self.index[b]])
        return total, matched


# ------------------------------------------------------------ text parsers

_GROUP_LINE = re.compile(r"^  group \d+: (.*)$")
_PAIR_LINE = re.compile(r"^  (.+?)\s+vs (.+?)\s+(match   |no match) \(")
_FRACTION = re.compile(r"= (\d+(?:/\d+)?) = ")


def _text_groups(out: str) -> list[frozenset]:
    lines = out.splitlines()
    return [frozenset(m.group(1).split(", ")) for m in map(_GROUP_LINE.match, lines) if m]


def _edges_from_adjacency(adjacency: dict) -> set[frozenset]:
    edges = set()
    for a, neighbours in adjacency.items():
        _require(a not in neighbours, f"self loop on {a}")
        for b in neighbours:
            _require(a in adjacency.get(b, ()), f"adjacency not symmetric: {a} -> {b}")
            edges.add(frozenset((a, b)))
    return edges


def _check_partition(groups: list[frozenset], ids) -> None:
    members = [s for g in groups for s in g]
    _require(len(members) == len(set(members)), "groups overlap")
    _require(set(members) == set(ids), "groups do not cover the specimens")


# ------------------------------------------------------------------ checks


class Checker:
    """Applies each job's check; caches oracles shared by several jobs."""

    def __init__(self) -> None:
        self._oracles: dict[tuple, GroupingOracle] = {}
        self._ids: dict[str, list[str]] = {}

    def oracle(self, params: dict) -> GroupingOracle | None:
        spec = params.get("oracle")
        if spec is None:
            return None
        key = (params["csv"], spec["k"], tuple(spec["elements"]), spec["boundary"])
        if key not in self._oracles:
            self._oracles[key] = GroupingOracle(*key)
        return self._oracles[key]

    def ids(self, csv_path: str) -> list[str]:
        if csv_path not in self._ids:
            with open(csv_path, encoding="utf-8", newline="") as handle:
                rows = itertools.islice(csv.reader(handle), 1, None)
                self._ids[csv_path] = list(dict.fromkeys(row[0] for row in rows))
        return self._ids[csv_path]

    def check(self, job: Job, code: int, out: str) -> str | None:
        """None when the job's output passes its check, else the reason."""
        try:
            if job.check == "usage_error":
                _require(code == 2, f"exit code {code}, expected 2")
                return None
            _require(code == 0, f"exit code {code}")
            fmt = job.params.get("format", "text")
            payload = json.loads(out) if fmt == "json" else None
            getattr(self, "_" + job.check)(job.params, payload, out)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    # grouping ---------------------------------------------------------

    def _groups_of(self, payload, out) -> tuple[list[frozenset], dict | None]:
        if payload is None:
            return _text_groups(out), None
        grouping = payload.get("grouping", payload)
        return [frozenset(g) for g in grouping["groups"]], grouping["adjacency"]

    def _published_groups(self, params, payload, out) -> None:
        groups, _ = self._groups_of(payload, out)
        _require(set(groups) == TABLE1_GROUPS and len(groups) == 2, f"table1 split is {groups}")

    def _partition(self, params, payload, out) -> None:
        groups, adjacency = self._groups_of(payload, out)
        _check_partition(groups, TABLE1_IDS)
        if adjacency is not None:
            _require(set(groups) == _components(TABLE1_IDS, _edges_from_adjacency(adjacency)),
                     "groups are not the components of the adjacency")

    def _groups(self, params, payload, out) -> None:
        groups, adjacency = self._groups_of(payload, out)
        ids = self.ids(params["csv"])
        _check_partition(groups, ids)
        oracle = self.oracle(params)
        if adjacency is not None:
            edges = _edges_from_adjacency(adjacency)
            _require(set(adjacency) == set(ids), "adjacency does not cover the specimens")
            _require(set(groups) == _components(ids, edges),
                     "groups are not the components of the adjacency")
            _require(oracle is None or edges == oracle.edges,
                     "adjacency differs from the guinn4 oracle")
        if oracle is not None:
            _require(set(groups) == oracle.components, "groups differ from the guinn4 oracle")
        if payload is not None and "within_lot" in payload:
            counts = payload["within_lot"]["pairs_total"], payload["within_lot"]["pairs_matched"]
        else:
            m = re.search(r"^within-lot pairs matched: (\d+)/(\d+) ", out, re.M)
            counts = (int(m.group(2)), int(m.group(1))) if m else None
        if counts is not None:
            _require(0 <= counts[1] <= counts[0], "within-lot counts")
            _require(oracle is None or counts == oracle.lot_pairs(),
                     "within-lot counts differ from the oracle")

    def _cliques(self, params, payload, out) -> None:
        adjacency = {k: set(v) for k, v in payload["adjacency"].items()}
        oracle = self.oracle(params)
        _require(_edges_from_adjacency(adjacency) == oracle.edges,
                 "adjacency differs from the guinn4 oracle")
        covered = set()
        for clique in payload["groups"]:
            members = set(clique)
            covered |= members
            for a in members:
                _require(members - {a} <= adjacency[a], f"group {clique[:3]}... is not a clique")
            common = set.intersection(*(adjacency[a] for a in members)) - members
            _require(not common, f"group {clique[:3]}... is not maximal")
        _require(covered == set(adjacency), "cliques do not cover the specimens")

    def _match(self, params, payload, out) -> None:
        n = params["n"]
        oracle = self.oracle(params)
        if payload is not None:
            pairs = [(p["a"], p["b"], p["matched"]) for p in payload["pairs"]]
            for p in payload["pairs"]:
                _require(p["matched"] == all(e["matched"] for e in p["per_element"].values()),
                         "pair verdict disagrees with its elements")
            total, matched = payload["pairs_total"], payload["pairs_matched"]
        else:
            pairs = [(m.group(1), m.group(2), m.group(3) == "match   ")
                     for m in map(_PAIR_LINE.match, out.splitlines()) if m]
            tail = re.search(r"^(\d+) of (\d+) pairs matched$", out, re.M)
            matched, total = int(tail.group(1)), int(tail.group(2))
        _require(total == len(pairs) == n * (n - 1) // 2, f"{len(pairs)} pairs for n={n}")
        _require(len({frozenset(p[:2]) for p in pairs}) == total, "repeated pair")
        _require(matched == sum(p[2] for p in pairs), "matched count disagrees with the pairs")
        if oracle is not None:
            got = {frozenset(p[:2]) for p in pairs if p[2]}
            _require(got == oracle.edges, "matches differ from the guinn4 oracle")

    def _published_touch(self, params, payload, out) -> None:
        if payload is not None:
            (pair,) = [p for p in payload["pairs"] if {p["a"], p["b"]} == {"CE 567", "CE 840"}]
            _require(pair["matched"], "CE 567 and CE 840 do not match")
            _require(pair["per_element"]["Sb"]["overlap"] == [618.0, 618.0],
                     f"Sb overlap is {pair['per_element']['Sb']['overlap']}")
        else:
            verdicts = {frozenset(m.group(1, 2)): m.group(3)
                        for m in map(_PAIR_LINE.match, out.splitlines()) if m}
            _require(verdicts[frozenset(("CE 567", "CE 840"))] == "match   ",
                     "CE 567 and CE 840 do not match")

    # evidence ----------------------------------------------------------

    def _fractions(self, payload, out) -> tuple[Fraction, Fraction, Fraction]:
        if payload is not None:
            return tuple(Fraction(payload[k + "_exact"])
                         for k in ("p_given_t", "p_given_not_t", "likelihood_ratio"))
        found = _FRACTION.findall(out)
        _require(len(found) == 3, "expected three exact fractions")
        return tuple(Fraction(f) for f in found)

    def _evidence(self, params, payload, out) -> None:
        p_t, p_not_t, ratio = self._fractions(payload, out)
        want_t = p_span(params["box"], params["draws_t"], params["observed"])
        want_not_t = p_span(params["box"], params["draws_not_t"], params["observed"])
        _require((p_t, p_not_t) == (want_t, want_not_t),
                 f"span probabilities {p_t}, {p_not_t}; oracle {want_t}, {want_not_t}")
        _require(ratio == want_t / want_not_t, "likelihood ratio")

    def _published_box(self, params, payload, out) -> None:
        p_t, p_not_t, _ = self._fractions(payload, out)
        _require((p_t, p_not_t) == (Fraction(24, 45), Fraction(4, 5)),
                 f"box 6,4 gives {p_t} and {p_not_t}")
        self._evidence(params, payload, out)

    # statistics --------------------------------------------------------

    def _ttest(self, params, payload, out) -> None:
        if payload is not None:
            ns = [s["n"] for s in payload["samples"]]
            t, df, p = payload["t"], payload["df"], payload["p_two_sided"]
        else:
            ns = [int(n) for n in re.findall(r"\(n=(\d+)\)", out)]
            m = re.search(r"^t = (\S+), df = (\d+), two-sided p = (\S+)$", out, re.M)
            t, df, p = float(m.group(1)), int(m.group(2)), float(m.group(3))
        _require(len(ns) == 2 and df == sum(ns) - 2, f"df {df} for n {ns}")
        _require(math.isfinite(t) and 0.0 <= p <= 1.0, f"t={t} p={p}")

    def _manova(self, params, payload, out) -> None:
        if payload is not None:
            effects = payload["effects"]
            _require(set(effects) == {"bullet", "location", "interaction"}, "effects")
            for effect in effects.values():
                _require(0.0 < effect["wilks_lambda"] <= 1.0, "Wilks lambda outside (0, 1]")
                _require(0.0 <= effect["wilks_p"] <= 1.0 and 0.0 <= effect["hl_p"] <= 1.0,
                         "p outside [0, 1]")
        else:
            rows = re.findall(r"^  (\w+)\s+Wilks=(\S+) F=\S+ p=(\S+) \| "
                              r"Hotelling-Lawley=\S+ p=(\S+)$", out, re.M)
            _require({r[0] for r in rows} == {"bullet", "location", "interaction"}, "effects")
            for _, lam, wp, hp in rows:
                _require(0.0 <= float(lam) <= 1.0 and 0 <= float(wp) <= 1 and 0 <= float(hp) <= 1,
                         "statistic out of range")

    def _distfit(self, params, payload, out) -> None:
        if payload is not None:
            ranked = [(r["family"], r.get("p_value")) for r in payload["ranking"]]
        else:
            ranked = [(m.group(1), None if m.group(2) is None else float(m.group(2)))
                      for m in re.finditer(r"^  (\w+)\s+(?:p=(\S+) |FAILED)", out, re.M)]
        _require(sorted(f for f, _ in ranked) == sorted(FAMILIES), "families missing")
        fitted = [p for _, p in ranked if p is not None]
        _require(all(0.0 <= p <= 1.0 for p in fitted), "p outside [0, 1]")
        _require(fitted == sorted(fitted, reverse=True), "ranking not sorted by p")
        _require(all(p is None for _, p in ranked[len(fitted):]), "failures before fits")

    # activation analysis -----------------------------------------------

    def _naa_decay(self, params, payload, out) -> None:
        want = decay_factor(params["schedule"])
        if payload is not None:
            _require(math.isclose(payload["decay_factor_s"], want, rel_tol=1e-9), "decay factor")
        else:
            got = float(re.search(r"decay factor = (\S+) s", out).group(1))
            _require(abs(got - want) <= 5e-5 + 1e-9 * want, "decay factor")

    def _naa_conc(self, params, payload, out) -> None:
        # sample and standard share one schedule, so the decay factors cancel
        ratio = params["sample_counts"] / params["std_counts"]
        want = params["std_mass_ug"] / (params["sample_mass_mg"] / 1000.0) * ratio
        if payload is not None:
            _require(math.isclose(payload["concentration_ppm"], want, rel_tol=1e-9),
                     "concentration")
        else:
            got = float(re.search(r"concentration = (\S+) ppm", out).group(1))
            _require(math.isclose(got, want, rel_tol=1e-5), "concentration")

    def _naa_selfabs(self, params, payload, out) -> None:
        if payload is not None:
            losses = list(payload["losses"].values())
            average = payload["average_loss"]
        else:
            losses = [float(v) / 100 for v in re.findall(r"keV: loss (\S+)%", out)]
            average = float(re.search(r"average: (\S+)%", out).group(1)) / 100
        _require(losses and all(0.0 < v < 1.0 for v in losses), "loss outside (0, 1)")
        _require(math.isclose(average, sum(losses) / len(losses), rel_tol=1e-4, abs_tol=1e-5),
                 "average loss")
