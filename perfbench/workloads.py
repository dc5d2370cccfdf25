"""Seeded inputs and fixed job lists for the three benchmark workloads.

Every input is generated from the seed alone, written under the run's
input directory, and handed to ``cabl`` only as a file path or argv.
The generator uses ``random.Random`` so that a seed gives the same
bytes on every machine and numpy version.

Each job names the output check that decides whether it passed (see
``checks.py``); the check parameters travel with the job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Log-uniform ranges (ppm) for lot compositions, one per panel element.
ELEMENT_RANGES = {
    "Sb": (100.0, 30000.0),
    "Ag": (5.0, 200.0),
    "As": (1.0, 1000.0),
    "Cu": (10.0, 500.0),
    "Bi": (10.0, 200.0),
    "Sn": (1.0, 1000.0),
    "Cd": (0.1, 10.0),
}
PANEL2 = ("Sb", "Ag")
PANEL7 = tuple(ELEMENT_RANGES)
FAMILIES = (
    "chi_squared",
    "exponential",
    "gamma",
    "gumbel",
    "lognormal",
    "normal",
    "triangular",
    "weibull",
)
CSV_HEADER = "specimen_id,kind,lot,location,element,value_ppm,sigma_ppm,basis\n"
REPLICATES = 3


@dataclass(frozen=True)
class Shape:
    """How a population of lots is laid out in composition space."""

    per_lot: int  # mean specimens per lot
    lot_spread: float  # within-lot relative spread of the true composition
    rel_se: tuple[float, float]  # range of relative standard errors
    log_span: float  # share of each element's log range the lots use


SHAPES = {
    # well separated lots of about 8: most lots stay apart
    "sparse": Shape(per_lot=8, lot_spread=0.004, rel_se=(0.008, 0.015), log_span=1.0),
    # lots of about 3 with wide errors in a narrow region: intervals chain
    "dense": Shape(per_lot=3, lot_spread=0.02, rel_se=(0.03, 0.05), log_span=0.9),
}


@dataclass
class Job:
    """One ``cabl`` invocation and the check its output must pass."""

    name: str
    argv: list[str]
    check: str
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    jobs: list[Job]
    layers: tuple[str, ...]


def _num(value: float) -> str:
    return f"{value:.10g}"


def population_csv(
    rng: random.Random, n: int, shape: Shape, panel: tuple[str, ...], prefix: str,
    replicate_share: float = 0.25,
) -> str:
    """Lot-structured specimens: ``poisson_single`` rows for most, and
    ``replicate_member`` triples for the first two and about
    ``replicate_share`` of the rest."""
    centres = {}
    for element in panel:
        lo, hi = (math.log(v) for v in ELEMENT_RANGES[element])
        mid = (lo + hi) / 2
        half = (hi - lo) / 2 * shape.log_span
        centres[element] = (mid - half, mid + half)
    lines = [CSV_HEADER]
    lot = -1
    left_in_lot = 0
    lot_means: dict[str, float] = {}
    for i in range(n):
        if left_in_lot == 0:
            lot += 1
            left_in_lot = max(1, round(rng.expovariate(1 / shape.per_lot)))
            lot_means = {e: math.exp(rng.uniform(*centres[e])) for e in panel}
        left_in_lot -= 1
        sid = f"{prefix}{i:04d}"
        lot_id = f"L{lot:04d}"
        replicated = i < 2 or rng.random() < replicate_share
        for element in panel:
            true = lot_means[element] * (1.0 + rng.gauss(0.0, shape.lot_spread))
            rel_se = rng.uniform(*shape.rel_se)
            if replicated:
                for _ in range(REPLICATES):
                    value = true * (1.0 + rng.gauss(0.0, rel_se * math.sqrt(REPLICATES)))
                    lines.append(f"{sid},bullet,{lot_id},unlabeled,{element},"
                                 f"{_num(value)},,replicate_member\n")
            else:
                value = true * (1.0 + rng.gauss(0.0, rel_se))
                lines.append(
                    f"{sid},bullet,{lot_id},unlabeled,{element},{_num(value)},"
                    f"{_num(value * rel_se)},poisson_single\n"
                )
    return "".join(lines)


def replicate_ids(csv_text: str) -> list[str]:
    """Specimen ids that carry replicate rows, in file order."""
    seen: dict[str, None] = {}
    for line in csv_text.splitlines()[1:]:
        if line.endswith(",replicate_member"):
            seen.setdefault(line.split(",", 1)[0], None)
    return list(seen)


def manova_csv(rng: random.Random, bullets: int, reps: int, responses: tuple[str, ...]) -> str:
    """Raw replicate rows for a bullets x 3 locations design."""
    lines = [CSV_HEADER]
    locations = ("outer", "middle", "inner")
    loc_effect = {(loc, e): rng.gauss(0.0, 0.01) for loc in locations for e in responses}
    for b in range(bullets):
        base = {e: math.exp(rng.uniform(*map(math.log, ELEMENT_RANGES[e]))) for e in responses}
        for loc in locations:
            for _ in range(reps):
                for e in responses:
                    value = base[e] * (1.0 + loc_effect[(loc, e)]) * (1.0 + rng.gauss(0.0, 0.03))
                    lines.append(
                        f"b{b:02d},bullet_section,6003,{loc},{e},{_num(value)},,replicate_member\n"
                    )
    return "".join(lines)


def _draw(rng: random.Random, family: str) -> float:
    while True:
        if family == "chi_squared":
            v = 2.0 * rng.gammavariate(rng.choice((3.0, 4.0, 5.0)) / 2.0, 1.0)
        elif family == "exponential":
            v = rng.expovariate(0.5)
        elif family == "gamma":
            v = rng.gammavariate(3.0, 2.0)
        elif family == "gumbel":
            v = 40.0 - 4.0 * math.log(-math.log(rng.random() or 0.5))
        elif family == "lognormal":
            v = rng.lognormvariate(2.0, 0.4)
        elif family == "normal":
            v = rng.gauss(100.0, 10.0)
        elif family == "triangular":
            v = rng.triangular(10.0, 30.0, 14.0)
        else:
            v = rng.weibullvariate(5.0, 1.8)
        if v > 0:
            return v


def values_text(rng: random.Random, family: str, n: int) -> str:
    return "".join(f"{_num(_draw(rng, family))}\n" for _ in range(n))


def evidence_spec(rng: random.Random, groups: int, max_size: int) -> dict:
    """A box of ``groups`` groups and draw counts with P(E | not-T) > 0."""
    sizes = [rng.randint(2, max_size) for _ in range(groups)]
    total = sum(sizes)
    draws_t = rng.randint(2, min(total - 1, groups + 2))
    draws_not_t = rng.randint(draws_t + 1, min(total, draws_t + groups))
    observed = rng.randint(2, min(groups, draws_t))
    return {"box": sizes, "draws_t": draws_t, "draws_not_t": draws_not_t, "observed": observed}


def _evidence_argv(spec: dict) -> list[str]:
    return [
        "evidence", "--box", ",".join(map(str, spec["box"])),
        "--draws-t", str(spec["draws_t"]), "--draws-not-t", str(spec["draws_not_t"]),
        "--groups-observed", str(spec["observed"]),
    ]


class _Writer:
    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return path.as_posix()


def _fmt(jobs: list[Job], name: str, argv: list[str], check: str, **params) -> None:
    """Add the job in both output formats."""
    for fmt in ("json", "text"):
        jobs.append(Job(f"{name}-{fmt}", argv + ["--format", fmt], check, dict(params, format=fmt)))


def casework(rng: random.Random, write: _Writer) -> list[Job]:
    """About 120 short jobs of an analyst at work, in text and JSON.

    A job takes about 0.2 s, nearly all of it interpreter start and
    imports (numpy most of that), so import-cost work shows here.  The
    kernels do almost nothing, so engine, evidence and fitting changes
    should leave this workload unchanged; a fixed cost they add for small
    inputs shows as a regression.
    """
    jobs: list[Job] = []
    table1 = ["--fixture", "table1", "--criterion", "guinn4"]
    _fmt(jobs, "group-table1", ["group", *table1], "published_groups")
    _fmt(jobs, "match-table1", ["match", *table1], "published_touch")
    _fmt(jobs, "report-table1", ["report", *table1], "published_groups")
    _fmt(jobs, "group-table1-open", ["group", *table1, "--boundary", "open"], "partition")
    _fmt(jobs, "hetero-table2", ["hetero", "--fixture", "table2", "--element", "Ag",
                                 "--locations", "outer,middle"], "ttest")
    published = {"box": [6, 4], "draws_t": 2, "draws_not_t": 3, "observed": 2}
    _fmt(jobs, "evidence-6-4", _evidence_argv(published), "published_box", **published)

    # fixed case sizes keep the largest job, and so the peak RSS, alike across seeds
    for i, n in enumerate((5, 40, 12, 33, 20, 8, 28, 16)):
        shape = ("sparse", "dense")[i % 2]
        panel = PANEL7 if i % 4 == 3 else PANEL2
        text = population_csv(rng, n, SHAPES[shape], panel, prefix="c", replicate_share=0.4)
        path = write(f"case{i}.csv", text)
        criterion = ("guinn4", "nrc2")[(i // 2) % 2]
        boundary = ("closed", "open")[(i // 4) % 2]
        crit = ["--input", path, "--criterion", criterion, "--boundary", boundary]
        if panel is PANEL7:
            crit += ["--elements", ",".join(panel)]
        # the guinn4 oracle; nrc2 jobs get structural checks only
        oracle = None
        if criterion == "guinn4":
            oracle = {"k": 4.0, "elements": list(panel), "boundary": boundary}
        _fmt(jobs, f"group-case{i}", ["group", *crit], "groups", csv=path, oracle=oracle)
        _fmt(jobs, f"report-case{i}", ["report", *crit], "groups", csv=path, oracle=oracle)
        _fmt(jobs, f"match-case{i}", ["match", *crit], "match", n=n, csv=path, oracle=oracle)
        pick = rng.sample(replicate_ids(text), 2)
        _fmt(jobs, f"hetero-case{i}", ["hetero", "--input", path, "--element",
                                       rng.choice(panel), "--ids", ",".join(pick)], "ttest")

    for i in range(8):
        spec = evidence_spec(rng, rng.randint(2, 6), 5)
        _fmt(jobs, f"evidence-{i}", _evidence_argv(spec), "evidence", **spec)

    for i in range(2):
        half_life = rng.uniform(20.0, 5000.0)
        sched = {"half_life": half_life, "ti": rng.uniform(30, 600),
                 "td": rng.uniform(10, 600), "tc": rng.uniform(60, 900)}
        times = ["--half-life", f"{_num(half_life)}s", "--ti", _num(sched["ti"]),
                 "--td", _num(sched["td"]), "--tc", _num(sched["tc"])]
        _fmt(jobs, f"naa-decay-{i}", ["naa", "decay", *times], "naa_decay", schedule=sched)
        amounts = {"sample_counts": rng.uniform(1e3, 1e5), "sample_mass_mg": rng.uniform(5, 50),
                   "std_counts": rng.uniform(1e3, 1e5), "std_mass_ug": rng.uniform(0.5, 5)}
        _fmt(jobs, f"naa-conc-{i}",
             ["naa", "conc", *(x for k, v in amounts.items()
                               for x in (f"--{k.replace('_', '-')}", _num(v))), *times],
             "naa_conc", schedule=sched, **amounts)
        _fmt(jobs, f"naa-selfabs-{i}",
             ["naa", "selfabs", "--dimension-mm", _num(rng.uniform(0.2, 2.0))], "naa_selfabs")

    for i, n in enumerate((50, 100, 150, 200)):
        family = rng.choice(FAMILIES)
        path = write(f"values{i}.txt", values_text(rng, family, n))
        _fmt(jobs, f"distfit-{i}", ["distfit", "--input", path, "--families", "all"], "distfit")

    for i in range(2):
        path = write(f"raw{i}.csv", manova_csv(rng, 3, 3, ("Ag", "As")))
        _fmt(jobs, f"manova-{i}", ["hetero", "--manova", "--input", path,
                                   "--responses", "Ag,As"], "manova")

    bad_header = write("bad_header.csv", "id,element,value\nx,Sb,1\n")
    row = "x,bullet,,unlabeled,{},{},0.1,poisson_single\n"
    bad_symbol = write("bad_symbol.csv", CSV_HEADER + row.format("Zz", 1.0))
    bad_value = write("bad_value.csv", CSV_HEADER + row.format("Sb", -4))
    missing = (write.root / "missing.csv").as_posix()
    for name, argv in (
        ("bad-header", ["group", "--input", bad_header]),
        ("bad-symbol", ["match", "--input", bad_symbol]),
        ("bad-value", ["report", "--input", bad_value]),
        ("bad-missing", ["group", "--input", missing]),
        ("bad-criterion", ["group", "--fixture", "table1", "--criterion", "guinn9"]),
    ):
        jobs.append(Job(name, argv, "usage_error"))
    return jobs


def survey(rng: random.Random, write: _Writer) -> list[Job]:
    """Grouping and matching on populations of 200-1000 specimens.

    O(n^2) pair matching, triple enumeration and clique search do almost
    all the work.  Every job runs on a sparse population, where lots stay
    apart, and on a dense one, where intervals chain across lots; they use
    the grouping layer differently, so a change that is faster on one and
    slower on the other shows.
    """
    jobs: list[Job] = []
    for shape in ("sparse", "dense"):
        s = SHAPES[shape]
        big = write(f"{shape}-1000.csv", population_csv(rng, 1000, s, PANEL2, "s"))
        mid = write(f"{shape}-500.csv", population_csv(rng, 500, s, PANEL2, "s"))
        wide = write(f"{shape}-7el.csv", population_csv(rng, 200, s, PANEL7, "s"))
        small = write(f"{shape}-300.csv", population_csv(rng, 300, s, PANEL2, "s"))

        guinn4 = {"k": 4.0, "elements": list(PANEL2), "boundary": "closed"}
        for crit in ("guinn4", "nrc2"):
            jobs.append(Job(f"group-cc-{crit}-{shape}",
                            ["group", "--input", big, "--criterion", crit, "--format", "json"],
                            "groups", {"format": "json", "csv": big,
                                       "oracle": guinn4 if crit == "guinn4" else None}))
        jobs.append(Job(f"group-clique-{shape}",
                        ["group", "--input", mid, "--criterion", "guinn4", "--mode", "clique",
                         "--format", "json"],
                        "cliques", {"format": "json", "csv": mid, "oracle": guinn4}))
        jobs.append(Job(f"report-{shape}",
                        ["report", "--input", mid, "--criterion", "guinn4", "--format", "json"],
                        "groups", {"format": "json", "csv": mid, "oracle": guinn4}))
        jobs.append(Job(f"group-7el-{shape}",
                        ["group", "--input", wide, "--criterion", "guinn4",
                         "--elements", ",".join(PANEL7), "--format", "json"],
                        "groups", {"format": "json", "csv": wide,
                                   "oracle": dict(guinn4, elements=list(PANEL7))}))
        jobs.append(Job(f"match-{shape}",
                        ["match", "--input", small, "--criterion", "guinn4", "--format", "json"],
                        "match", {"format": "json", "n": 300, "csv": small, "oracle": guinn4}))
    return jobs


def inference(rng: random.Random, write: _Writer) -> list[Job]:
    """Evidence up to G=18, distfit on 500-3000 values, and MANOVA.

    Exact big-integer span counting and the quadratic triangular profile
    dominate the wall time, and no specimen matching runs, so evidence
    and fitting work shows here and nowhere else; each stays above about
    a third of the wall time.  Over half of the jobs are small queries
    and designs, so the median job is one of many alike, not a step
    between job sizes.
    """
    jobs: list[Job] = []
    groups = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, *[18] * 5)
    sizes = (500, 1000, 2000, 3000)
    designs = ((6, 3), (7, 4), (8, 3), (9, 4), (10, 3))
    for i, g in enumerate(groups):
        spec = evidence_spec(rng, g, 4)
        fmt = ("json", "text")[i % 2]
        jobs.append(Job(f"evidence-{i}-G{g}", _evidence_argv(spec) + ["--format", fmt],
                        "evidence", dict(spec, format=fmt)))
    for i, n in enumerate(sizes):
        family = FAMILIES[rng.randrange(len(FAMILIES))]
        path = write(f"values{i}.txt", values_text(rng, family, n))
        fmt = ("json", "text")[i % 2]
        jobs.append(Job(f"distfit-{i}-{n}", ["distfit", "--input", path, "--families", "all",
                                             "--format", fmt], "distfit", {"format": fmt}))
    for i, (bullets, reps) in enumerate(designs):
        path = write(f"raw{i}.csv", manova_csv(rng, bullets, reps, ("Ag", "As", "Sb")))
        fmt = ("json", "text")[i % 2]
        jobs.append(Job(f"manova-{i}-{bullets}x3x{reps}",
                        ["hetero", "--manova", "--input", path, "--responses", "Ag,As,Sb",
                         "--format", fmt], "manova", {"format": fmt}))
    return jobs


_FIT_SPANS = ("fitting", "fitting.gof", *(f"fitting.{f}.fit" for f in FAMILIES))

# name -> (job list builder, why it was chosen, layer spans its jobs must fire)
WORKLOADS = {
    "casework": (
        casework,
        "short jobs of an analyst at work: nearly all of a job is interpreter start "
        "and imports, so import-cost work shows here and kernel work should not",
        ("cli.render", "ingest.parse", "matching", "grouping.cc", "grouping.lot_rate",
         "evidence", *_FIT_SPANS, "manova", "ttest", "uncertainty"),
    ),
    "survey": (
        survey,
        "sparse and dense lot populations of 200-1000 specimens: O(n^2) pair matching, "
        "triple enumeration and clique search do almost all the work",
        ("cli.render", "ingest.parse", "matching", "grouping.cc", "grouping.clique",
         "grouping.lot_rate"),
    ),
    "inference": (
        inference,
        "exact evidence span counts up to G=18, distfit on 500-3000 values and MANOVA; "
        "no specimen matching runs",
        ("cli.render", "ingest.parse", "evidence", *_FIT_SPANS, "manova"),
    ),
}


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate the named workload's inputs under ``root`` and its jobs."""
    builder, why, layers = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, why, builder(rng, _Writer(root)), layers)
