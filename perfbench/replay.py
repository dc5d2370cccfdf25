"""Traced in-process replay of one workload: the per-layer numbers.

``run.py --trace 1`` starts this script in a child interpreter with the
benchmark's fixed environment (``PYTHONPATH`` pointing at ``src``)::

    python perfbench/replay.py WORKLOAD SEED INPUT_DIR SPANS_PATH

Each job runs twice through ``cabl.cli.main(argv)`` in this process with
stdout captured: once as is, and once with a span around every call into
the public functions listed in ``TRACED``.  A span records its name,
start, end and parent; the parent of a job's top-level calls is the
job's own span.  Spans stay in memory and go to SPANS_PATH when the
replay ends.  The last line of stdout is a JSON object with the layer
metrics, the job count, and the jobs whose output failed its check.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import cabl.cli
import workloads
from checks import Checker


def _rows(args, kwargs, result, tracer) -> None:
    text = args[0] if args else kwargs["text"]
    tracer.counters["ingest.rows"] += sum(1 for line in text.splitlines()[1:] if line.strip())


def _pair(args, kwargs, result, tracer) -> None:
    tracer.counters["matching.pairs"] += 1
    tracer.counters["matching.matched"] += bool(result.matched)


def _grouping(args, kwargs, result, tracer) -> None:
    tracer.deferred.append(result)  # counted after the job, outside every span


def _count(name):
    def hook(args, kwargs, result, tracer) -> None:
        tracer.counters[name] += 1
    return hook


def _values(args, kwargs, result, tracer) -> None:
    tracer.counters["fitting.values"] += len(args[0] if args else kwargs["data"])


def _json_bytes(args, kwargs, result, tracer) -> None:
    tracer.counters["cli.json_bytes"] += len(result.encode("utf-8"))


def _group_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "connected_components")
    return {"connected_components": "grouping.cc", "maximal_cliques": "grouping.clique"}[mode]


def _fit_span(args, kwargs) -> str:
    return f"fitting.{args[1] if len(args) > 1 else kwargs['family']}.fit"


# (defining module, public function, span name or namer, counter hook).
# Each is wrapped where it is defined and where cabl.cli binds it, so
# calls from the CLI and from its own module are traced, while calls
# made from inside another layer (match_specimens in grouping) are not.
TRACED = (
    ("cabl.cli", "render_json", "cli.render", _json_bytes),
    ("cabl.ingest", "parse_csv", "ingest.parse", _rows),
    ("cabl.ingest", "parse_rows", "ingest.parse", _rows),
    ("cabl.matching", "match_specimens", "matching", _pair),
    ("cabl.grouping", "group", _group_span, _grouping),
    ("cabl.grouping", "within_box_match_rate", "grouping.lot_rate", None),
    ("cabl.evidence", "likelihood_ratio", "evidence", _count("evidence.queries")),
    ("cabl.stats.fitting", "rank_families", "fitting", _values),
    ("cabl.stats.fitting", "fit_distribution", _fit_span, None),
    ("cabl.stats.fitting", "chi2_gof", "fitting.gof", None),
    ("cabl.stats.manova", "manova_two_way", "manova", _count("manova.calls")),
    ("cabl.stats.ttest", "pooled_t_test", "ttest", None),
    ("cabl.uncertainty", "decay_factor", "uncertainty", None),
    ("cabl.uncertainty", "comparator_concentration", "uncertainty", None),
    ("cabl.uncertainty", "self_absorption_loss", "uncertainty", None),
)

# span name -> per-layer metric holding the spans' total duration
BUSY = {
    "cli.render": "cli.render_s",
    "ingest.parse": "ingest.parse_s",
    "matching": "matching.busy_s",
    "grouping.cc": "grouping.cc_s",
    "grouping.clique": "grouping.clique_s",
    "grouping.lot_rate": "grouping.lot_rate_s",
    "evidence": "evidence.busy_s",
    "fitting.gof": "fitting.gof_s",
    **{f"fitting.{f}.fit": f"fitting.{f}.fit_s" for f in workloads.FAMILIES},
    "manova": "manova.busy_s",
    "ttest": "ttest.busy_s",
    "uncertainty": "uncertainty.busy_s",
}


class Tracer:
    """Spans and counters for one replay, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent id, name, start ns, end ns]
        self.stack: list[list] = []
        self.counters: Counter = Counter()
        self.deferred: list = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self.stack[-1][0] if self.stack else None, name, 0, 0]
        self.spans.append(record)
        self.stack.append(record)
        record[3] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, fn, namer, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            if tracer.stack and tracer.stack[-1][2] == name:
                return fn(*args, **kwargs)  # a layer calling itself is one span
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result, tracer)
            return result

        return traced

    def install(self) -> None:
        cli = sys.modules["cabl.cli"]
        for module_name, attr, namer, hook in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(original, namer, hook)
            for target in {module, cli}:
                for bound, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, bound, original))
                        setattr(target, bound, wrapper)

    def uninstall(self) -> None:
        for target, bound, original in reversed(self._patches):
            setattr(target, bound, original)
        self._patches.clear()


def _reset_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == "cabl" or name.startswith("cabl."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run(argv: list[str], around=contextlib.nullcontext) -> tuple[int, str, int]:
    """Exit code, stdout and nanoseconds of one in-process CLI call."""
    _reset_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), around():
        start = time.perf_counter_ns()
        code = cabl.cli.main(argv)
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed


def _grouping_counts(result, counters: Counter) -> None:
    adjacency = result.adjacency
    index = {sid: i for i, sid in enumerate(adjacency)}
    matrix = np.zeros((len(index), len(index)))
    for sid, neighbours in adjacency.items():
        matrix[index[sid], [index[n] for n in neighbours]] = 1.0
    paths = matrix @ matrix  # paths of length 2; exact in float64 at these sizes
    open_pairs = matrix == 0
    np.fill_diagonal(open_pairs, False)
    counters["grouping.edges"] += int(matrix.sum()) // 2
    counters["grouping.groups"] += len(result.groups)
    counters["grouping.nontransitive_total"] += int(paths[open_pairs].sum()) // 2


def replay(workload: workloads.Workload) -> dict:
    tracer = Tracer()
    checker = Checker()
    failures: dict[str, str] = {}
    digests: dict[str, str] = {}
    untraced_ns = traced_ns = 0
    job_spans = []
    for number, job in enumerate(workload.jobs):
        # alternate which run goes first, so warm-up within a pair cancels out
        if number % 2 == 0:
            code, plain, elapsed = _run(job.argv)
        first = len(tracer.spans)
        tracer.install()
        try:
            code_traced, out, _ = _run(job.argv, lambda: tracer.span("job:" + job.name))
        finally:
            tracer.uninstall()
        if number % 2 == 1:
            code, plain, elapsed = _run(job.argv)
        untraced_ns += elapsed
        record = tracer.spans[first]
        job_spans.append(record)
        traced_ns += record[4] - record[3]
        for result in tracer.deferred:
            _grouping_counts(result, tracer.counters)
        tracer.deferred.clear()
        digests[job.name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        problem = checker.check(job, code_traced, out)
        if problem is None and (code, plain) != (code_traced, out):
            problem = "traced and untraced runs disagree"
        if problem is not None:
            failures[job.name] = problem

    busy: Counter = Counter()
    children: Counter = Counter()
    max_query_ns = 0
    for span_id, parent, name, start, end in tracer.spans:
        if name.startswith("job:"):
            continue
        busy[name] += end - start
        if name == "evidence":
            max_query_ns = max(max_query_ns, end - start)
        if parent is not None and tracer.spans[parent][2].startswith("job:"):
            children[parent] += end - start
    unattributed_ns = sum(r[4] - r[3] - children[r[0]] for r in job_spans)
    counters = tracer.counters
    metrics = {metric: busy[name] / 1e9 for name, metric in BUSY.items()}
    metrics.update({
        "cli.json_bytes": counters["cli.json_bytes"],
        "ingest.rows": counters["ingest.rows"],
        "matching.pairs": counters["matching.pairs"],
        "matching.matched_ratio": counters["matching.matched"] / counters["matching.pairs"]
        if counters["matching.pairs"] else 0.0,
        "grouping.edges": counters["grouping.edges"],
        "grouping.groups": counters["grouping.groups"],
        "grouping.nontransitive_total": counters["grouping.nontransitive_total"],
        "evidence.queries": counters["evidence.queries"],
        "evidence.max_query_s": max_query_ns / 1e9,
        "fitting.values": counters["fitting.values"],
        "manova.calls": counters["manova.calls"],
        "trace.unattributed_s": unattributed_ns / 1e9,
        "trace.overhead_s": (traced_ns - untraced_ns) / 1e9,
    })
    fired = {name for _, _, name, _, _ in tracer.spans}
    silent = [name for name in workload.layers if name not in fired]
    return {
        "metrics": metrics,
        "silent_layers": silent,
        "attempted": len(workload.jobs),
        "failures": failures,
        "stdout_sha256": digests,
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    name, seed, input_dir, spans_path = argv
    result = replay(workloads.build(name, int(seed), Path(input_dir)))
    Path(spans_path).write_text(json.dumps(result.pop("spans")), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
