"""Benchmark of the ``cabl`` command line, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload casework --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

One client runs the workload's fixed job list in a closed loop: each job
is a fresh ``python -m cabl.cli ...`` process, started only after the
previous one has exited, with inputs generated from ``--seed`` (see
``workloads.py``).  Passes over the job list repeat until ``--seconds``
of measuring have passed (at least one pass).  Every job's output is
checked (``checks.py``); a job that fails its check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, timed with no tracing:

* ``setup_s``: median wall time to start the interpreter and
  ``import cabl.cli``, over spawns made between the jobs (after warm-up
  spawns);
* ``wall_s``: time to run the job list once (median over passes), the
  checker's work between jobs excluded;
* ``cpu_s``: user plus system CPU of the pass's job processes, from each
  child's rusage (median over passes; ``launcher.py`` starts the jobs);
* ``job_p50_s``: median job latency over every job run;
* ``peak_rss_mb``: largest peak RSS of any job process.

The lines before the result also give ``fail_frac`` and, where at least
ten jobs lie beyond it, ``job_p90_s``.  ``--trace 1`` reports the
per-layer metrics instead: the import split from ``python -X
importtime`` plus the traced in-process replay of ``replay.py``.

Each run writes its record (versions, machine, seed, sample counts,
child environment, stdout sha256 of every job) to ``.perfbench/``.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Children get exactly this environment (plus PATH and PYTHONPATH), so
# the parent and a change run identically, with one BLAS thread each.
# It is set here too, before checks.py loads numpy for its oracles.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONUTF8": "1",
    "LC_ALL": "C",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(FIXED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from checks import Checker  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = Path(".perfbench")  # relative, so job argv and outputs match across checkouts
WARMUP_SPAWNS = 4
SETUP_SPAWNS = 15
IMPORT_SPAWNS = 7
IMPORT_CLI = ["-c", "import cabl.cli"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.render_s": "s",
    "cli.json_bytes": "bytes",
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "matching.busy_s": "s",
    "matching.pairs": "count",
    "matching.matched_ratio": "ratio",
    "grouping.cc_s": "s",
    "grouping.clique_s": "s",
    "grouping.lot_rate_s": "s",
    "grouping.edges": "count",
    "grouping.groups": "count",
    "grouping.nontransitive_total": "count",
    "evidence.busy_s": "s",
    "evidence.queries": "count",
    "evidence.max_query_s": "s",
    **{f"fitting.{f}.fit_s": "s" for f in workloads.FAMILIES},
    "fitting.gof_s": "s",
    "fitting.values": "count",
    "manova.busy_s": "s",
    "manova.calls": "count",
    "ttest.busy_s": "s",
    "uncertainty.busy_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Spawn:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(ROOT / "src"), **FIXED_ENV}


class Launcher:
    """The small process that starts every child (see ``launcher.py``)."""

    def __init__(self, workdir: Path) -> None:
        self.out_path = workdir / "stdout.bin"
        self.err_path = workdir / "stderr.txt"
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, args: list[str]) -> Spawn:
        """Run ``python ARGS`` to completion; CPU and peak RSS are its rusage."""
        request = [[sys.executable, *args], str(self.out_path), str(self.err_path)]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchmarkError("the job launcher stopped")
        code, wall, cpu, rss_mb = json.loads(reply)
        return Spawn(code, wall, cpu, rss_mb, self.out_path.read_bytes(),
                     self.err_path.read_bytes())

    def imports(self, count: int, extra: tuple[str, ...] = ()) -> list[Spawn]:
        """``count`` spawns that only start the interpreter and import cabl.cli."""
        runs = []
        for _ in range(count):
            run = self.spawn([*extra, *IMPORT_CLI])
            if run.code != 0:
                errors = run.stderr.decode(errors="replace")
                raise BenchmarkError(f"import cabl.cli failed: {errors}")
            runs.append(run)
        return runs


def import_split(stderr: bytes) -> tuple[float, float]:
    """Seconds importing cabl.cli and, within it, numpy (``-X importtime``)."""
    cumulative = {}
    for line in stderr.decode().splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative["cabl.cli"], cumulative.get("numpy", 0.0)


def measure(workload: workloads.Workload, seconds: float, launcher: Launcher) -> dict:
    """The untraced closed loop: passes over the job list, with setup spawns."""
    launcher.imports(WARMUP_SPAWNS)
    # setup spawns are spread between the jobs, so their median sees the
    # whole run's machine load rather than a few seconds of it
    stride = -(-len(workload.jobs) // SETUP_SPAWNS)
    checker = Checker()
    setup, walls, cpus, latencies, rss = [], [], [], [], []
    failures: dict[str, str] = {}
    jobs: dict[str, dict] = {}
    failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall = cpu = 0.0
        for number, job in enumerate(workload.jobs):
            if number % stride == 0:
                setup.extend(run.wall for run in launcher.imports(1))
            run = launcher.spawn(["-m", "cabl.cli", *job.argv])
            wall += run.wall
            cpu += run.cpu
            latencies.append(run.wall)
            rss.append(run.rss_mb)
            digest = hashlib.sha256(run.stdout).hexdigest()
            problem = checker.check(job, run.code, run.stdout.decode("utf-8", errors="replace"))
            if problem is None and jobs.get(job.name, {}).get("stdout_sha256", digest) != digest:
                problem = "stdout differs between passes"
            if problem is not None:
                failed += 1
                stderr = run.stderr[-300:].decode(errors="replace")
                failures[job.name] = f"{problem}; stderr: {stderr}"
            jobs.setdefault(job.name, {"argv": job.argv, "stdout_sha256": digest,
                                       "latency_s": run.wall, "cpu_s": run.cpu,
                                       "peak_rss_mb": run.rss_mb})
        walls.append(wall)
        cpus.append(cpu)
    attempted = len(latencies)
    notes = {"fail_frac": (failed / attempted, "ratio")}
    # the highest percentile with at least ten samples beyond it
    if attempted >= 100:
        notes["job_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "job_p50_s": statistics.median(latencies),
            "peak_rss_mb": max(rss),
        },
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": {"warmup_spawns": WARMUP_SPAWNS, "setup_spawns": len(setup),
                    "passes": len(walls), "jobs_per_pass": len(workload.jobs),
                    "job_latencies": attempted},
        "jobs": jobs,
    }


def trace(workload: workloads.Workload, seed: int, input_dir: Path, launcher: Launcher) -> dict:
    """Per-layer metrics: the import split, then the traced replay."""
    launcher.imports(WARMUP_SPAWNS)
    splits = [import_split(run.stderr)
              for run in launcher.imports(IMPORT_SPAWNS, ("-X", "importtime"))]
    spans_path = OUT / f"{workload.name}.spans.json"
    run = launcher.spawn([str(HERE / "replay.py"), workload.name, str(seed),
                          input_dir.as_posix(), str(spans_path)])
    if run.code != 0:
        raise BenchmarkError(f"replay failed: {run.stderr[-2000:].decode(errors='replace')}")
    result = json.loads(run.stdout.decode().splitlines()[-1])
    failures = result["failures"]
    if result["silent_layers"]:
        failures["layers"] = f"spans never fired: {', '.join(result['silent_layers'])}"
    metrics = {
        "cli.import_s": statistics.median(s[0] for s in splits),
        "cli.import_numpy_s": statistics.median(s[1] for s in splits),
        **result["metrics"],
    }
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "notes": {},
        "attempted": result["attempted"],
        "failed": len(failures),
        "failures": failures,
        "samples": {"warmup_spawns": WARMUP_SPAWNS, "importtime_spawns": len(splits),
                    "replayed_jobs": result["attempted"], "spans": str(spans_path.name)},
        "jobs": {name: {"stdout_sha256": digest}
                 for name, digest in result["stdout_sha256"].items()},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    input_dir = OUT / f"inputs-{name}-{seed}"
    shutil.rmtree(input_dir, ignore_errors=True)
    workload = workloads.build(name, seed, input_dir)
    try:
        with Launcher(input_dir) as launcher:
            result = (trace(workload, seed, input_dir, launcher) if traced
                      else measure(workload, seconds, launcher))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "child_env": {k: v for k, v in child_env().items() if k != "PATH"},
        "samples": result["samples"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
        "notes": {k: {"value": v, "unit": u} for k, (v, u) in result["notes"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "jobs": result["jobs"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cabl" / "cli.py").is_file():
        print(f"error: no cabl sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        for name, failure in record["failures"].items():
            print(f"{record['workload']}: FAILED {name}: {failure}")
        for name, metric in {**record["metrics"], **record["notes"]}.items():
            print(f"{record['workload']:<10} {name:<30} {metric['value']:.6g} {metric['unit']}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
