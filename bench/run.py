"""treatrank benchmark: one workload per invocation, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload network --seed 1 --seconds 25 --trace 0

Every workload is a closed loop: one job at a time, from this single process,
with no extra threads. Inputs are generated from ``--seed`` (see generate.py;
``cli_fixture`` reads the bundled fixtures, so there the seed only orders the
jobs). After an untimed warm-up round, rounds of the workload's jobs repeat
until ``--seconds`` have passed. Every job's artifacts are checked; a job that
exits non-zero, raises, fails a check, or writes bytes that differ from the
first round's counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics derived from the
spans of the traced rounds (see tracing.py), the ``-X importtime`` breakdown
and the tracing overhead, and writes the spans to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is loaded here or in any child process.
# With default threads on a 2-core machine, about 1 in 27 runs of ten 100x100
# np.linalg.solve calls stalled for about 1 s; single-threaded, none did.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import generate  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli_fixture", "network", "partition_planted")
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    network_treatments: int = 100
    network_contrasts: int = 10_000
    planted_records: int = 1000
    setup_imports: int = 5
    import_profiles: int = 3
    probe_scale: int = 1


FULL = Sizes()
TINY = Sizes(network_treatments=10, network_contrasts=300, planted_records=200,
             setup_imports=1, import_profiles=1, probe_scale=0)


@dataclass
class Job:
    kind: str  # the treatrank subcommand
    argv: list[str]  # arguments after the program name, without --out-dir
    check: Callable[[Path], list[str]]  # problems found in the job's artifacts


# --- output checks ---------------------------------------------------------------


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as stream:
        return list(csv.DictReader(stream))


def check_rank(n_treatments: int, n_records: int | None = None):
    def check(out: Path) -> list[str]:
        problems = []
        fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        total = math.fsum(fit["pi"].values())
        if len(fit["pi"]) != n_treatments or abs(total - 1.0) > 1e-9:
            problems.append(f"fit.json pi has {len(fit['pi'])} entries summing to {total!r}")
        ranks = [int(row["rank"]) for row in _csv_rows(out / "rank.csv")]
        if ranks != list(range(1, n_treatments + 1)):
            problems.append(f"rank.csv ranks are not 1..{n_treatments}")
        if n_records is not None:
            rows = len(_csv_rows(out / "records.csv"))
            if rows != n_records:
                problems.append(f"records.csv has {rows} rows for {n_records} contrasts")
        return problems

    return check


def _leaves(node: dict) -> list[dict]:
    split = node["split"]
    return [node] if split is None else _leaves(split["left"]) + _leaves(split["right"])


def check_partition(n_records: int, root_window: tuple[float, float] | None = None):
    def check(out: Path) -> list[str]:
        problems = []
        tree = json.loads((out / "tree.json").read_text(encoding="utf-8"))["tree"]
        leaf_total = sum(leaf["n_records"] for leaf in _leaves(tree))
        if leaf_total != n_records:
            problems.append(f"tree.json leaves hold {leaf_total} of {n_records} records")
        if root_window is not None:
            split = tree["split"] or {}
            threshold = split.get("threshold")
            lo, hi = root_window
            if split.get("covariate") != "year" or threshold is None or not lo <= threshold <= hi:
                problems.append(
                    f"root split is {split.get('covariate')!r} at {threshold!r}, "
                    f"not year inside [{lo}, {hi}]"
                )
        if not (out / "tree.txt").is_file():
            problems.append("tree.txt is missing")
        return problems

    return check


def check_compare(n_treatments: int):
    def check(out: Path) -> list[str]:
        problems = []
        scores = json.loads((out / "scores.json").read_text(encoding="utf-8"))
        p = scores["p_scores"]
        mean = math.fsum(p.values()) / len(p)
        if len(p) != n_treatments or abs(mean - 0.5) > 1e-9:
            problems.append(f"{len(p)} P-scores average {mean!r}, not 1/2")
        total = math.fsum(scores["prob_best"].values())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"prob_best sums to {total!r}")
        if len(_csv_rows(out / "scores.csv")) != n_treatments:
            problems.append("scores.csv does not have one row per treatment")
        return problems

    return check


def digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


# --- workloads -----------------------------------------------------------------------
# Why each workload (the generators in generate.py say how inputs are built):
# - cli_fixture: cold `treatrank rank|partition|compare` processes on the
#   bundled fixtures (48 contrasts, 6 treatments). About 90 % of each process
#   is `import treatrank`, so import work shows here and compute work should
#   not: the bypass workload for compute optimisations.
# - network: in-process `rank --dump-records` on 10 000 contrasts among 100
#   treatments, then `compare` on the matching 100-treatment basic table with
#   its covariance (nsim = 100 000). Per-contrast study_data/tcc work and one
#   large fit dominate rank; prob_best dominates compare and peak memory.
# - partition_planted: in-process `partition --records` on 1 000 records with
#   a planted tree. About a thousand small fits, the continuous best_split and
#   the permutation stability tests do almost all the work.


def _fixture_jobs(seed: int, workdir: Path, sizes: Sizes) -> list[Job]:
    contrasts = FIXTURES / "contrasts.csv"
    n_contrasts = len(_csv_rows(contrasts))
    jobs = [
        Job("rank", ["rank", "--input", str(contrasts), "--mcid", "1.2"], check_rank(6)),
        Job("partition", ["partition", "--input", str(contrasts), "--mcid", "1.2"],
            check_partition(n_contrasts)),
        Job("compare", ["compare", "--input", str(FIXTURES / "league.csv"), "--mcid", "1.2"],
            check_compare(6)),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def _network_jobs(seed: int, workdir: Path, sizes: Sizes) -> list[Job]:
    paths = generate.write_network(np.random.default_rng(seed), workdir,
                                   sizes.network_treatments, sizes.network_contrasts)
    mcid = repr(generate.NETWORK_MCID)
    return [
        Job("rank", ["rank", "--input", str(paths["contrasts"]), "--mcid", mcid,
                     "--dump-records"],
            check_rank(sizes.network_treatments, sizes.network_contrasts)),
        Job("compare", ["compare", "--input", str(paths["league"]), "--covariance",
                        str(paths["covariance"]), "--mcid", mcid],
            check_compare(sizes.network_treatments)),
    ]


def _planted_jobs(seed: int, workdir: Path, sizes: Sizes) -> list[Job]:
    path = workdir / "planted_records.csv"
    generate.write_planted_records(np.random.default_rng(seed), path, sizes.planted_records)
    return [
        Job("partition", ["partition", "--records", "--input", str(path)],
            check_partition(sizes.planted_records, generate.PLANTED_WINDOW)),
    ]


JOB_BUILDERS = {
    "cli_fixture": _fixture_jobs,
    "network": _network_jobs,
    "partition_planted": _planted_jobs,
}
COLD = {"cli_fixture"}


# --- running jobs ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)


class Runner:
    """Runs a workload's jobs, cold (one process each) or in this process."""

    def __init__(self, workload: str, workdir: Path, tracer: tracing.Tracer | None):
        self.cold = workload in COLD
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()

    def run(self, job: Job, out: Path, traced: bool) -> tuple[float, str | None]:
        """Run one job into an empty ``out``; return (seconds, failure or None)."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = [*job.argv, "--out-dir", str(out)]
        if self.cold:
            return self._run_cold(argv, traced)
        return self._run_inprocess(argv, traced)

    def _run_cold(self, argv: list[str], traced: bool) -> tuple[float, str | None]:
        spans_path = self.workdir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *argv]
        else:
            command = [sys.executable, "-m", "treatrank.cli", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, f"timed out after {CHILD_TIMEOUT_S} s"
        elapsed = time.perf_counter() - start
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            offset = len(self.tracer.spans)
            for span in spans:
                span[3] = span[3] + offset if span[3] >= 0 else -1
                span[4] = self.tracer.job
            self.tracer.spans.extend(spans)
        if proc.returncode != 0:
            return elapsed, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return elapsed, None

    def _run_inprocess(self, argv: list[str], traced: bool) -> tuple[float, str | None]:
        import treatrank.cli as cli

        start = time.perf_counter()
        try:
            if traced:
                code = self.tracer.span("cli.main", cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception:  # a crash in the program is a failed job, not a dead run
            return time.perf_counter() - start, "raised:\n" + traceback.format_exc()
        elapsed = time.perf_counter() - start
        return elapsed, None if code == 0 else f"exit code {code}"


# --- host-speed probe ---------------------------------------------------------------------
# The shared host this benchmark was written on changes speed by up to 50 %
# in phases of seconds to minutes (CPU time follows wall time, so it is not
# descheduling). The median of one run then depends on which phases it met,
# and medians of runs with different seeds spread by 0.15 to 0.30 of their
# value. A fixed probe of about 55 ms -- an integer loop in the interpreter,
# small numpy solves and sorts, in equal parts -- is timed between every two
# timed jobs, and each job's wall time is scaled by PROBE_REFERENCE_S over the
# mean of the probes on either side. The timed metrics are thus seconds on a
# host where the probe takes PROBE_REFERENCE_S, its time in the fast phases of
# that host. Of the probes tried, these three tracked the speed of partition
# jobs best; dict and string work tracked it worst. Raw wall-clock medians are
# printed on the text lines.

PROBE_REFERENCE_S = 0.055
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((40, 40)) + 40.0 * np.eye(40)
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(100_000)


def probe_seconds(scale: int = 1) -> float:
    """Wall seconds for ``scale`` copies of a fixed piece of work independent of treatrank."""
    start = time.perf_counter()
    for _ in range(scale):
        total = 0
        for i in range(250_000):
            total += i * i % 7
        for _ in range(900):
            np.linalg.solve(_PROBE_MATRIX, _PROBE_MATRIX[0])
        for _ in range(16):
            np.sort(_PROBE_VECTOR * 1.5 + 1.0)
    return time.perf_counter() - start


class Probe:
    """Scales wall times measured between two probes to the reference host speed."""

    def __init__(self, scale: int):
        self.scale = scale
        probe_seconds(scale)  # warm-up: lazy numpy and BLAS set-up
        self.last = probe_seconds(scale)

    def normalize(self, elapsed: float) -> float:
        """Probe again and scale ``elapsed``, measured since the previous probe."""
        before, self.last = self.last, probe_seconds(self.scale)
        if self.scale == 0:  # tiny sizes: no probe, raw seconds
            return elapsed
        return elapsed * PROBE_REFERENCE_S / (0.5 * (before + self.last))


# --- statistics and environment ----------------------------------------------------------


def timing_summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail": None}
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out["tail"] = (f"p{pct:g}", ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)])
            break
    return out


def environment() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def time_imports(count: int, probe: Probe) -> tuple[list[float], list[float]]:
    """Raw and probe-scaled seconds for each of ``count`` fresh ``import treatrank``."""
    command = [sys.executable, "-c", "import treatrank"]
    env = child_env()
    raw, scaled = [], []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        scaled.append(probe.normalize(raw[-1]))
    return raw, scaled


def import_profile(count: int) -> dict[str, float]:
    command = [sys.executable, "-X", "importtime", "-c", "import treatrank"]
    env = child_env()
    runs = []
    for _ in range(count):
        proc = subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        runs.append(tracing.import_breakdown(proc.stderr))
    names = {"numpy": "import.numpy_s", "scipy": "import.scipy_s",
             "treatrank": "import.treatrank_self_s"}
    return {names[g]: statistics.median(r[g] for r in runs) for g in tracing.IMPORT_GROUPS}


def peak_rss_mb(cold: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# --- one run ----------------------------------------------------------------------------


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes: Sizes = FULL) -> RunResult:
    lines = [f"env {json.dumps(environment(), sort_keys=True)}"]
    # One CPU for this process and its children, so that the probe measures
    # the CPU the jobs run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    lines.append(f"pinned to cpu {cpu}")
    probe = Probe(sizes.probe_scale)
    setup_raw, setup = time_imports(sizes.setup_imports, probe)
    if workload not in COLD:
        sys.path.insert(0, str(SRC))
        import treatrank.cli  # noqa: F401  (untimed: setup_s measures the import)
    jobs = JOB_BUILDERS[workload](seed, workdir, sizes)
    tracer = tracing.Tracer() if trace else None
    runner = Runner(workload, workdir, tracer)

    attempted = failed = 0
    reference: dict[str, dict[str, str]] = {}
    kind_times: dict[str, list[float]] = {job.kind: [] for job in jobs}  # raw seconds
    round_times: dict[bool, list[float]] = {False: [], True: []}  # probe-scaled seconds
    raw_rounds: list[float] = []

    def run_round(index: int, traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        if traced:
            tracer.job = index
            if not runner.cold:  # cold jobs are traced inside their own process
                tracer.install()
        try:
            total = raw_total = 0.0
            for job in jobs:
                out = workdir / job.kind
                elapsed, problem = runner.run(job, out, traced)
                attempted += 1
                total += probe.normalize(elapsed)
                raw_total += elapsed
                if problem is None:
                    try:
                        problems = job.check(out)
                        found = digests(out)
                    except (OSError, ValueError, KeyError, TypeError) as error:
                        problems, found = [f"unreadable artifact: {error!r}"], {}
                    if job.kind not in reference:
                        reference[job.kind] = found
                    elif found != reference[job.kind]:
                        problems.append("artifacts differ from the first run's bytes")
                    problem = "; ".join(problems) or None
                if problem is not None:
                    failed += 1
                    print(f"job failed: {workload} {job.kind}: {problem}", file=sys.stderr)
                if timed:
                    kind_times[job.kind].append(elapsed)
            if timed:
                round_times[traced].append(total)
                if not traced:
                    raw_rounds.append(raw_total)
        finally:
            if traced:
                tracer.remove()

    run_round(0, traced=False, timed=False)  # warm-up: caches, .pyc files, reference bytes
    index = 1
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and index % 2 == 0
        run_round(index, traced, timed=True)
        index += 1
        if time.perf_counter() >= deadline and (not trace or index > 3):
            break

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        layer = tracing.layer_metrics(tracer.spans)
        metrics.update({name: (value, "s")
                        for name, value in import_profile(sizes.import_profiles).items()})
        for name, value in layer.items():
            unit = "s" if name.endswith("_s") else ("ratio" if "yield" in name else "count")
            metrics[name] = (value, unit)
        overhead = (statistics.median(round_times[True])
                    / statistics.median(round_times[False]) - 1.0)
        metrics["trace.overhead"] = (overhead, "ratio")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                          "fields": ["name", "start_ns", "end_ns", "parent",
                                                     "job", "detail"],
                                          "spans": tracer.spans}), encoding="utf-8")
        lines.append(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        lines.append(f"tracing overhead {overhead:+.4f} (traced vs untraced rounds, "
                     f"{len(round_times[True])} and {len(round_times[False])})")
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        summary = timing_summary(round_times[False])
        metrics["job_s"] = (summary["median"], "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(runner.cold), "MB")
        lines.append(f"setup_s {metrics['setup_s'][0]:.6f} s (probe-scaled median of "
                     f"{len(setup)} imports; raw {statistics.median(setup_raw):.6f} s)")
        lines.append(f"job_s {summary['median']:.6f} s per round of "
                     f"{'+'.join(job.kind for job in jobs)} (probe-scaled, n={summary['n']}, "
                     f"tail {summary['tail']}; raw median {statistics.median(raw_rounds):.6f} s)")
        for kind, values in kind_times.items():
            s = timing_summary(values)
            lines.append(f"{kind}_s {s['median']:.6f} s raw (n={s['n']}, tail {s['tail']})")
        lines.append(f"probe {probe.last:.6f} s last, reference {PROBE_REFERENCE_S} s")
        lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.3f} MB")
    lines.append(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} jobs failed)")
    for kind, found in reference.items():
        for name, digest in found.items():
            lines.append(f"sha256 {kind}/{name} {digest}")
    return RunResult(attempted, failed, metrics, lines)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes: Sizes = FULL) -> int:
    args = _parse_args(argv)
    missing = [p for p in (SRC / "treatrank" / "__init__.py", FIXTURES / "contrasts.csv")
               if not p.is_file()]
    if missing:
        print(f"error: not a treatrank checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
