"""Benchmark pairs: run bench/run.py on two checkouts in turn and compare the results.

Run from anywhere, with two clean checkouts (no ``__pycache__``; ``git archive``
gives one):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads cli_fixture,network --pairs 10 --out BENCH_label.json

Every run gets a fresh copy of its side's checkout, made in a new temporary
directory as ``parent`` or ``change``: the two names have equal length, so the
paths the benchmark sees differ in nothing but that word. A copy holding a
``__pycache__`` is refused, and the runs write no bytecode
(``PYTHONDONTWRITEBYTECODE=1``), so every cold process compiles what it imports.
Within a pair both sides get the same seed; the parent runs first in even pairs
and the change first in odd ones. ``bench/run.py`` runs as it is.

The output file gets JSON lines, appended: one ``env`` line (Python, numpy, the
BLAS variables, ``PYTHONDONTWRITEBYTECODE`` and both checkouts), then one
``result`` line per run with the last line ``bench/run.py`` printed. Standard
output gets, per workload and end-to-end metric, each side's median and
interquartile range and how many pairs read lower on the change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")  # also the copies' directory names, of equal length
METRICS = ("job_s", "setup_s", "peak_rss_mb")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _copy(checkout: Path, destination: Path) -> Path:
    """A fresh copy of ``checkout`` at ``destination``, without its git metadata and
    benchmark output; refused if it holds a ``__pycache__``."""
    shutil.copytree(checkout, destination, ignore=shutil.ignore_patterns(".git", ".bench_out"))
    cached = sorted(str(p.relative_to(destination)) for p in destination.rglob("__pycache__"))
    if cached:
        shutil.rmtree(destination)
        raise SystemExit(f"error: {checkout} holds {', '.join(cached)}; "
                         "give a clean checkout (e.g. from git archive)")
    return destination


def _run(checkout: Path, base: Path, side: str, workload: str, seed: int,
         seconds: float, env: dict[str, str]) -> dict:
    """The final JSON line of one ``bench/run.py`` run on a fresh copy of ``checkout``."""
    copy = _copy(checkout, base / side)
    try:
        command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {side} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(lines: list[dict]) -> list[str]:
    """Per workload and metric: each side's median and IQR, and the pairs lower on the change."""
    out = []
    for workload in dict.fromkeys(line["workload"] for line in lines):
        pairs: dict[int, dict[str, dict]] = {}
        for line in lines:
            if line["workload"] == workload:
                pairs.setdefault(line["pair"], {})[line["side"]] = line["result"]["metrics"]
        complete = [p for p in pairs.values() if set(p) == set(SIDES)]
        for metric in METRICS:
            values = {side: [p[side][metric]["value"] for p in complete] for side in SIDES}
            parent, change = (statistics.median(values[side]) for side in SIDES)
            lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
            spread = {side: f"{_iqr(values[side]):.3g}" for side in SIDES}
            out.append(f"{workload} {metric}: parent {parent:.6g} (IQR {spread['parent']}), "
                       f"change {change:.6g} (IQR {spread['change']}), "
                       f"{change / parent - 1.0:+.1%}, lower in {lower} of {len(complete)}")
    return out


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the baseline checkout")
    parser.add_argument("--change", required=True, type=Path, help="the changed checkout")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated bench/run.py workloads, run in this order")
    parser.add_argument("--pairs", required=True, type=int, help="pairs of runs per workload")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to append to")
    parser.add_argument("--seconds", type=float, default=28.0, help="bench/run.py --seconds")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workdir", type=Path,
                        help="an existing directory for the copies (default: temp dir)")
    args = parser.parse_args(argv)
    args.workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not args.workloads or args.pairs < 1:
        parser.error("need at least one workload and one pair")
    for side in SIDES:
        if not (getattr(args, side) / "bench" / "run.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} has no bench/run.py")
    if args.workdir is not None and not args.workdir.is_dir():
        parser.error(f"--workdir {args.workdir} is not a directory")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    header = {
        "kind": "env",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas": {name: env.get(name) for name in BLAS_VARIABLES},
        "PYTHONDONTWRITEBYTECODE": env["PYTHONDONTWRITEBYTECODE"],
        **{side: str(path) for side, path in checkouts.items()},
        "workloads": args.workloads,
        "pairs": args.pairs,
        "seconds": args.seconds,
    }
    lines = []
    with open(args.out, "a", encoding="utf-8") as out:
        out.write(json.dumps(header, sort_keys=True) + "\n")
        for pair in range(args.pairs):
            order, seed = SIDES if pair % 2 == 0 else SIDES[::-1], args.seed + pair
            for workload in args.workloads:
                for side in order:
                    base = Path(tempfile.mkdtemp(prefix="pairs-", dir=args.workdir))
                    try:
                        result = _run(checkouts[side], base, side, workload, seed,
                                      args.seconds, env)
                    finally:
                        shutil.rmtree(base, ignore_errors=True)
                    line = {"kind": "result", "workload": workload, "pair": pair, "seed": seed,
                            "side": side, "first": order[0], "result": result}
                    lines.append(line)
                    out.write(json.dumps(line, sort_keys=True) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: job_s "
                          f"{result['metrics']['job_s']['value']:.6g}", flush=True)
    for text in summarize(lines):
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
