"""Cold pairs: time cold ``treatrank`` processes of two checkouts on a wide network.

Run from anywhere, with two clean checkouts (no ``__pycache__``; ``git archive``
gives one):

    python3 tools/cold_pairs.py --parent ../parent --change . \\
        --treatments 1000 --contrasts 100000 --runs 4 --cpu 0

The input is ``bench/generate.write_network(default_rng(seed), dir, treatments,
contrasts)``, from the checkout holding this script, and both sides read the same
files. A run is two new processes, ``rank --mcid 1.2`` on the contrast table and
``compare --covariance --mcid 1.2`` on the basic-form table and its covariance, each
writing every artifact, with one BLAS thread and no bytecode written, so every
process compiles what it imports. The parent runs first in even runs and the change
first in odd ones; ``--cpu`` pins each process to one CPU.

Per run and command it prints the wall time from start to exit and the child's peak
RSS (``os.wait4``), then per command and side the median and range of both, and
whether every run's artifacts are byte-identical to the parent's first run of that
command. The exit status is 1 when a run fails or an artifact differs, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}
MAIN = "import sys; from treatrank.cli import main; sys.exit(main(sys.argv[1:]))"


def _write_network(directory: Path, seed: int, treatments: int,
                   contrasts: int) -> dict[str, list[str]]:
    """The arguments of each command on ``bench/generate.write_network``'s tables at
    these sizes."""
    spec = importlib.util.spec_from_file_location("generate", ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    rng = np.random.default_rng(seed)
    paths = {k: str(v) for k, v in generate.write_network(rng, directory, treatments,
                                                          contrasts).items()}
    return {"rank": ["rank", "--input", paths["contrasts"], "--mcid", "1.2"],
            "compare": ["compare", "--input", paths["league"], "--covariance",
                        paths["covariance"], "--mcid", "1.2"]}


def _run(checkout: Path, argv: list[str], out: Path, cpu: int | None) -> tuple[int, float, float]:
    """Exit status, wall seconds and peak RSS in MB of one cold ``treatrank`` process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ENV)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", MAIN, *argv, "--out-dir", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=pin,
    )
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped, so Popen won't wait
    return code, seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the baseline checkout")
    parser.add_argument("--change", required=True, type=Path, help="the changed checkout")
    parser.add_argument("--treatments", type=int, default=1000, help="network treatments")
    parser.add_argument("--contrasts", type=int, default=100_000, help="network contrasts")
    parser.add_argument("--runs", type=int, default=4, help="runs per side")
    parser.add_argument("--seed", type=int, default=7, help="the network's seed")
    parser.add_argument("--cpu", type=int, help="pin every run to this CPU")
    parser.add_argument("--workdir", type=Path,
                        help="an existing directory for the runs (default: temp dir)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.treatments < 2 or args.contrasts < 1:
        parser.error("need at least one run, two treatments and one contrast")
    for side in SIDES:
        src = getattr(args, side) / "src"
        if not (src / "treatrank" / "cli.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} has no src/treatrank/cli.py")
        cached = sorted(str(p.relative_to(src)) for p in src.rglob("__pycache__"))
        if cached:
            parser.error(f"--{side} holds {', '.join(cached)} under src; "
                         "give a clean checkout (e.g. from git archive)")
    if args.workdir is not None and not args.workdir.is_dir():
        parser.error(f"--workdir {args.workdir} is not a directory")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    base = Path(tempfile.mkdtemp(prefix="cold-pairs-", dir=args.workdir)).resolve()
    failed, differing, references = 0, set(), {}
    try:
        argvs = _write_network(base, args.seed, args.treatments, args.contrasts)
        results = {(command, side): [] for command in argvs for side in SIDES}
        for run in range(args.runs):
            for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                for command, argv_ in argvs.items():
                    out = base / f"{command}-{side}-{run}"
                    code, seconds, rss = _run(checkouts[side], argv_, out, args.cpu)
                    print(f"run {run} {side} {command}: exit {code}, {seconds:.3f} s, "
                          f"peak RSS {rss:.1f} MB", flush=True)
                    failed += code != 0
                    results[command, side].append((seconds, rss))
                    files = _artifacts(out)
                    shutil.rmtree(out, ignore_errors=True)
                    reference = references.setdefault(command, files)  # the parent's first
                    differing |= {f"{command} {name}" for name in files.keys() | reference.keys()
                                  if files.get(name) != reference.get(name)}
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for (command, side), timings in results.items():
        seconds, rss = zip(*timings)
        print(f"{side} {command}: {statistics.median(seconds):.3f} s median "
              f"({min(seconds):.3f}-{max(seconds):.3f}), peak RSS {statistics.median(rss):.1f} MB "
              f"median ({min(rss):.1f}-{max(rss):.1f})")
    compared = "; ".join(f"{command}: {', '.join(sorted(files))}"
                         for command, files in references.items())
    print(f"artifacts: {'differ in ' + ', '.join(sorted(differing)) if differing else 'same'}"
          f" ({compared})")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
