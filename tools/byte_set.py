"""Byte-identity set: run the same treatrank commands on two checkouts and compare.

Run from anywhere, with two checkouts (``git archive`` gives one):

    python3 tools/byte_set.py --parent ../parent --change .

The set is the one ROADMAP.md names: the bundled fixture (``rank --dump-records``,
``partition``, and ``compare`` in both directions), the planted records of seeds 101,
7 and 3 (``partition --records`` and ``rank --records``) and the network of seeds 101
and 7 (``rank --dump-records``, ``compare`` with and without ``--covariance``, and
``compare`` of the pairwise table of all its pairs), all at ``--mcid 1.2`` where the
command takes it. Two commands per network fail on purpose, on a bad cell past the
reader's first block: ``rank`` with row 3 001's ``se`` set to ``abc``, and ``compare
--covariance`` with row 91's ``T050`` cell set to ``abc``; their exit codes, standard
error and ``error.json`` are compared like any other output. The inputs come from
``bench/generate.py`` at the benchmark's sizes and from ``tests/fixtures``, both of the
checkout holding this script, and both sides read the same files. Each command runs in
a new process per side, with one BLAS thread and no bytecode written, from a directory
of its own, with a relative ``--out-dir`` so that no path in standard error differs.

Per input, command and artifact it prints ``same`` or ``differs``; for a JSON
artifact that differs only in its numbers, how many changed and the largest
relative change. Exit codes and standard error are compared too. The exit status
is 1 when anything differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
INPUTS = ("fixture", "planted-101", "planted-7", "planted-3", "network-101", "network-7")
MCID = "1.2"
NETWORK_SIZE = (100, 10_000)  # treatments and contrasts, as bench/run.py's network workload
PLANTED_RECORDS = 1000  # as bench/run.py's partition_planted workload
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}
MAIN = "import sys; from treatrank.cli import main; sys.exit(main(sys.argv[1:]))"


def _generate():
    spec = importlib.util.spec_from_file_location("generate", ROOT / "bench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_pairwise(league: Path, path: Path) -> None:
    """The pairwise league table of every pair of the basic-form table ``league``, in
    its row order: estimate b_x − b_y and SE √(se_x² + se_y²), as if independent."""
    with open(league, encoding="utf-8", newline="") as stream:
        rows = [(r["treat"], float(r["estimate_vs_ref"]), float(r["se"]))
                for r in csv.DictReader(stream)]
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["treat1", "treat2", "estimate", "se"])
        for (x, b_x, se_x), (y, b_y, se_y) in itertools.combinations(rows, 2):
            writer.writerow([x, y, repr(b_x - b_y), repr(math.sqrt(se_x**2 + se_y**2))])


def write_with_cell(source: Path, path: Path, row: int, column: str, cell: str) -> None:
    """A copy of the CSV table ``source`` whose ``column`` holds ``cell`` on row ``row``,
    the header being row 1."""
    with open(source, encoding="utf-8", newline="") as stream:
        rows = list(csv.reader(stream))
    rows[row - 1][rows[0].index(column)] = cell
    with open(path, "w", encoding="utf-8", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)


def commands(name: str, directory: Path) -> dict[str, list[str]]:
    """The commands of input ``name``, by label, after writing its files to ``directory``."""
    kind, _, seed = name.partition("-")
    if kind == "fixture":
        contrasts = str(ROOT / "tests" / "fixtures" / "contrasts.csv")
        league = str(ROOT / "tests" / "fixtures" / "league.csv")
        return {
            "rank": ["rank", "--input", contrasts, "--mcid", MCID, "--dump-records"],
            "partition": ["partition", "--input", contrasts, "--mcid", MCID],
            "compare": ["compare", "--input", league, "--mcid", MCID],
            "compare-harmful": ["compare", "--input", league, "--mcid", MCID,
                                "--direction", "harmful"],
        }
    generate, rng = _generate(), np.random.default_rng(int(seed))
    if kind == "planted":
        path = directory / "planted_records.csv"
        generate.write_planted_records(rng, path, PLANTED_RECORDS)
        return {"partition": ["partition", "--records", "--input", str(path)],
                "rank": ["rank", "--records", "--input", str(path)]}
    paths = {k: str(v) for k, v in generate.write_network(rng, directory, *NETWORK_SIZE).items()}
    paths["pairwise"] = str(directory / "network_pairwise.csv")
    write_pairwise(Path(paths["league"]), Path(paths["pairwise"]))
    for key, row, column in (("contrasts", 3001, "se"), ("covariance", 91, "T050")):
        paths[f"bad-{key}"] = str(directory / f"network_{key}_bad.csv")
        write_with_cell(Path(paths[key]), Path(paths[f"bad-{key}"]), row, column, "abc")
    return {
        "rank": ["rank", "--input", paths["contrasts"], "--mcid", MCID, "--dump-records"],
        "compare": ["compare", "--input", paths["league"], "--covariance", paths["covariance"],
                    "--mcid", MCID],
        # The basic form without a covariance: independent estimates with variance SE².
        "compare-no-covariance": ["compare", "--input", paths["league"], "--mcid", MCID],
        # The pairwise form at the network's size; the fixture's table has six treatments.
        "compare-pairwise": ["compare", "--input", paths["pairwise"], "--mcid", MCID],
        # Each exits 1 with error.json, on a bad cell past the reader's first block.
        "rank-bad-se": ["rank", "--input", paths["bad-contrasts"], "--mcid", MCID],
        "compare-bad-covariance": ["compare", "--input", paths["league"], "--covariance",
                                   paths["bad-covariance"], "--mcid", MCID],
    }


def _run(checkout: Path, argv: list[str], directory: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, standard error and artifacts of one command on ``checkout``."""
    directory.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ENV)
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv, "--out-dir", "out"],
                          cwd=directory, env=env, capture_output=True, text=True)
    out = directory / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stderr, files


def _numbers(a, b, key: str = "") -> list[tuple[str, float, float]]:
    """``(top-level key, x, y)`` for the numbers at the same places of two JSON values;
    ValueError where the two differ in anything else."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        return [t for k in a for t in _numbers(a[k], b[k], key or k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [t for x, y in zip(a, b) for t in _numbers(x, y, key)]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return [(key, float(a), float(b))]
    if a == b and type(a) is type(b):
        return []
    raise ValueError("structure")


def json_change(a: bytes, b: bytes) -> str:
    """How two JSON documents that differ differ: in their numbers alone, or otherwise."""
    try:
        numbers = _numbers(json.loads(a), json.loads(b))
    except ValueError:
        return "differs (not only in numbers)"
    changed = [(k, x, y) for k, x, y in numbers if not (x == y or math.isnan(x) and math.isnan(y))]
    if not changed:
        return "differs (in formatting only)"
    where = ", ".join(dict.fromkeys(k or "(top level)" for k, _, _ in changed))
    largest = max(abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf
                  for _, x, y in changed)
    return (f"differs ({len(changed)} of {len(numbers)} numbers changed, in {where}; "
            f"max relative {largest:.2g})")


def compare(label: str, parent, change) -> list[tuple[str, bool]]:
    """``(line, same)`` per exit code, standard error and artifact of one command."""
    (code_p, err_p, files_p), (code_c, err_c, files_c) = parent, change
    checks = [("exit", code_p == code_c, f"differs ({code_p} -> {code_c})"),
              ("stderr", err_p == err_c, "differs")]
    for name in sorted(files_p.keys() | files_c.keys()):
        a, b = files_p.get(name), files_c.get(name)
        if a is None or b is None:
            detail = f"only in {'change' if a is None else 'parent'}"
        elif a != b and name.endswith(".json"):
            detail = json_change(a, b)
        else:
            detail = "differs"
        checks.append((name, a == b, detail))
    return [(f"{label} {what}: {'same' if same else detail}", same)
            for what, same, detail in checks]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the baseline checkout")
    parser.add_argument("--change", required=True, type=Path, help="the changed checkout")
    parser.add_argument("--inputs", default=",".join(INPUTS),
                        help=f"comma-separated subset of {','.join(INPUTS)} (default: all)")
    parser.add_argument("--workdir", type=Path,
                        help="an existing directory for the runs (default: temp dir)")
    args = parser.parse_args(argv)
    args.inputs = [name.strip() for name in args.inputs.split(",") if name.strip()]
    unknown = [name for name in args.inputs if name not in INPUTS]
    if unknown or not args.inputs:
        parser.error(f"--inputs takes names from {', '.join(INPUTS)}; got {args.inputs}")
    for side in SIDES:
        if not (getattr(args, side) / "src" / "treatrank" / "cli.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} has no src/treatrank/cli.py")
    if args.workdir is not None and not args.workdir.is_dir():
        parser.error(f"--workdir {args.workdir} is not a directory")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    # Each command runs from a directory of its own, so its input paths must be absolute.
    base = Path(tempfile.mkdtemp(prefix="byte-set-", dir=args.workdir)).resolve()
    differing = total = 0
    try:
        for name in args.inputs:
            inputs = base / name / "inputs"
            inputs.mkdir(parents=True)
            for command, argv_ in commands(name, inputs).items():
                runs = [_run(checkouts[side], argv_, base / name / command / side)
                        for side in SIDES]
                for line, same in compare(f"{name} {command}", *runs):
                    print(line, flush=True)
                    differing += not same
                    total += 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{differing} of {total} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
