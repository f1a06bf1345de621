"""Tests of the package namespace: the public names and what `import treatrank` loads."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import treatrank

SUBMODULES = ("compare", "davidson", "errors", "partition", "plot", "study_data", "tcc")
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_all_lists_57_names_in_sorted_order():
    assert len(treatrank.__all__) == 57
    assert treatrank.__all__ == sorted(set(treatrank.__all__))
    assert "DavidsonObjective" not in treatrank.__all__
    assert "CovariateSchema" not in treatrank.__all__


def test_every_public_name_is_its_defining_modules_object(monkeypatch):
    # Forget the names already resolved, so each one goes through the first-use path.
    for name in (*treatrank.__all__, *SUBMODULES):
        monkeypatch.delitem(vars(treatrank), name, raising=False)
    for name in treatrank.__all__:
        value = getattr(treatrank, name)
        owner = sys.modules[value.__module__]
        assert owner.__name__ in {f"treatrank.{module}" for module in SUBMODULES}, name
        assert value is getattr(owner, name), name
        namespace = {}
        exec(f"from treatrank import {name}", namespace)
        assert namespace[name] is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from treatrank import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(treatrank.__all__)


def test_submodules_resolve_as_attributes(monkeypatch):
    for module in SUBMODULES:
        monkeypatch.delitem(vars(treatrank), module, raising=False)
    for module in SUBMODULES:
        assert getattr(treatrank, module) is sys.modules[f"treatrank.{module}"]
    assert set(treatrank.__all__) | set(SUBMODULES) <= set(dir(treatrank))


def test_each_submodule_exports_its_entry_of_the_package_table():
    # A name added to a submodule's __all__ but not to _EXPORTS would be public in one place only.
    own = {"davidson": {"DavidsonObjective"}, "study_data": {"CovariateSchema"}}
    for name in ("compare", "davidson", "partition", "plot", "study_data", "tcc"):
        module = importlib.import_module(f"treatrank.{name}")
        assert set(module.__all__) == set(treatrank._EXPORTS[name]) | own.get(name, set()), name
        assert len(module.__all__) == len(set(module.__all__)), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'treatrank' has no attribute 'rank'"):
        treatrank.rank
    with pytest.raises(ImportError, match="cannot import name 'DavidsonObjective'"):
        exec("from treatrank import DavidsonObjective", {})


def _fresh_process(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter with no BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env["PYTHONPATH"] = str(Path(treatrank.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return result.stdout


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    loaded, blas = json.loads(_fresh_process(
        "import json, os, sys, treatrank; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith(('treatrank.', 'numpy'))), "
        f"[os.environ.get(v) for v in {_BLAS_THREADS!r}]]))"
    ))
    assert loaded == []
    assert blas == ["1", "1", "1"]


def test_a_public_name_loads_only_the_modules_it_needs():
    loaded = _fresh_process(
        "import sys; from treatrank import fit_davidson; "
        "print(' '.join(m for m in sys.modules if m.startswith('treatrank.')))"
    ).split()
    assert "treatrank.davidson" in loaded
    assert not {"treatrank.partition", "treatrank.compare", "treatrank.plot"} & set(loaded)


def test_the_runtime_needs_numpy_alone(tmp_path):
    # The interpreter may load third-party modules at startup (certifi through site), and
    # numpy.random's compiled extensions register Cython runtime modules, so the baseline is
    # a cold interpreter that imported numpy and numpy.random.
    baseline = set(_fresh_process(
        "import sys, numpy, numpy.random; print(' '.join(sys.modules))"
    ).split())
    fixtures = Path(__file__).parent / "fixtures"
    for argv in (
        ["rank", "--input", str(fixtures / "contrasts.csv"), "--mcid", "1.2"],
        ["partition", "--input", str(fixtures / "contrasts.csv"), "--mcid", "1.2"],
        ["compare", "--input", str(fixtures / "league.csv"), "--mcid", "1.2", "--nsim", "1000"],
    ):
        loaded = _fresh_process(
            "import sys; from treatrank.cli import main; "
            f"code = main({[*argv, '--out-dir', str(tmp_path / argv[0])]!r}); "
            "print(code, ' '.join(sys.modules))"
        ).split()
        assert loaded[0] == "0", argv[0]
        foreign = sorted(
            m for m in set(loaded[1:]) - baseline
            if m.split(".")[0] not in {*sys.stdlib_module_names, "numpy", "treatrank"}
        )
        assert foreign == [], argv[0]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]


def test_a_cold_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # Each cold process compiles what it imports; cli imports each stage on its first call.
    fixtures = Path(__file__).parent / "fixtures"
    # subcommand: (a module it runs, the modules it must not load)
    expected = {
        "rank": ("treatrank.plot", {"treatrank.partition", "treatrank.compare"}),
        "partition": ("treatrank.partition", {"treatrank.compare", "treatrank.plot"}),
        "compare": ("treatrank.compare", {"treatrank.tcc", "treatrank.davidson",
                                          "treatrank.partition", "treatrank.plot", "statistics"}),
        "tcc-dump": ("treatrank.tcc", {"treatrank.davidson", "treatrank.partition",
                                       "treatrank.compare", "treatrank.plot"}),
    }
    for command, (used, unused) in expected.items():
        table = "league.csv" if command == "compare" else "contrasts.csv"
        argv = [command, "--input", str(fixtures / table), "--mcid", "1.2",
                "--out-dir", str(tmp_path / command)]
        loaded = _fresh_process(
            f"import sys; from treatrank.cli import main; code = main({argv!r}); "
            "print(code, ' '.join(sys.modules))"
        ).split()
        assert loaded[0] == "0", command
        assert used in loaded, command
        assert unused & set(loaded) == set(), command
    # The module alone loads none of the stages it calls.
    loaded = _fresh_process(
        "import sys, treatrank.cli; print(' '.join(sorted(sys.modules)))"
    ).split()
    assert [m for m in loaded if m.startswith("treatrank.")] == [
        "treatrank.cli", "treatrank.errors", "treatrank.study_data"
    ]


def test_the_readme_layout_lists_every_module():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Layout\n\n```\n(.*?)```", readme, re.M | re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [p.name for p in (root / "src" / "treatrank").glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def test_no_module_imports_a_name_it_never_uses():
    # A leftover import (such as partition's _first_seen) outlives the code that used it.
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    # bench/tracing.py rebinds these names in their modules, which need not call them.
    rebound = {(module, attribute) for module, attribute, _ in tracing.TRACE_POINTS}
    unused = []
    for path in sorted((root / "src" / "treatrank").glob("*.py")):
        module = "treatrank" if path.stem == "__init__" else f"treatrank.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            for alias in statement.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and (module, name) not in rebound:
                    unused.append(f"{path.name}:{statement.lineno} {name}")
    assert unused == []


def test_no_line_is_longer_than_100_characters():
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "treatrank").glob("*.py"), *(root / "tests").glob("*.py")]
    long = [
        f"{path.relative_to(root)}:{number} ({len(line)})"
        for path in sorted(paths)
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert long == []


def test_each_shared_default_is_one_number_in_the_source():
    # A default restated in a second module can drift from the first without a failing test.
    root = Path(__file__).resolve().parents[1]
    numbers = Counter()
    for path in sorted((root / "src" / "treatrank").glob("*.py")):
        with open(path, "rb") as stream:
            tokens = list(tokenize.tokenize(stream.readline))
        numbers.update(ast.literal_eval(t.string) for t in tokens if t.type == tokenize.NUMBER)
    assert (numbers[0.95], numbers[100_000]) == (1, 1)


def test_run_config_keeps_no_copy_of_a_library_default():
    from treatrank.cli import RunConfig
    from treatrank.compare import prob_best
    from treatrank.davidson import normalized_abilities
    from treatrank.partition import PartitionConfig
    from treatrank.plot import emit_plot

    library = {}
    for call in (normalized_abilities, emit_plot, prob_best):
        for name, parameter in inspect.signature(call).parameters.items():
            library.setdefault(name, []).append(parameter.default)
    for field in dataclasses.fields(PartitionConfig):
        library.setdefault(field.name, []).append(field.default)
    shared = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.name in library}
    assert set(shared) == {"ci_level", "seed", "nsim", "alpha", "min_node_size", "max_depth",
                           "permutations"}
    for name, default in shared.items():
        # The library's own object, not an equal literal: that would be a second declaration.
        assert default is None or all(default is own for own in library[name]), name


def test_one_function_writes_every_csv_table():
    # A second writer formats its cells its own way, as the hand-made repr cells did.
    root = Path(__file__).resolve().parents[1]
    callers = [
        path.name
        for path in sorted((root / "src" / "treatrank").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "csv.writer"
    ]
    assert callers == ["study_data.py"]


def test_each_shared_input_rule_is_stated_once():
    # A rule written out in two modules can drift apart without a failing test.
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "treatrank").glob("*.py"))
    source = "\n".join(path.read_text(encoding="utf-8") for path in paths)
    messages = (
        "tie prevalence must be non-negative and finite",
        "direction must be 'beneficial' or 'harmful'",
        "seed must be non-negative",
        "nsim must be positive",
        "unknown treatment {label!r}",
        "need two distinct treatments",
    )
    # Each message as the start of a string literal, plain or formatted.
    counts = {m: len(re.findall(r"""["']""" + re.escape(m), source)) for m in messages}
    assert counts == dict.fromkeys(messages, 1)


def _message_templates(path: Path) -> list[str]:
    """The error messages that ``path`` writes out, each replacement field as ``{}``: the
    string literal that an ``...Error(...)`` call takes first, and once each module-level
    string that such a call formats."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }
    templates, formatted = [], set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and ast.unparse(node.func).endswith("Error")):
            continue
        message = node.args[0]
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            templates.append(message.value)
        elif isinstance(message, ast.JoinedStr):
            templates.append("".join(part.value if isinstance(part, ast.Constant) else "{}"
                                     for part in message.values))
        formatted |= {n.id for n in ast.walk(message) if isinstance(n, ast.Name)} & set(constants)
    return templates + [re.sub(r"\{[^{}]*\}", "{}", constants[name]) for name in formatted]


def test_no_error_message_is_written_twice():
    # A message written out twice can drift apart without a failing test.
    root = Path(__file__).resolve().parents[1]
    counts = Counter(
        template
        for path in sorted((root / "src" / "treatrank").glob("*.py"))
        for template in _message_templates(path)
    )
    assert len(counts) > 100  # the scan finds the package's messages
    assert [template for template, count in counts.items() if count > 1] == []
