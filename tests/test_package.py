"""Tests for the package's export list, the README example that uses it,
the modules the CLI imports, the absence of unused imports, of unused
private names and of public names nothing runs, the modules that name the
Bell cap and the ``--stat`` choices, the sampler's one reader of the
merged-twin count, and the formula route's integer-only imports."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cover_census
from cover_census import cli, usage

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = sorted(ROOT.glob("src/cover_census/*.py"))
SOURCES = PACKAGE + sorted(ROOT.glob("tests/*.py"))


def test_all_names_resolve_once():
    names = cover_census.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cover_census, name), name


def test_star_import_exports_exactly_all():
    namespace = {}
    exec("from cover_census import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cover_census.__all__)


def test_readme_library_section_matches_exports():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    for name in cover_census.__all__:
        assert f"`{name}`" in section, name
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {"__name__": "readme_library"})


PACKAGE_PARENT = str(Path(cover_census.__file__).resolve().parents[1])


def run_fresh(code):
    """Run ``code`` in a fresh ``python -S`` that imports this package, and
    return its stdout; a nonzero exit fails."""
    setup = f"import sys; sys.path.insert(0, {PACKAGE_PARENT!r}); "
    result = subprocess.run(
        [sys.executable, "-S", "-c", setup + code],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def cli_import_loads(module, command=""):
    """Whether a fresh ``python -S`` loads ``module`` to import the CLI and,
    given a command, to run ``cover-census COMMAND`` in process."""
    out = run_fresh(
        f"import cover_census.cli; argv = {command.split()!r}; "
        "code = cover_census.cli.main(argv) if argv else 0; "
        f"print({module!r} in sys.modules); sys.exit(code)"
    )
    return out.splitlines()[-1] == "True"


def test_cli_import_skips_dataclasses():
    # The records are named tuples: importing dataclasses, with the inspect
    # module it loads, and building the records was about half of every
    # command's import time.
    assert not cli_import_loads("dataclasses")


def test_cli_import_skips_ast():
    # Only a usage error reads a quoted value back, so ast is imported there.
    assert not cli_import_loads("ast")


@pytest.mark.parametrize(
    "module", ["cover_census.asymptotics", "cover_census.series", "csv"]
)
def test_cli_import_skips_what_no_benchmarked_command_runs(module):
    # Every command compiles what it loads, with no bytecode cache in the
    # benchmark, so a module loads in the code that calls it: only
    # asymptotics reads the report, only the tests and the benchmark's
    # replay build PowerSeries, and only table and asymptotics write CSV.
    # The sampler and the argparse fallback, which benchmarked commands do
    # load, are pinned below.
    assert not cli_import_loads(module)


def test_package_has_no_partitions_module():
    # The set-based reference that folds partitions set by set runs in the
    # tests only, so it lives there: tests/partitions.py.
    assert importlib.util.find_spec("cover_census.partitions") is None


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("", False),
        ("oracle --n 3", False),
        ("table --max-n 3", False),
        ("sample --n 2 --stat p-x0 --trials 10 --seed 1", True),
    ],
)
def test_only_sample_loads_the_sampler(command, loaded):
    assert cli_import_loads("cover_census.sampler", command) is loaded


@pytest.mark.parametrize(
    "command", ["oracle --n 3", "sample --n 2 --stat p-x0 --trials 10 --seed 1"]
)
def test_oracle_and_sample_runs_skip_the_report(command):
    # Both read their exact Bell-number values from combinatorics.
    assert not cli_import_loads("cover_census.asymptotics", command)


@pytest.mark.parametrize(
    "module",
    ["argparse", "gettext", "locale", "cover_census.usage", "cover_census.series"],
)
@pytest.mark.parametrize(
    "command",
    [
        "",
        "oracle --n 3",
        "table --max-n 3",
        "sample --n 2 --stat p-x0 --trials 10 --seed 1",
    ],
)
def test_plain_command_lines_skip_argparse(module, command):
    # main() reads a plain command line itself; argparse, the gettext and
    # locale its first message loads, and the module that builds the
    # parser are for help and refusals.  full_table multiplies and
    # exponentiates integer lists, so no command loads PowerSeries either.
    assert not cli_import_loads(module, command)


def test_usage_error_still_builds_argparse():
    out = run_fresh(
        "import cover_census.cli\ntry:\n"
        "    cover_census.cli.main(['table', '--max-n', '1', '--format', 'xml'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)"
    )
    assert out == "2 True\n"


@pytest.mark.parametrize(
    "command, code", [("--help", 0), ("table --max-n 1 --format xml", 2)]
)
def test_help_and_refusals_load_usage(command, code):
    out = run_fresh(
        f"import cover_census.cli\ntry:\n"
        f"    cover_census.cli.main({command.split()!r})\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'cover_census.usage' in sys.modules)"
    )
    assert out.splitlines()[-1] == f"{code} True"


def test_asymptotics_runs_in_a_fresh_process(capsys):
    # The report is imported inside its handler, so a fresh run must find it.
    command = ["asymptotics", "--max-n", "8"]
    result = subprocess.run(
        [sys.executable, "-m", "cover_census", *command],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
    )
    assert cli.main(command) == result.returncode == 0
    assert capsys.readouterr() == (result.stdout, result.stderr)


@pytest.mark.parametrize(
    "command",
    [
        "sample --n 2 --stat p-x0 --trials 10 --seed 1",
        "sample --n 2 --stat moment --r 1 --trials 10 --seed 1",
        "sample --n 2 --stat p-collision --trials 10 --seed 1",
        "--help",
        "sample --help",
    ],
)
def test_lazy_imports_resolve_in_a_fresh_process(capsys, monkeypatch, command):
    # The sampler and the parser load inside main(), so a fresh run must
    # find them without an earlier test having loaded them.
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal's width
    result = subprocess.run(
        [sys.executable, "-m", "cover_census", *command.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
    )
    try:
        code = cli.main(command.split())
    except SystemExit as exc:  # argparse exits after help
        code = exc.code
    assert code == result.returncode
    assert capsys.readouterr() == (result.stdout, result.stderr)


def test_root_exports_resolve_in_a_fresh_process():
    # asymptotic_report resolves through the package root's __getattr__.
    out = run_fresh(
        "import cover_census; lazy = 'cover_census.asymptotics' not in sys.modules; "
        "found = hasattr(cover_census, 'asymptotic_report'); names = {}; "
        "exec('from cover_census import *', names); del names['__builtins__']; "
        "print(lazy, found, set(names) == set(cover_census.__all__))"
    )
    assert out == "True True True\n"


def unused_imports(source):
    """Names bound by an import and never read; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_import_check_sees_one():
    source = "import io\nfrom json import dumps as d, loads\n__all__ = ['loads']\n"
    assert unused_imports(source) == ["d", "io"]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda path: str(path.relative_to(ROOT))
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unloaded_private_names(source):
    """Private names a module defines at top level and never reads itself."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = {name for name in defined if name[:1] == "_" and name[:2] != "__"}
    return sorted(private - loaded)


def test_unloaded_private_check_sees_one():
    source = (
        "_LIMIT: int = 3\n__version__ = '0'\n"
        "def _used():\n    return _LIMIT\n"
        "def _left():\n    return 1\n"
        "class _Gone:\n    pass\n"
        "x = _used()\n"
    )
    assert unloaded_private_names(source) == ["_Gone", "_left"]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda path: str(path.relative_to(ROOT))
)
def test_no_unloaded_private_names(path):
    assert unloaded_private_names(path.read_text(encoding="utf-8")) == []


def package_imports(source):
    """Submodules of cover_census that a module imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [f"cover_census.{node.module or a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(
            name.split(".")[1] for name in names if name.startswith("cover_census.")
        )
    return found


def test_package_import_check_sees_each_form():
    source = (
        "import json\nimport cover_census.series\nfrom . import asymptotics\n"
        "from .errors import ConsistencyError\nfrom cover_census import sequences\n"
    )
    assert package_imports(source) == {"series", "asymptotics", "errors", "sequences"}


def test_oracle_shares_no_code_with_the_formula_route():
    # The exhaustive route and its set-based reference check the formula
    # pipeline, so they must not use it.
    for path in ("src/cover_census/oracle.py", "tests/partitions.py"):
        source = (ROOT / path).read_text(encoding="utf-8")
        assert package_imports(source).isdisjoint(
            {"sequences", "series", "asymptotics"}
        ), path


def test_formula_route_imports_no_fractions():
    # Every count of the formula route is an integer; the block-count grid
    # divides exactly, cell by cell, and needs no rational type.
    source = (ROOT / "src/cover_census/sequences.py").read_text(encoding="utf-8")
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "fractions" not in modules


def names_read(source):
    """Every name a module reads, binds, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


def test_name_check_sees_each_form():
    source = (
        "from .combinatorics import CAP as C\nimport os\n"
        "x = combinatorics.LIMIT + C\n"
    )
    assert names_read(source) == {"CAP", "C", "os", "combinatorics", "LIMIT", "x"}


def unreached_public_names(sources, exports):
    """Public top-level names of the modules in ``sources`` that nothing runs.

    The names in ``exports`` are reached, and so is every name read by
    module code outside the definitions and imports, such as a
    ``__main__`` block.  A top-level definition (function, class or
    assignment) whose name is reached reaches every name it reads.
    """
    reads = {}
    reached = set(exports)
    for source in sources:
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined = {statement.name}
            elif isinstance(statement, ast.Assign):
                defined = {t.id for t in statement.targets if isinstance(t, ast.Name)}
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                defined = {statement.target.id}
            else:
                defined = set()
            found = names_read(ast.unparse(statement))
            if not defined or any(name[:2] == "__" for name in defined):
                reached |= found
            for name in defined:
                reads.setdefault(name, set()).update(found)
    pending = list(reached)
    while pending:
        for name in reads.get(pending.pop(), ()):
            if name not in reached:
                reached.add(name)
                pending.append(name)
    return {name for name in reads if name[:1] != "_" and name not in reached}


# Public names whose only caller is perfbench/replay.py, which times the
# library's layers one call at a time.
REPLAY_ONLY = {
    "fiber_check",  # replay_oracle: oracle.fiber_check(n, limit=limit)
    "FiberCheck",  # the record fiber_check returns
    "oracle_line_count",  # replay_oracle: oracle.oracle_line_count(n, limit=limit)
    "oracle_line_class_count",  # replay_oracle: oracle.oracle_line_class_count(...)
    "COMPOSE_CHECK_DEGREE",  # replay_full_table: sequences.COMPOSE_CHECK_DEGREE
    "line_transform",  # replay_full_table: sequences.line_transform(v_series)
    "PowerSeries",  # replay_full_table: PowerSeries.from_sequence, exp, *, compose
}


def package_sources():
    return [path.read_text(encoding="utf-8") for path in PACKAGE]


def test_every_public_name_runs_outside_the_tests():
    # A public name is a package-root export, or code reaches it from a
    # command or an export, or the benchmark's replay calls it.
    found = unreached_public_names(package_sources(), cover_census.__all__)
    assert found == REPLAY_ONLY


def test_public_name_check_sees_an_unused_function():
    # The package with one more public function, which only a test of its
    # own would call; what it calls stays reached through full_table.
    orphan = "def orphan(v):\n    return full_table(len(v))\n"
    found = unreached_public_names(package_sources() + [orphan], cover_census.__all__)
    assert found == REPLAY_ONLY | {"orphan"}


def test_bell_cap_is_named_by_the_size_rule_modules_only():
    # bell() and stirling2() enforce the cap, full_table refuses a table
    # past it, and the CLI announces and refuses sizes against it; every
    # other module meets it through one of these.
    naming = {
        path.stem
        for path in PACKAGE
        if "DEFAULT_BELL_CAP" in names_read(path.read_text(encoding="utf-8"))
    }
    assert naming == {"combinatorics", "sequences", "cli"}


def string_constants(source):
    """Every string constant of a module outside its docstrings, f-string
    parts included."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    }


def stat_choices():
    """The ``--stat`` choices of ``sample``, read off build_parser()."""
    parser = usage.build_parser()
    (commands,) = [action for action in parser._actions if action.dest == "command"]
    (stat,) = [
        action
        for action in commands.choices["sample"]._actions
        if action.dest == "stat"
    ]
    return set(stat.choices)


SAMPLER = ROOT / "src/cover_census/sampler.py"


def test_string_constant_check_sees_one():
    # sampler.py with the name its separation estimator passed on put back.
    source = SAMPLER.read_text(encoding="utf-8")
    event = "        lambda rgs: rgs is not None"
    assert source.count(event) == 1
    source = source.replace(event, '        "p-x0",\n' + event)
    assert string_constants(source) & stat_choices() == {"p-x0"}


def test_stat_choices_are_named_by_the_cli_only():
    # The CLI echoes the request, so no estimator names its statistic: a
    # new one adds a --stat choice and a branch in cli.py only.
    choices = stat_choices()
    naming = {
        path.stem
        for path in PACKAGE
        if string_constants(path.read_text(encoding="utf-8")) & choices
    }
    assert naming == {"cli"}


def functions_loading(source, name):
    """The top-level functions of a module that load ``name``, with None
    for a load outside every function."""
    found = set()
    for statement in ast.parse(source).body:
        owner = statement.name if isinstance(statement, ast.FunctionDef) else None
        found.update(
            owner
            for node in ast.walk(statement)
            if isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        )
    return found


def test_sampler_counts_merged_twins_in_the_moment_only():
    # A p-x0 draw is None exactly when a twin pair shares a block, so the
    # separation estimator never counts merged pairs again.
    source = SAMPLER.read_text(encoding="utf-8")
    assert functions_loading(source, "merged_twin_count") == {"estimate_twin_moment"}


def test_loading_check_sees_a_second_reader():
    # sampler.py with the separation estimator judging each draw again.
    source = SAMPLER.read_text(encoding="utf-8")
    event = "        lambda rgs: rgs is not None"
    assert source.count(event) == 1
    source = source.replace(event, event + " and merged_twin_count(rgs, n) == 0")
    assert functions_loading(source, "merged_twin_count") == {
        "estimate_separation_probability",
        "estimate_twin_moment",
    }
