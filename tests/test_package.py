"""Package structure: every module imports what it needs at load time,
and nothing it does not."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import fansq
from fansq.atlas import AxisRange, GridSpec
from fansq.fanstate import DriveParams, FanConfig, SeriesControl, TrappedIon

SRC = pathlib.Path(fansq.__file__).parent


def _nested_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports that sit inside a function or class body."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            lines += [
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return sorted(set(lines))


def test_no_module_of_the_package_imports_inside_a_function():
    # a deferred import hides a cycle between modules
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = {
        path.name: lines
        for path in modules
        if (lines := _nested_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_no_module_of_the_package_guards_with_assert():
    # python -O strips assert statements, and every guard must survive it
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if lines := [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]:
            found[path.name] = lines
    assert found == {}


def _kind_checks(tree: ast.Module) -> list[int]:
    """Lines of `isinstance(..., bool)` calls and of `type(...)` compared with int or bool."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and "bool" in ast.unparse(node.args[-1]):
                lines.append(node.lineno)
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and any(isinstance(c, ast.Name) and c.id in ("int", "bool") for c in node.comparators)
        ):
            lines.append(node.lineno)
    return lines


def test_only_the_errors_module_checks_the_kind_of_an_argument():
    # the argument rules live in errors.py; a copy elsewhere drifts from them
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "errors.py" and (lines := _kind_checks(tree)):
            found[path.name] = lines
    assert found == {}
    assert _kind_checks(ast.parse((SRC / "errors.py").read_text()))


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of `functools.cache` and of `lru_cache` without an int maxsize."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        elif "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None)):
            call = calls.get(id(node))
            keywords = {kw.arg: kw.value for kw in call.keywords} if call else {}
            size = call.args[0] if call and call.args else keywords.get("maxsize")
            if not (
                isinstance(size, ast.Constant)
                and isinstance(size.value, int)
                and not isinstance(size.value, bool)
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_every_memo_table_of_the_package_has_an_int_bound():
    # a process that runs a long time must keep its memory bounded
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if lines := _unbounded_caches(ast.parse(path.read_text(), filename=str(path))):
            found[path.name] = lines
    assert found == {}
    unbounded = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache\ndef b(): pass\n"
        "@lru_cache(maxsize=None)\ndef c(): pass\n"
        "@functools.lru_cache(None, typed=True)\ndef d(): pass\n"
        "@lru_cache(maxsize=8)\ndef e(): pass\n"
        "@functools.lru_cache(8)\ndef f(): pass\n"
    )
    assert _unbounded_caches(ast.parse(unbounded)) == [2, 3, 5, 7, 9]


def _attribute_reads(owner: str) -> set[str]:
    """Attribute names the package loads outside cli.py and outside `owner.__post_init__`."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":  # it only forwards flags
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        own_check = {
            id(inner)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == owner
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for inner in ast.walk(fn)
        }
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in own_check
        }
    return names


def test_every_setting_is_read_by_the_computation():
    # a field that only its own check reads, and the CLI forwards, changes
    # no output: it is a setting that does nothing
    holders = (SeriesControl, DriveParams, FanConfig, TrappedIon, GridSpec, AxisRange)
    unread = []
    for cls in holders:
        reads = _attribute_reads(cls.__name__)
        unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls) if f.name not in reads]
    assert unread == []


def test_importing_the_package_loads_neither_numpy_polynomial_nor_scipy():
    # numpy.polynomial costs about 5 ms and 0.8 MB per process, and scipy
    # is a test-only dependency
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import fansq\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _package_imports(tree: ast.Module) -> set[str]:
    """The modules of the package that a module's import statements name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("fansq.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("fansq."):
                names.add(module.split(".")[1])
            elif node.level and module:
                names.add(module.split(".")[0])
            elif node.level or module == "fansq":  # from . import rows
                names |= {a.name for a in node.names}
    return names


def _top_level_names(tree: ast.Module, imports: bool = True) -> set[str]:
    """Names a module binds at its top level: its defs and assignments, and its imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def test_only_atlas_imports_the_row_engine_and_its_names_live_in_rows_alone():
    # one module decides how a row of points is summed and how its failures are coded
    paths = sorted(SRC.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    importers = sorted(name for name, tree in trees.items() if "rows" in _package_imports(tree))
    assert importers == ["atlas"]
    engine = _top_level_names(trees["rows"], imports=False)
    assert {"LaguerreRows", "squeeze_rows"} <= engine
    # one entry point: the wrappers around the cores `_moment_rows` and `_depth` are gone
    assert not {"moment_rows", "convergence_depth"} & engine
    taken = {
        alias.name
        for node in ast.walk(trees["atlas"])
        if isinstance(node, ast.ImportFrom) and node.module == "rows"
        for alias in node.names
    }
    assert taken == {"squeeze_rows", "STOPPED", "SINGULAR", "OVERFLOW", "CAPPED"}
    # defined or re-exported by a module the engine was taken out of
    for home in ("fanstate", "squeeze", "specfun"):
        assert _top_level_names(trees[home]) & engine == set(), home
    assert _package_imports(ast.parse("import fansq.rows\nfrom . import rows\n")) == {"rows"}


def _call_time_log_factorial_reads(tree: ast.Module) -> list[int]:
    """Lines inside a function that read an attribute of `log_factorial`."""
    lines = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and "log_factorial" in (
                    getattr(node.value, "id", None),
                    getattr(node.value, "attr", None),
                ):
                    lines.add(node.lineno)
    return sorted(lines)


def test_no_function_of_the_package_reads_an_attribute_of_log_factorial():
    # a traced run swaps specfun.log_factorial for a plain function in every
    # module of the package: its methods are bound at import, never looked up in a call
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if lines := _call_time_log_factorial_reads(ast.parse(path.read_text(), filename=str(path))):
            found[path.name] = lines
    assert found == {}
    calls = (
        "live = log_factorial.live\n"
        "def a(n):\n    return log_factorial.upto(n)\n"
        "def b(n):\n    return specfun.log_factorial.live(n)\n"
        "def c(n):\n    return log_factorial(n)\n"
    )
    assert _call_time_log_factorial_reads(ast.parse(calls)) == [3, 5]
