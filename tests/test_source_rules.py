"""Rules the library source keeps, checked on its syntax tree, the
library names the benchmark's tracer looks up, the tests the docs cite, and
the README's library quick start, run as written."""

import ast
import importlib.util
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from regenrepair import framework
from regenrepair.ambr import AdaptiveMBRCode
from regenrepair.gf import Field
from regenrepair.ia import IACode
from regenrepair.mds import MDSStripeCode
from regenrepair.pm import PMCode

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "regenrepair").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_checks_do_not_use_assert(path):
    """python -O strips assert statements, so a check written as one
    silently disappears; library checks raise instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements on lines %s" % (path.name, lines)


# the arguments Python 3.10 requires of int's byte conversions; 3.11 made
# the byteorder (and to_bytes's length) optional
BYTE_CONVERSIONS = {"from_bytes": ("bytes", "byteorder"), "to_bytes": ("length", "byteorder")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_byte_conversions_pass_a_byteorder(path):
    """Every from_bytes/to_bytes call, through int or a local bound to it,
    passes its byteorder, positionally or by keyword, so the library runs
    on Python 3.10 too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in BYTE_CONVERSIONS:
            required = BYTE_CONVERSIONS[name]
            given = set(required[: len(node.args)]) | {kw.arg for kw in node.keywords}
            if not set(required) <= given:
                lines.append(node.lineno)
    assert lines == [], "%s calls from_bytes/to_bytes without a byteorder on lines %s" % (path.name, sorted(lines))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_library_modules_use_every_import(path):
    """Every name a module imports is read somewhere in it, so a deletion
    leaves no import behind; __init__.py imports to re-export and is exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in read)
    assert unused == [], "%s imports names it never reads (line, name): %s" % (path.name, unused)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_modules_import_at_module_level(path):
    """No import sits inside a function: a module's dependencies are read
    at its top, and none is put off to hide an import cycle."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert lines == [], "%s imports inside functions on lines %s" % (path.name, sorted(set(lines)))


def _body_without_docstring(function):
    body = function.body[1:] if ast.get_docstring(function, clean=False) is not None else function.body
    return "\n".join(ast.dump(statement) for statement in body)


def test_no_method_body_is_written_in_two_classes():
    """A method that two classes define with the same name and the same
    body, docstrings aside, belongs once in a shared base: the copies
    otherwise drift apart."""
    bodies = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for function in node.body:
                    if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = (function.name, _body_without_docstring(function))
                        bodies.setdefault(key, []).append("%s:%s" % (path.name, node.name))
    copies = sorted((name, owners) for (name, _), owners in bodies.items() if len(owners) > 1)
    assert copies == [], "methods with one body in several classes (name, classes): %s" % copies


def _self_attributes(function, ctx):
    """The names function reads (ctx ast.Load) or assigns (ast.Store) as self.<name>."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self" and isinstance(node.ctx, ctx)
    }


F256 = Field(8)
FAMILY_CODES = {
    "pm": lambda: PMCode(F256, 11, 6),
    "ia": lambda: IACode(F256, 6),
    "mds": lambda: MDSStripeCode(F256, 7, 3, d_max=4),
    "ambr": lambda: AdaptiveMBRCode(F256, 7, 3, 4, 5),
}


@pytest.mark.parametrize("family", sorted(FAMILY_CODES))
def test_inherited_framework_methods_read_only_what_the_family_has(family):
    """Every method a family takes unchanged from a framework.py base reads
    from self only what a built instance has, or what some method of its
    classes assigns as self.x = ...; anything else would die with
    AttributeError on the first call, as the coupling methods did on MDS
    and adaptive MBR while RepairableCode held them."""
    code = FAMILY_CODES[family]()
    classes = type(code).__mro__[:-1]
    functions = [f for cls in classes for f in vars(cls).values() if inspect.isfunction(f)]
    assigned = set().union(*(_self_attributes(f, ast.Store) for f in functions))
    missing = sorted(
        (name, attr)
        for name in dir(code)
        for method in [inspect.getattr_static(code, name)]
        if inspect.isfunction(method) and method.__module__ == framework.__name__
        for attr in _self_attributes(method, ast.Load)
        if attr not in assigned and not hasattr(code, attr)
    )
    assert missing == [], "framework methods reading what %s lacks (method, attribute): %s" % (family, missing)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_except_tuple_names_a_class_another_entry_covers(path):
    """An except tuple that names a class beside one of its bases reads as
    if the subclass needed its own entry; the base already catches it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    tuples = [node.type for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple)]
    module = importlib.import_module("regenrepair.%s" % path.stem) if tuples else None
    covered = []
    for entries in tuples:
        classes = [(ast.unparse(entry), eval(ast.unparse(entry), vars(module))) for entry in entries.elts]
        covered += [
            (entries.lineno, name, base)
            for name, cls in classes
            for base, other in classes
            if other is not cls and issubclass(cls, other)
        ]
    assert covered == [], "%s except tuples name classes another entry covers (line, class, covered by): %s" % (path.name, covered)


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_modules_parse_as_python_3_10(path):
    """CI runs the library and its tests on Python 3.10 too, so no module
    uses syntax that came later, such as except*."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# The coupling views, coupling_system and assemble_multi, and the
# CouplingSystem they fill have no caller in the library: repairs build and
# reduce the packed coupling rows, and the tests of the coupling identities
# read those rows (tests/coupling.py). Only the tests of the views
# themselves call them: CouplingSystem's own unit tests, the views' input
# checks and their agreement tests, named here by file and by the top-level
# function or module-level name the call sits in.
VIEW_TESTS = {
    "test_framework.py": {
        "test_unknown_order_frozen",
        "test_slot_is_bijection_and_matches_pair_list",
        "test_unknown_order_ignores_input_permutation",
        "test_coupling_system_layout",
        "test_coupling_solve_round_trip",
        "test_coupling_singular_reports_pattern",
        "test_a_repeated_failed_id_is_one_node",
        "test_the_coupling_views_agree_with_condition_check_and_each_other",
    },
    "test_input_validation.py": {
        "COUPLING_CALLS",
        "test_the_coupling_views_refuse_what_repair_refuses",
        "assemble_cases",
        "test_assemble_multi_checks_ids_and_helper_shards",
        "test_the_coupling_views_refuse_failed_ids_that_are_not_a_collection",
        "ONE_SHOT_ENTRIES",
    },
    "test_pm.py": {"test_coupling_matrix_is_assemble_multis_matrix_without_shards"},
    "test_repair_plans.py": {"test_dependent_lists_every_column_without_a_pivot"},
}
VIEW_METHODS = {"coupling_system", "assemble_multi", "determinant"}


def _view_calls(path):
    """(line, owner) of every call in path of a coupling view, of
    .determinant() or of CouplingSystem(...), owner being the top-level
    def or class, or the module-level name assigned, that holds the call."""
    calls = []
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = statement.name
        else:
            targets = getattr(statement, "targets", [getattr(statement, "target", None)])
            owner = next((t.id for t in targets if isinstance(t, ast.Name)), "<module>")
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "CouplingSystem" or (name in VIEW_METHODS and isinstance(func, ast.Attribute)):
                    calls.append((node.lineno, owner))
    return calls


def test_only_the_views_own_tests_call_the_coupling_views():
    """Every test_*.py file (tests/reference_paths.py, the references, is
    not one): a call of coupling_system, assemble_multi, .determinant() or
    CouplingSystem(...) outside VIEW_TESTS fails, and so does a VIEW_TESTS
    name that no longer calls them, so the list names exactly the tests
    that retiring the views touches."""
    offenders, used = [], set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for line, owner in _view_calls(path):
            if owner in VIEW_TESTS.get(path.name, ()):
                used.add((path.name, owner))
            else:
                offenders.append("tests/%s:%d in %s" % (path.name, line, owner))
    stale = sorted({(name, owner) for name, owners in VIEW_TESTS.items() for owner in owners} - used)
    assert offenders == [], "calls of the coupling views outside their own tests: %s" % offenders
    assert stale == [], "VIEW_TESTS names that call no coupling view: %s" % stale


def test_every_name_the_benchmark_traces_exists():
    """perfbench/tracing.py wraps library functions and methods by name;
    each (owner, attribute) of its TRACED list must still be defined on
    its owner, so renaming or dropping one fails here, not only in the
    benchmark's own smoke test."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_traced_names", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(name, attr) for name, owner, attr in tracing.TRACED if attr not in vars(owner)]
    assert len(tracing.TRACED) > 20 and missing == []


def test_every_library_name_the_benchmark_reads_exists():
    """perfbench/workloads.py reads names off the library modules it
    imports (ia.UnsupportedPatternError, workbench.verify_exact_repair, ...);
    each must still be an attribute of its module. A name read only in an
    except clause or a rarely taken branch would otherwise fail only when
    the benchmark gets there."""
    path = ROOT / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name: importlib.import_module("%s.%s" % (node.module, alias.name))
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "regenrepair"
        for alias in node.names
    }
    read = {
        (node.value.id, node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    missing = sorted((line, "%s.%s" % (name, attr)) for name, attr, line in read if not hasattr(modules[name], attr))
    assert len(modules) >= 5 and len(read) > 20 and missing == [], "names the benchmark reads that do not exist: %s" % missing


def test_every_test_the_docs_cite_exists():
    """README.md and docs/*.md point at tests as the proofs of their claims,
    as tests/<file>.py::<name>; each name must still be defined at the top
    of its file, so a renamed or deleted test leaves no stale pointer."""
    cited = {
        (doc.name, file, name)
        for doc in DOCS
        for file, name in re.findall(r"tests/(\w+\.py)::(\w+)", doc.read_text())
    }
    missing = []
    for doc, file, name in sorted(cited):
        path = ROOT / "tests" / file
        tree = ast.parse(path.read_text(), filename=str(path)) if path.exists() else ast.Module(body=[])
        if name not in {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}:
            missing.append((doc, "tests/%s::%s" % (file, name)))
    assert cited and missing == [], "cited tests that do not exist (doc, test): %s" % missing


def test_the_readme_library_quick_start_runs(capsys):
    """The README's "Library quick start" block, cut from the README and
    run as written, so a renamed or removed API it shows fails here before
    it reaches a reader. Its three prints come out."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {"__name__": "quick_start"})
    assert len(capsys.readouterr().out.splitlines()) >= 3
