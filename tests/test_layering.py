"""Which module may import which, read off the source with ``ast``.

The push-forwards in ``gysin`` sit on the polynomial ring alone, and
every check that compares two routes and returns a verdict lives in
``verify``, which only the CLI and the package root import: the layers
keep their production routes, and the cross-checks stay out of them.  A
public function or class of a route module that nothing but ``verify``
reads is such a check, and lives in ``verify`` too.  Every layer the
benchmark's tracer wraps by name is still where the tracer looks."""
import ast
import importlib
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qlocus"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def qlocus_imports(tree) -> set[str]:
    """The qlocus modules a module imports, at any depth in it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qlocus."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qlocus."))
    return out


def test_gysin_imports_only_the_ring_and_the_records():
    assert qlocus_imports(MODULES["gysin"]) == {"polyring", "records"}


def test_only_the_cli_and_the_package_import_verify():
    importers = sorted(name for name, tree in MODULES.items() if "verify" in qlocus_imports(tree))
    assert importers == ["__init__", "cli"]


def test_only_verify_defines_verify_functions():
    defining = [
        name
        for name, tree in MODULES.items()
        if any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("verify_")
            for node in ast.walk(tree)
        )
    ]
    assert defining == ["verify"]


def referenced_names(tree) -> set[str]:
    """Every name a module reads, as a name, an attribute, or a string
    constant that is exactly the name (``schur_of_kind`` looks its
    functions up by name); prose in docstrings never counts."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


# check routes the benchmark's tracer wraps by name, so they stay in their
# layers until the tracer's targets are revised (ROADMAP item 1)
PINNED = {("locus", "class_via_pushforward"), ("schur", "expand_schur_pair")}


def test_route_modules_define_only_what_production_reads():
    # a public function or class of chern, locus or schur that only verify
    # or the package root reads is a check route, and belongs in verify
    readers = [tree for name, tree in MODULES.items() if name not in ("verify", "__init__")]
    read = set().union(*map(referenced_names, readers))
    unread = {
        (module, node.name)
        for module in ("chern", "locus", "schur")
        for node in MODULES[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    }
    assert unread == PINNED


def test_every_layer_the_benchmark_traces_resolves():
    # perfbench/traced_cli.py wraps each (module, attribute path) of its
    # TARGETS by name, defined on its owner itself; a layer that is
    # deleted or moved would break the traced benchmark run, so it fails
    # here.  The tracer is loaded, not installed.
    path = SRC.parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.TARGETS
    missing = []
    for _, module, attribute, *_ in traced.TARGETS:
        owner = importlib.import_module(module)
        *outer, name = attribute.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(name) if owner is not None else None):
            missing.append((module, attribute))
    assert missing == []
