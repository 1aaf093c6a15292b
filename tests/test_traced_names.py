"""The benchmark's tracer (perfbench/tracer.py) wraps treesample functions and
methods by name. A name it lists that no longer resolves is silently skipped
by the tracer, so its layer metrics would read 0; this test catches that in
the fast suite. A second test keeps API that only tests use out of the
package: every function, method and class it defines has a caller in the
program or the benchmark."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its class's module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer_module()
    missing = []
    for _, module_name, attr_path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names that the code of tree reads, outside skip."""
    nodes = [tree]
    names = set()
    while nodes:
        node = nodes.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        nodes.extend(ast.iter_child_nodes(node))
    return names


def test_every_package_definition_has_a_caller():
    """A function, method or class in src/treesample must be used elsewhere
    in the package (its __init__ exports do not count) or by the benchmark
    (its tests do not count); a name in the tracer's TARGETS counts as a
    use. Dunders are exempt."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "treesample").glob("*.py"))
               if path.name != "__init__.py"}
    outside = {part for _, _, attr_path, _ in _tracer_module().TARGETS
               for part in attr_path.split(".")}
    for path in (ROOT / "perfbench").glob("*.py"):
        if path.name != "test_perfbench.py":
            outside |= _used_names(ast.parse(path.read_text()))
    unused = []
    for path, tree in modules.items():
        elsewhere = set(outside)
        for other, other_tree in modules.items():
            if other != path:
                elsewhere |= _used_names(other_tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in elsewhere and name not in _used_names(tree, skip=node):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
