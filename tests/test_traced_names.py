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


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> tuple[set[str], set[str], set[str]]:
    """(names, attributes, calls) that the code of tree reads outside skip:
    the bare names, the attribute names, and the attribute names it calls
    as x.name(...)."""
    nodes = [tree]
    names, attributes, calls = set(), set(), set()
    while nodes:
        node = nodes.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls.add(node.func.attr)
        nodes.extend(ast.iter_child_nodes(node))
    return names, attributes, calls


def _union(uses) -> tuple[set[str], set[str], set[str]]:
    """The union of _uses triples, set by set."""
    names, attributes, calls = set(), set(), set()
    for n, a, c in uses:
        names |= n
        attributes |= a
        calls |= c
    return names, attributes, calls


def _overrides_outside_base(cls: type, name: str) -> bool:
    """Whether name overrides a method of a base class from outside the
    package, which that base's own code calls (argparse calls error)."""
    return any(name in vars(base) for base in cls.__mro__[1:]
               if base.__module__.partition(".")[0] != "treesample")


def test_every_package_definition_has_a_caller():
    """A function, method or class in src/treesample must be used elsewhere
    in the package (its __init__ exports do not count) or by the benchmark
    (its tests do not count). Dunders are exempt.

    A module-level function or class is used when any code reads its name,
    bare or as an attribute, or the tracer's TARGETS name it. A method is
    used only when code outside it calls it as x.name(...), reads it as a
    property, or TARGETS names it as Class.method, or when it overrides a
    method of a base class from outside the package: a local variable or a
    data attribute of the same name does not count.
    """
    modules = {path: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "treesample").glob("*.py"))
               if path.name != "__init__.py"}
    targets = _tracer_module().TARGETS
    traced = {(module_name, attr_path) for _, module_name, attr_path, _ in targets}
    traced_parts = {part for _, _, attr_path, _ in targets for part in attr_path.split(".")}
    bench = [_uses(ast.parse(path.read_text())) for path in (ROOT / "perfbench").glob("*.py")
             if path.name != "test_perfbench.py"]
    unused = []
    for path, tree in modules.items():
        module = importlib.import_module(f"treesample.{path.stem}")
        elsewhere = bench + [_uses(other_tree) for other, other_tree in modules.items()
                             if other != path]
        owners = {id(child): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for child in node.body if isinstance(child, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            names, attributes, calls = _union(elsewhere + [_uses(tree, skip=node)])
            owner = owners.get(id(node))
            if owner is None:
                used = name in names | attributes | traced_parts
            else:
                is_property = any(isinstance(d, ast.Name) and d.id == "property"
                                  for d in node.decorator_list)
                used = (name in calls or (is_property and name in attributes)
                        or (path.stem, f"{owner.name}.{name}") in traced
                        or _overrides_outside_base(getattr(module, owner.name), name))
            if not used:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
