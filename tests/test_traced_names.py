"""The benchmark's tracer (perfbench/tracer.py) wraps treesample functions and
methods by name. A name it lists that no longer resolves is silently skipped
by the tracer, so its layer metrics would read 0; this test catches that in
the fast suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
