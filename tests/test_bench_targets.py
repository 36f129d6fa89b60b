"""The benchmark's span targets still name live bindings in the package.

perfbench/spans.py wraps package functions by module and attribute name,
and skips a target that no longer resolves, so a rename or a deleted
binding turns the per-layer metrics built on it into `absent` without any
error. This check reads the target table and resolves each entry the way
the tracer does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


@pytest.mark.skipif(not SPANS.is_file(), reason="perfbench/ is absent")
def test_every_span_name_has_a_live_target():
    targets = _load_spans().TARGETS
    live = {name for module_name, attr, name, _ in targets
            if _resolves(module_name, attr)}
    assert {name for _, _, name, _ in targets} <= live
