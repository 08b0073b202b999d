"""The traced benchmark wraps program functions by name; every name it
lists must still resolve, so a rename breaks this test, not a traced run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls is not None and callable(vars(cls).get(meth))
    return callable(getattr(owner, attr, None))


def test_every_traced_target_resolves():
    spans = _load_spans()
    targets = [(module, attr) for _, module, attr in spans.TARGETS]
    targets.append(spans.PROVE_TARGET)
    assert [t for t in targets if not _resolves(*t)] == []
