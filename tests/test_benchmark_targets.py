"""The benchmark's traced run wraps mcmpl callables by name; keep them defined."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in spans.TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names no longer defined: {missing}"
