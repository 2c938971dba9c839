"""What the benchmark reads of mcmpl stays defined and working: the callables
its traced run wraps by name, and one round of each of its workloads."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: workload seed of the round below; a study round fits 2 trials (20 on
#: study-ar1), so its bias-direction checks rest on a fixed draw, not on power
SEED = 1


def _load(name):
    """``perfbench/<name>.py`` as a module, registered under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_defined_on_its_owner():
    spans = _load("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in spans.TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names no longer defined: {missing}"


@pytest.mark.parametrize("name", ["study-mcar", "study-weibull", "study-ar1",
                                  "fit-mnar-cli"])
def test_one_round_of_each_workload_passes_its_checks(name, tmp_path):
    workloads = _load("workloads")
    work = workloads.make(name, SEED, str(tmp_path))
    work.setup()
    done = work.run_round(0)
    assert done.attempted > 0 and done.failed == 0
    failed = [f"{c.name} ({c.detail})" for c in work.checks([done]) if not c.ok]
    assert not failed, f"{name}: failed checks {failed}"
