import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def tp():
    """thermoep's submodules by layer, as bench/run.py hands them to workloads."""
    import thermoep  # noqa: F401
    from run import LAYERS

    return SimpleNamespace(**{layer: sys.modules[f"thermoep.{layer}"] for layer in LAYERS})
