"""The benchmark's tracer still finds every name it binds in the package.

`perfbench/tracing.py` wraps the functions listed in `BOUNDARIES` and
`EnumFamily.stream` in every package module that binds them.  A rename or
deletion of one of them fails here, on every test run, and not only in a
traced benchmark run.  The tracer is imported as `test_bench_pins.py`
imports the workloads; nothing under `perfbench/` is changed.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def package_bindings() -> dict:
    """Every (module, name) -> object binding of the package's modules."""
    return {
        (key, name): value
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "mixedpages" or key.startswith("mixedpages."))
        for name, value in vars(mod).items()
    }


def test_install_wraps_every_boundary_and_uninstall_restores_it():
    for module_name, _, _, _ in tracing.BOUNDARIES:
        importlib.import_module(f"mixedpages.{module_name}")
    family = sys.modules["mixedpages.enumeration"].EnumFamily
    originals = {
        (module_name, attr): getattr(sys.modules[f"mixedpages.{module_name}"], attr)
        for module_name, attr, _, _ in tracing.BOUNDARIES
    }
    stream = family.stream
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in originals.items():
            wrapped = getattr(sys.modules[f"mixedpages.{module_name}"], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
        assert family.stream is not stream
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(sys.modules[f"mixedpages.{module_name}"], attr) is original, attr
    assert family.stream is stream
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
