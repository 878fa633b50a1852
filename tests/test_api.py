"""The public names: every function the benchmark's tracer wraps still exists
where the tracer looks for it, and the names removed from the API stay removed.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``TARGETS`` and raises ``AttributeError`` on a missing one, so a renamed
target would break the traced benchmark rather than a test.  The tracer is
also installed and uninstalled once on the loaded package, ``ssdual.cli``
included, as a traced run does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import ssdual

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: names deleted because they restated other code; see CHANGES.md for each replacement
REMOVED = ("validate_kernel", "validate_generator", "InitialLaw", "SpectrumClassification",
           "classify_spectrum")


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _tracer_targets() -> list[tuple[str, str]]:
    return [(module, attr) for module, attr, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(f"ssdual.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer reads a method from the class's own __dict__
    assert callable(vars(owner)[name])


def test_tracer_installs_and_uninstalls():
    # what a traced benchmark run does first, with every target module loaded
    import ssdual.cli

    tracer = _tracing().Tracer()
    before = {name: value for name, value in vars(ssdual.laws).items() if callable(value)}
    method = vars(ssdual.DiscreteAbsorptionLaw)["cdf"]
    tracer.install()
    try:
        assert vars(ssdual.DiscreteAbsorptionLaw)["cdf"] is not method
        assert ssdual.cli.main is not ssdual.cli.main.__wrapped__
    finally:
        tracer.uninstall()
    assert vars(ssdual.DiscreteAbsorptionLaw)["cdf"] is method
    assert not hasattr(ssdual.cli.main, "__wrapped__")
    assert {name: vars(ssdual.laws)[name] for name in before} == before


def test_exports_resolve_and_removed_names_are_gone():
    assert all(hasattr(ssdual, name) for name in ssdual.__all__)
    for name in REMOVED:
        assert name not in ssdual.__all__ and not hasattr(ssdual, name)
    fields = set(ssdual.ModifiedDual.__dataclass_fields__)
    assert not fields & {"bidiagonal", "target_column", "absorbing_states"}
