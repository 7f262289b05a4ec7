"""The traced benchmark run (perfbench/tracing.py) patches lipwidth by name.

Every span and counted-leaf target it lists must resolve against the
package, so that renaming a function here cannot silently drop a layer
from the traced run.  The tracing module is only imported, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

import lipwidth
# the patcher reads every layer as an attribute of the package, and the
# package does not import its CLI (perfbench/worker.py imports it first);
# a later benchmark change can make the patcher import its layers itself
import lipwidth.cli  # noqa: F401

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

_TARGETS = [(name, target)
            for table in (tracing.SPANS, tracing.LEAVES)
            for name, targets in table.items()
            for target in targets]


def test_traced_layers_are_modules():
    for layer in tracing.LAYERS:
        assert hasattr(lipwidth, layer), layer


@pytest.mark.parametrize("span,target", _TARGETS, ids=[t for _, t in _TARGETS])
def test_trace_target_resolves(span, target):
    owners = tracing.Patcher(lipwidth, tracing.Tracer())._targets(target)
    assert owners, f"{span}: {target} matches nothing in lipwidth"
    for owner, attr in owners:
        assert callable(owner.__dict__[attr]), (span, owner, attr)
