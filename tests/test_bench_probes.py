"""The frozen benchmark suite's per-layer trace still finds its targets.

``benchmarks/suite/layers.py`` reads the program from outside: it wraps
the entry points named in ``PROBES`` (looked up with ``vars(cls)[name]``,
so a method inherited from a base class is not found) and counts
scheduling passes by generator ``__qualname__`` (so a loop moved into a
base class silently reads as zero passes).  These tests fail instead.
"""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.suite import layers  # noqa: E402

import repro.entk  # noqa: E402,F401  (loads every module a pass lives in)
import repro.rm  # noqa: E402,F401


def generator_qualnames() -> set:
    """``__qualname__`` of every generator function defined directly
    on a class of a loaded ``repro`` module."""
    found = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for fn in vars(cls).values():
                if inspect.isgeneratorfunction(fn):
                    found.add(fn.__qualname__)
    return found


@pytest.mark.parametrize(
    "spec", [spec for specs in layers.PROBES.values() for spec in specs]
)
def test_probe_resolves(spec):
    owner, attr, raw = layers._resolve(spec)
    assert callable(raw) or isinstance(raw, (classmethod, staticmethod))


@pytest.mark.parametrize(
    "qualname",
    [q for loops, units in layers._PASSES.values() for q in loops + units],
)
def test_pass_qualname_is_a_generator(qualname):
    assert qualname in generator_qualnames()
