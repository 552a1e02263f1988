"""The benchmark's span tracer patches names of the program from outside.

``perfbench/spans.py`` lists every ``(owner, attribute)`` it wraps. A
refactor that renames or drops one of them breaks a traced benchmark run;
this check makes it fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The module, or the attribute of the longest importable module prefix, named ``dotted``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_wrapped_site_resolves():
    wrapped = load_spans().WRAPPED
    assert wrapped
    missing = [f"{owner}.{attr}" for owner, attr in wrapped
               if not callable(getattr(resolve(owner), attr, None))]
    assert not missing, f"the tracer wraps names the program no longer has: {missing}"
