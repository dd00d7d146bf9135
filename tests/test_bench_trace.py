"""The benchmark's per-layer trace names still name the package's functions.

`bench/spans.py` wraps each traced function by module and name, so a
rename in the package would otherwise show only when the benchmark runs
with tracing on.  The file is read and executed here, never imported, so
no bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

import numpy as np

from soc_ising import SpinConfig, build_box

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_a_package_function():
    spans = _spans_module()
    assert spans.LAYERS
    for mod, fn in spans.LAYERS:
        home = importlib.import_module(f"{spans.PACKAGE}.{mod}")
        assert callable(getattr(home, fn, None)), f"{mod}.{fn}"


def test_sweep_site_counter_reads_the_box():
    # heat_bath_sweep's `sites` counter reads the two interior colour classes
    spans = _spans_module()
    for n in (1, 2, 5, 16):
        g = build_box(n)
        assert isinstance(g.interior_even, np.ndarray)
        assert isinstance(g.interior_odd, np.ndarray)
        assert spans._box_sites((SpinConfig.all_plus(g),), 0) == g.interior_ids.size
