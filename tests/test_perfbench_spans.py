"""Guard of the benchmark's span tracer, ``perfbench/spans.py``: it
rebinds some package names by module, class and attribute, so moving or
renaming one of them would otherwise fail only in a traced benchmark
run.  The tracer is loaded from its path, installed and always
uninstalled again."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from semdde.piecewise import Mesh, sample_periodic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(layer, owner, attr):
    """What the package binds to ``attr`` of the module or its class."""
    module = importlib.import_module("semdde." + layer)
    if owner is None:
        return vars(module)[attr]
    return vars(getattr(module, owner))[attr]


def test_the_tracer_rebinds_and_restores_its_named_targets():
    spans = _load_spans()
    places = [place for group in spans._EXTRA_TARGETS.values()
              for place in group]
    originals = [_bound(*place) for place in places]
    poly = sample_periodic(lambda t: np.sin(2 * np.pi * t), Mesh.uniform(3),
                           4)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for place, original in zip(places, originals):
            assert _bound(*place) is not original, place
        with tracer.op("guard", 0):
            poly.eval(0.3)
    finally:
        tracer.uninstall()
    for place, original in zip(places, originals):
        assert _bound(*place) is original, place
    names = [span.name for span in tracer.spans]
    assert names[0] == "bench.guard"
    assert names.count("piecewise.eval") == 1
