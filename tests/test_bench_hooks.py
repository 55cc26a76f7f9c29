"""The benchmark's tracer patches library names; dropping one fails here.

`perfbench/tracing.py` wraps backend methods and module functions by name.
Installing it, making one traced call each to `distance` and `moments`, and
uninstalling it checks that every name it wraps still exists.
"""

import importlib.util
import sys
from pathlib import Path

from projconvex import domain as dm, hilbert as hb, normalize as nm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave no cache file under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_tracer_installs_and_records():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        square = dm.square_domain()
        hb.distance(square, [0.1, 0.2], [-0.3, 0.4])
        nm.moments(square)
    finally:
        tracer.uninstall()
    assert tracer.names.count("hilbert.distance") == 1
    assert tracer.names.count("domain.moments") == 1
    metrics = tracing.layer_metrics(tracer, {})
    assert metrics["hilbert.distance.calls"] == (1, "count")
    assert metrics["domain.moments.calls"] == (1, "count")
    # uninstall restores the library
    assert dm.VPolyBackend.moments is dm._triangulated_moments
