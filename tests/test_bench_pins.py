"""The names the benchmark under perfbench/ reads from the package.

perfbench/ is run on the package as it stands, so removing one of these from
``src`` breaks the benchmark; these tests fail first.  They read perfbench/
and change nothing there.
"""

import importlib
import importlib.util
import os

from plectic import splitting, thicken

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_on_the_package():
    traced = _traced()
    assert traced
    for key, owner, attr, _ in traced:
        obj = importlib.import_module("plectic." + owner.split(".")[0])
        for part in owner.split(".")[1:]:
            obj = getattr(obj, part)
        assert callable(getattr(obj, attr, None)), key


def test_the_bench_reaches_the_row_function_and_tau(thickening4):
    assert thicken.contraction_matrix is splitting.contraction_matrix
    assert callable(splitting.kernel_at)
    assert thickening4.tau.pullback(thickening4.base.omega).chart == thickening4.big_chart
