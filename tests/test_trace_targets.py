"""The benchmark's layer tracer must find every name it patches.

perfbench/tracing.py wraps horizon functions where their consumers look them
up and raises TraceError when one is missing, so renaming or re-binding a
traced function breaks the traced benchmark run.  Building the tracer here
makes that failure show in the test suite as well.
"""

import pathlib
import sys

import horizon

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_tracer_patches_and_restores_every_target():
    before = (horizon.cross_section, horizon.steering.solve_chart_coordinates)
    tracer = Tracer(horizon)
    try:
        assert horizon.cross_section is not before[0]
        assert horizon.cross_section is horizon.steering.cross_section
        assert horizon.steering.solve_chart_coordinates is not before[1]
    finally:
        tracer.close()
    assert (horizon.cross_section, horizon.steering.solve_chart_coordinates) == before
