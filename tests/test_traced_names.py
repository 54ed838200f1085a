"""Names the benchmark's layer tracer (``bench/tracer.py``) reads.

The tracer reports ``calls = 0`` for a function that no longer exists, so a
rename or a dropped parameter would silently blind a per-layer metric.
"""

import inspect

from filamentlab import integrators, nls, spiral


def test_traced_functions_and_parameters_exist():
    for mod, name in ((integrators, "propagate_frame"), (integrators, "rodrigues_phi1"),
                      (nls, "evolve"), (spiral, "spiral_profile")):
        assert inspect.isfunction(getattr(mod, name, None)), f"{mod.__name__}.{name}"
    assert "out_every" in inspect.signature(integrators.propagate_frame).parameters
    assert "n_steps" in inspect.signature(nls.evolve).parameters
