"""The bench tracer binds facetor functions and methods by name.

bench/tracing.py wraps every target of its FUNCTIONS and METHODS tables
where the engine looks it up, so a name that src/ drops breaks the traced
bench smoke.  This test loads the tracer as it stands and fails in tier-1
instead, naming the coupling.
"""

import importlib.util
import pathlib

import pytest

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "bench" / "tracing.py")

COUPLING = ("the traced bench smoke wraps these names; keep them in src/ "
            "or change bench/tracing.py in the same change")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except (ImportError, AttributeError) as exc:
        pytest.fail("bench/tracing.py does not import: %s. %s"
                    % (exc, COUPLING))
    return module


def test_trace_targets_resolve():
    tracing = load_tracing()
    missing = ["%s -> %s.%s" % (span, module.__name__, attr)
               for span, module, attr in tracing.FUNCTIONS
               if not callable(getattr(module, attr, None))]
    # Methods are wrapped through the class dict, so they must be defined
    # on the class itself.
    missing += ["%s -> %s.%s" % (span, cls.__name__, attr)
                for span, cls, attr in tracing.METHODS
                if attr not in cls.__dict__]
    assert not missing, "unresolved trace targets %s: %s" % (missing,
                                                            COUPLING)
    assert "smith_normal_form" in tracing.ExactMatrix.__dict__, COUPLING
