"""The ``route`` fixture: run a test on one evaluation route, in-process."""

import pytest

from bitprobe import _clmul


@pytest.fixture
def route(request, monkeypatch):
    """The evaluation route named by the test's ``route`` parameter.
    "numpy" makes ``_clmul._lib`` give None for the test, as on a machine
    where the compiled loop cannot run; "compiled" skips where it is not
    loaded.  Parametrize through ``helpers.on_both_routes``."""
    if request.param == "numpy":
        monkeypatch.setattr(_clmul, "_lib", lambda: None)
    elif _clmul._lib() is None:
        pytest.skip("the compiled route is not loaded")
    return request.param
