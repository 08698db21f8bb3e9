"""Load tworelay before any test module loads numpy, and run gap grids on each driver.

`tworelay` asks numpy to leave out its AVX-512 loops only when numpy is not
yet loaded (see `tworelay/__init__.py`).  Imported here first, the suite runs
the path a fresh `tworelay` process runs.
"""

import pytest

import tworelay  # noqa: F401

#: `scaling._GAP_BLOCK` per driver of `certify_gaps`: past every grid of the suite, so a
#: grid runs on Python floats point by point, or 7 points, so that numpy tiles cut the
#: rows of every grid of more than 7 points (a smaller grid stays on floats).
GAP_DRIVERS = {"floats": 2**16, "tiles": 7}


@pytest.fixture(params=sorted(GAP_DRIVERS))
def gap_driver(request, monkeypatch):
    """The test's gap grids run on one driver of `certify_gaps`, named by the param."""
    from tworelay import scaling
    monkeypatch.setattr(scaling, "_GAP_BLOCK", GAP_DRIVERS[request.param])
    return request.param
