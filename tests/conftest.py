"""Load tworelay before any test module loads numpy.

`tworelay` asks numpy to leave out its AVX-512 loops only when numpy is not
yet loaded (see `tworelay/__init__.py`).  Imported here first, the suite runs
the path a fresh `tworelay` process runs.
"""

import tworelay  # noqa: F401
