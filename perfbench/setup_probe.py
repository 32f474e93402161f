"""Set-up of one benchmark process: import planarep (with numpy and scipy),
build the LieModels a workload uses and load the frozen calibration.

Run as a script it does exactly that in a fresh interpreter and exits;
``run.py`` times such runs to get ``setup_s``:

    python3 perfbench/setup_probe.py SU2 U3
"""

from __future__ import annotations

import sys
from pathlib import Path


def ready(groups) -> None:
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import planarep.cli  # noqa: F401  (imports every layer the CLI uses)
    from planarep.liegroup import get_model
    from planarep.symplectic import default_calibration

    for name in groups:
        get_model(name)
    default_calibration()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    ready(sys.argv[1:])
