"""Run the burgerslab command line and report when its import finished.

    python3 perfbench/launch.py <burgerslab CLI arguments>
    python3 perfbench/launch.py --probe

As soon as ``burgerslab.cli`` is imported this writes one line
``perfbench-imported <time.monotonic()>`` to stderr, so the parent can split
the process's wall time into set-up (interpreter start to import) and work.
It then runs ``burgerslab.cli.main`` on its arguments, as
``python -m burgerslab.cli`` does.  With ``--probe`` it prints the run's
provenance as one JSON line instead and exits 0.
"""

import json
import os
import sys
import time

import burgerslab.cli

IMPORTED = time.monotonic()


def provenance() -> dict:
    """Everything a timing depends on besides the source itself."""
    import platform

    import numpy
    import scipy

    from burgerslab import __version__
    from burgerslab.envelopes import envelope_backend

    return {"package_file": burgerslab.__file__,
            "tool_version": __version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "envelope_backend": envelope_backend(),
            "BURGERSLAB_PURE_PYTHON": os.environ.get("BURGERSLAB_PURE_PYTHON"),
            "BURGERSLAB_WORKERS": os.environ.get("BURGERSLAB_WORKERS"),
            "blas_env": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_THREADS")},
            "nproc": os.cpu_count(),
            "machine": platform.machine()}


if __name__ == "__main__":
    sys.stderr.write(f"perfbench-imported {IMPORTED!r}\n")
    sys.stderr.flush()
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(provenance(), sort_keys=True))
        sys.exit(0)
    sys.exit(burgerslab.cli.main(sys.argv[1:]))
