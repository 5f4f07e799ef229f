"""What produced a result: interpreter, library versions, cores and thread settings.

Run as a script with the children's environment, it prints the same record
for the child interpreters as JSON; it also imports the package once, which
compiles its bytecode before any timing starts.
"""

import json
import os
import platform
import sys

# Variables that set the thread count of BLAS and OpenMP runtimes.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def collect() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


if __name__ == "__main__":
    import squeezed_zeno

    record = collect()
    record["squeezed_zeno"] = squeezed_zeno.__version__
    print(json.dumps(record))
