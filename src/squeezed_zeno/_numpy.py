"""numpy, loaded with one OpenBLAS thread; every module of the package takes np from here.

bath and intelligent take it inside the functions that return arrays, so intelligent runs
without it. The package's arrays are 2x2 and 3x3, and its largest product, evolve's
(n, 3) @ (3,), takes as long on one thread as on two. OpenBLAS starts its worker threads
when numpy loads and reads OPENBLAS_NUM_THREADS only then, so numpy loads with one thread
unless the user chose a count, and the environment is left as it was for child processes.
If numpy was imported before this module, its thread count stays as it was.
"""

import os

if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
