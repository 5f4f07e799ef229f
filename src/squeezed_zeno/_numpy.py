"""numpy, loaded with one OpenBLAS thread; pauli, dynamics, zeno and table take np from here.

bath, errors and intelligent (_NUMPY_FREE) import neither it nor numpy, so intelligent runs
without numpy. The package's arrays are 2x2 and 3x3, and its largest product, evolve's
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
