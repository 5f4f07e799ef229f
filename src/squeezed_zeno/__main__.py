"""Process entry of the squeezed-zeno CLI: `python -m squeezed_zeno` and the console script."""

import gc
import os
import sys

from .cli import EXIT_IO, main


def run(argv=None) -> int:
    """Run one CLI command as the whole process and return its exit code.

    It sets two process policies that cli.main leaves alone, so that in-process callers of
    cli.main and library users keep numpy's own thread default and their collector.
    OPENBLAS_NUM_THREADS defaults to 1 before main, where numpy first loads: OpenBLAS reads
    the variable only then, the package's arrays are 2x2 and 3x3 (evolve's largest product
    is (n, 3) @ (3,)) and gain nothing from a second thread, and the process ends with its
    command without starting a child. A count the user set is kept. gc.freeze() then moves
    every tracked container into the permanent generation, which the collection at exit
    does not walk: roughly 20k where a table command imported numpy, which saves it about
    20 ms (intelligent loads no numpy). After an I/O error (exit 4), fd 1 points at
    os.devnull, as the Python docs advise for a broken pipe: the flush at exit then drops
    what a failed stdout still buffers instead of failing again, which would exit 120.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main(argv)
    if code == EXIT_IO and sys.stdout is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
