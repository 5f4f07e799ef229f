"""Process entry of the squeezed-zeno CLI: `python -m squeezed_zeno` and the console script."""

import gc
import sys

from .cli import main


def run(argv=None) -> int:
    """Run one CLI command as the whole process and return its exit code.

    After the command, gc.freeze() moves every container the collector tracks,
    the roughly 20k that importing numpy and the package made among them, into
    the permanent generation. The collection at interpreter exit does not walk
    them again, which saves about 20 ms per process. The freeze comes after the
    command because numpy loads only when a command computes. cli.main itself
    does not freeze: callers that run it in-process keep their collector as it was.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
