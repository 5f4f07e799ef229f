"""Process entry of the squeezed-zeno CLI: `python -m squeezed_zeno` and the console script."""

import gc
import sys

from .cli import main


def run(argv=None) -> int:
    """Run one CLI command as the whole process and return its exit code.

    gc.freeze() moves every container the collector tracks now, the roughly
    20k that importing numpy and the package made, into the permanent
    generation. No later collection, those at interpreter exit included, walks
    them again, which saves about 20 ms per process. cli.main itself does not
    freeze: callers that run it in-process keep their collector as it was.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
