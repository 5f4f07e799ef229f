import pytest

from squeezed_zeno import cli


@pytest.fixture(scope="session", autouse=True)
def bound_cli():
    """cli's compute names, which main binds, bound before any test calls a cli entry.

    evolve and zeno bind every name, surface and intelligent only those that load no numpy.
    """
    cli._bind_compute("evolve")
