import pytest

from squeezed_zeno import cli


@pytest.fixture(scope="session", autouse=True)
def bound_cli():
    """cli's compute names, which main binds, bound before any test calls a cli entry.

    The entries that need them are STATES, the resolve_* functions and bath_from_config;
    the table writer lives in squeezed_zeno.table and needs none. evolve binds every
    public name, surface and intelligent only those that load no numpy.
    """
    cli._bind_compute("evolve")
