import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qaction import ActionSpec, Grid, PolynomialPotential


@pytest.fixture(autouse=True, scope="session")
def loop_cache(tmp_path_factory):
    """The compiled step loops of the test run, and of the CLI processes it
    spawns, are kept in a cache of its own, never in the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def ho():
    """Harmonic oscillator, m = omega = hbar = 1."""
    return ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(2,): 0.5}), hbar=1.0)


@pytest.fixture
def quartic():
    """Pure quartic V = x^4."""
    return ActionSpec(mass=1.0, potential=PolynomialPotential(1, {(4,): 1.0}), hbar=1.0)


@pytest.fixture
def coupled_2d():
    """The coupled 2-D oscillator V = (x^2 + y^2)/2 + 0.05 x^2 y^2."""
    pot = PolynomialPotential(2, {(2, 0): 0.5, (0, 2): 0.5, (2, 2): 0.05})
    return ActionSpec(mass=1.0, potential=pot, hbar=1.0)


@pytest.fixture
def ho_grid():
    return Grid((8.0,), (1601,))
