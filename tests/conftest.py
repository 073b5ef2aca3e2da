import hypothesis
import numpy as np
import pytest

from rydberg_doa import scenarios
from rydberg_doa.physics import AtomicParams
from rydberg_doa.sensing import SensorGeometry

import hypothesis_profiles  # noqa: F401  (registers tier1 and explore)

# Loaded before pytest's --hypothesis-profile option is read, so that
# option still selects another profile.
hypothesis.settings.load_profile("tier1")


@pytest.fixture(scope="session")
def params():
    return AtomicParams()


@pytest.fixture(scope="session")
def two_target():
    # configs/default.json's scene: targets at -30 and 45 deg, LO ratio 20
    return scenarios.scene_from_angles((-30.0, 45.0))


@pytest.fixture(scope="session")
def rf_wavelength(two_target):
    return two_target.rf_wavelength


@pytest.fixture(scope="session")
def geometry(rf_wavelength):
    # quarter-wave windows on a quarter-wave pitch over a 4-wavelength cell
    lam = rf_wavelength
    return SensorGeometry(4 * lam, lam / 4, lam / 4)


@pytest.fixture(autouse=True)
def quiet_lo_warning():
    # tests probe the weak-LO regime on purpose
    import warnings

    from rydberg_doa.errors import LoDominanceWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LoDominanceWarning)
        yield
