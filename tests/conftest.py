import pytest

from cgobstruct import build_family, genus_lower_bound
from cgobstruct.casson_gordon import _cable_rows
from cgobstruct.obstruction import _isotropic_classes


@pytest.fixture(autouse=True)
def fresh_memos():
    # every test builds its own table rows and classes, so a patched builder
    # is always called and no test reads arrays another one built
    _cable_rows.cache_clear()
    _isotropic_classes.cache_clear()


@pytest.fixture(scope="session")
def flagship():
    return build_family(83, 103, 17, 11, 13)


@pytest.fixture(scope="session")
def flagship_report(flagship):
    # shared by non-timing tests; acceptance tests run their own scans
    return genus_lower_bound(flagship, g_max=2, threads=4)
