import pytest

from cgobstruct import build_family, genus_lower_bound
from cgobstruct.kernels import _cable_rows
from cgobstruct.obstruction import _scan_part

try:  # `pytest --hypothesis-profile=deep`: the property tests at 2,000 examples each
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("deep", max_examples=2000)


@pytest.fixture(autouse=True)
def fresh_memos():
    # every test builds its own table rows and prime scans, so a patched
    # builder is always called and no test reads a result another one built
    _cable_rows.cache_clear()
    _scan_part.cache_clear()


@pytest.fixture(scope="session")
def flagship():
    return build_family(83, 103, 17, 11, 13)


@pytest.fixture(scope="session")
def flagship_report(flagship):
    # shared by non-timing tests; acceptance tests run their own scans
    return genus_lower_bound(flagship, g_max=2, threads=4)
