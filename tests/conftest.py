import pytest

from rapidpsi import series


@pytest.fixture
def fresh_gamma_16():
    """Clear series._gamma_at_16's cache before and after the test, so a
    patched moment form or sum reaches the gamma that Re psi below 16 and
    gamma_at_integer at m <= 16 read, and no patched entry outlives it."""
    series._gamma_at_16.cache_clear()
    yield
    series._gamma_at_16.cache_clear()
