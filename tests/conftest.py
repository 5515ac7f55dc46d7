import pytest

from clustercomb import counting


@pytest.fixture(autouse=True)
def _cold_class_cache():
    # every test starts with no cached class, so what a spy on the class
    # generator sees, and what a guard test reads from the cache, does not
    # depend on the tests that ran before it
    counting._standard_class.cache_clear()
