import os
import random

import pytest

from vacmc import mc
from vacmc.kripke import load_fixture

SEED = int(os.environ.get("VACMC_SEED", "20250810"))


@pytest.fixture(autouse=True)
def empty_closure_cache():
    """Each test starts with no cached closure automaton, so that counts of
    closures built and refusals do not depend on the tests run before it."""
    mc._closure_cache.clear()


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def fx():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = load_fixture(name)
        return cache[name]

    return get
