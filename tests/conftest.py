import numpy as np
import pytest
from hypothesis import settings

# one profile for every property test: reproducible draws, no example
# database on disk, no per-example deadline
settings.register_profile("bunchent", derandomize=True, database=None, deadline=None)
settings.load_profile("bunchent")


@pytest.fixture
def rng() -> np.random.Generator:
    # fixed seed so every run sees the same random draws
    return np.random.default_rng(20260814)
