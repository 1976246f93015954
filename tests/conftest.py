import numpy as np
import pytest
from hypothesis import strategies as st

from weylseq import Group, WeylSystem


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def ws2():
    return WeylSystem(Group((2,)))


@pytest.fixture(scope="session")
def ws3():
    return WeylSystem(Group((3,)))


@pytest.fixture(scope="session")
def ws23():
    return WeylSystem(Group((2, 3)))


SMALL_MODULI = [(2,), (3,), (4,), (2, 2), (5,), (2, 3)]

# Groups of rank 1 to 3 and order at most 12.
GROUPS_UP_TO_12 = st.lists(st.integers(2, 12), min_size=1, max_size=3).filter(
    lambda m: np.prod(m) <= 12).map(tuple)
