import random

import pytest

from labparts.amalgam import TreeOfCosetSpaces, amalgam_space, naive_quotient_structures
from labparts.groups import z4_z6_amalgam


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(scope="session")
def z46():
    return z4_z6_amalgam()


@pytest.fixture(scope="session")
def z46_tree(z46):
    return TreeOfCosetSpaces(z46)


@pytest.fixture(scope="session")
def z46_spaces(z46_tree):
    """Amalgam spaces with naive quotient structures for q = 1 and q = 2."""
    out = {}
    for q in (1, 2):
        sgc, agc, shc, ahc = naive_quotient_structures(z46_tree, q)
        space, action = amalgam_space(z46_tree, sgc, agc, shc, ahc)
        out[q] = {"space": space, "action": action, "struct_gc": sgc, "struct_hc": shc}
    return out
