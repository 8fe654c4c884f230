"""Shared fixtures: small seeded corpora and a few hand-built grid functions."""

import numpy as np
import pytest

from ineqkit.gridfn import GridFunction, GridSpec, corpus_generate, sample_member

SEED = 20240817


@pytest.fixture(scope="session")
def grid1():
    return GridSpec.box(1, 8.0, 256)


@pytest.fixture(scope="session")
def grid2():
    return GridSpec.box(2, 4.0, 32)


def sampled_corpus(seed, count, grid):
    """The members of corpus_generate(seed, count, grid), each sampled on grid."""
    return [sample_member(fam, grid) for fam in corpus_generate(seed, count, grid)]


@pytest.fixture(scope="session")
def corpus1(grid1):
    return sampled_corpus(SEED, 10, grid1)


@pytest.fixture(scope="session")
def corpus2(grid2):
    return sampled_corpus(SEED, 6, grid2)


@pytest.fixture(scope="session")
def grid3():
    return GridSpec.box(3, 4.0, 16)


@pytest.fixture(scope="session")
def corpus3(grid3):
    return sampled_corpus(SEED, 4, grid3)


@pytest.fixture(scope="session")
def unit_indicator(grid1):
    # 16 cells of width 1/16: support measure exactly 1
    vals = np.zeros(grid1.shape)
    vals[100:116] = 1.0
    return GridFunction(grid1, vals)


def two_level_function(grid1):
    """8 cells at height 3 (measure 1/2) then 16 cells at height 1 (measure 1)."""
    vals = np.zeros(grid1.shape)
    vals[60:68] = 3.0
    vals[68:84] = 1.0
    return GridFunction(grid1, vals)
