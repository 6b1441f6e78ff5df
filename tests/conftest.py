"""Fixtures shared by more than one test module."""

import pytest

from confmix.theory import SimplexGrid


@pytest.fixture(scope="module")
def grid2():
    return SimplexGrid.build(2, 2000)


@pytest.fixture(scope="module")
def grid3():
    return SimplexGrid.build(3, 300)
