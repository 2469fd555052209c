import numpy as np
import pytest

from holoqec import five_qubit_code
from holoqec import toric as tt


@pytest.fixture(scope="session")
def code5():
    return five_qubit_code()


@pytest.fixture(scope="session")
def lat2():
    return tt.TorusLattice(2)


@pytest.fixture(scope="session")
def lat3():
    return tt.TorusLattice(3)


@pytest.fixture(scope="session")
def toric2(lat2):
    return tt.build_code(lat2, tt.DefectConfig((), ()), separation=0)


@pytest.fixture(scope="session")
def toric3(lat3):
    return tt.build_code(lat3, tt.DefectConfig((), ()), separation=0)


@pytest.fixture(scope="session")
def toric3_two_primal(lat3):
    """Two primal defects, valid at separation 1 (max pair distance on L=3 is 2)."""
    return tt.build_code(lat3, tt.DefectConfig(((0, 0), (2, 2)), ()), separation=1)


@pytest.fixture(scope="session")
def toric3_two_dual(lat3):
    """Two dual defects on faces (0, 0) and (2, 2), valid at separation 1."""
    return tt.build_code(lat3, tt.DefectConfig((), ((0, 0), (2, 2))), separation=1)


@pytest.fixture(scope="session")
def toric3_braidable(lat3):
    """1 braiding primal + parked partner, 1 braided dual + parked partner.

    Separation 0: the full-braid rectangle walks the corners of the braided
    face, which the wrapped metric cannot keep at distance >= 1 on L = 3.
    """
    cfg = tt.DefectConfig(((0, 0), (0, 2)), ((1, 1), (2, 0)))
    return tt.build_code(lat3, cfg, separation=0)


@pytest.fixture(scope="session")
def toric3_swap(lat3):
    """Diagonal primal pair for half-braid swaps; duals parked off the routes."""
    cfg = tt.DefectConfig(((0, 0), (1, 1)), ((1, 2), (2, 1)))
    return tt.build_code(lat3, cfg, separation=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
