"""Fixtures shared across the test suite."""

import numpy as np
import pytest

from oneshot_qcap.channels import KrausChannel, identity_channel
from oneshot_qcap.linalg import DensityOp, SystemLayout, maximally_mixed, tensor

from helpers import bell_density


@pytest.fixture
def eig_inputs(monkeypatch) -> list:
    """Every array handed to numpy's eigh or eigvalsh while the test runs."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def call(m, *args, _real=getattr(np.linalg, name), **kwargs):
            seen.append(np.array(m))
            return _real(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)
    return seen


@pytest.fixture
def id2() -> KrausChannel:
    return identity_channel(2, "A", "B")


@pytest.fixture
def bell() -> DensityOp:
    return bell_density("A", "B'")


@pytest.fixture
def tau_s() -> DensityOp:
    return maximally_mixed(SystemLayout([("S", 2)]))


@pytest.fixture
def gp_input(bell, tau_s) -> DensityOp:
    """[A, S, B'] input with the required psi_SB' product structure."""
    return tensor(bell, tau_s).permuted(["A", "S", "B'"])
