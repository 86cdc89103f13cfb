"""Dataclasses holding arrays compare by identity, so ``==`` is a bool."""

import numpy as np
import pytest

from ustatboot.bootstrap import BootstrapDraws, DecoupledGEstimates
from ustatboot.distributions import contaminated_normal
from ustatboot.estimators import LinFunSolution
from ustatboot.inference import TestResult
from ustatboot.lp import LpProblem, solve_lp
from ustatboot.ustat import UStatResult


def _problem():
    return LpProblem(c=np.ones(2), a_ub=np.eye(2), b_ub=np.ones(2))


_MAKERS = {
    "EllipticalModel": lambda: contaminated_normal(np.eye(2), 0.1, 3.0),
    "LpProblem": _problem,
    "LpSolution": lambda: solve_lp(_problem()),
    "UStatResult": lambda: UStatResult(u=np.eye(2), n=4),
    "DecoupledGEstimates": lambda: DecoupledGEstimates(
        g_hat=np.zeros((4, 3)), train_u=np.zeros((2, 2))
    ),
    "BootstrapDraws": lambda: BootstrapDraws(np.zeros(3), "raw", "all"),
    "TestResult": lambda: TestResult(
        0.0, BootstrapDraws(np.zeros(3), "applications", "offdiag")
    ),
    "LinFunSolution": lambda: LinFunSolution(
        theta=np.zeros(2), lam=0.5, l1=0.0, feasible=True
    ),
}


@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_eq_is_a_bool(name):
    a, b = _MAKERS[name](), _MAKERS[name]()
    assert type(a).__name__ == name
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True
