"""U-statistics of order two and their empirical Hoeffding decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, KendallKernel, check_data
from .matstat import unvech

__all__ = [
    "SCALINGS",
    "RESTRICTIONS",
    "UStatResult",
    "EmpiricalHoeffding",
    "compute_u",
    "kendall_tau_matrix",
    "check_maximum",
    "entry_max",
    "sup_stat",
    "population_g_covariance",
    "population_f_covariance",
]

# Which centred maximum a statistic (and the bootstrap draws of its law) takes:
# ``raw`` is the signed max times sqrt(n)/2 (the Gaussian-approximation
# scale), ``applications`` the plain max |.| of the statistical applications;
# ``offdiag`` drops the diagonal entries.
SCALINGS = ("raw", "applications")
RESTRICTIONS = ("all", "offdiag")


@dataclass(frozen=True, eq=False)
class UStatResult:
    """U-statistic value together with the sample size."""

    u: np.ndarray
    n: int


def compute_u(data: np.ndarray, kernel: Kernel) -> UStatResult:
    """Average of the kernel over all C(n,2) unordered pairs."""
    data = check_data(data)
    return UStatResult(u=kernel.u_stat(data), n=data.shape[0])


def kendall_tau_matrix(data: np.ndarray) -> np.ndarray:
    """Kendall's tau-a rank correlation matrix: the sign-product kernel
    U-statistic shifted down by 1, C(n,2)^{-1} sum over i<j of s_ij s_ij^T
    with s_ij = sign(X_i - X_j); entries in [-1, 1].  A pair tied in either
    coordinate adds 0, so the diagonal is the share of untied pairs."""
    data = check_data(data)
    return KendallKernel().u_stat(data) - 1.0


def check_maximum(scaling: str, restriction: str, p: int) -> None:
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    if restriction not in RESTRICTIONS:
        raise ValueError(
            f"restriction must be one of {RESTRICTIONS}, got {restriction!r}"
        )
    if restriction == "offdiag" and p < 2:
        raise ValueError("the off-diagonal maximum needs p >= 2")


def entry_max(
    rows: np.ndarray, diag: np.ndarray | slice, scaling: str, restriction: str
) -> np.ndarray:
    """Each row's maximum over its entries: signed at the ``raw`` scaling,
    of |.| at the ``applications`` scaling.  Under ``offdiag`` the diagonal
    columns, which the index ``diag`` selects, are first overwritten in
    place with a value that cannot win (-inf for the signed max, 0 for
    max |.|)."""
    if restriction == "offdiag":
        rows[:, diag] = -np.inf if scaling == "raw" else 0.0
    if scaling == "raw":
        return rows.max(axis=1)
    # max |.| per row without an |.| temporary
    return np.maximum(rows.max(axis=1), -rows.min(axis=1))


def sup_stat(
    u: UStatResult,
    target: np.ndarray,
    scaling: str = "applications",
    restriction: str = "all",
) -> float:
    """Centred maximum of a U-statistic: sqrt(n) * max(U - target) / 2 at the
    ``raw`` scaling, max |U - target| at the ``applications`` scaling, over
    every entry or (``offdiag``) the off-diagonal ones."""
    target = np.asarray(target)
    if u.u.shape != target.shape:
        raise ValueError(f"shape mismatch: {u.u.shape} vs {target.shape}")
    p = target.shape[0]
    check_maximum(scaling, restriction, p)
    if not (np.isfinite(target).all() and np.isfinite(u.u).all()):
        raise ValueError("U and the target must be finite")
    # every (p+1)-th entry of the raveled p x p difference is diagonal
    diff = (u.u - target).reshape(1, -1)
    value = entry_max(diff, slice(None, None, p + 1), scaling, restriction)[0]
    if scaling == "raw":
        value *= np.sqrt(u.n) / 2.0
    return float(value)


class EmpiricalHoeffding:
    """Plug-in Hoeffding decomposition of a kernel on a fixed sample.

    With hhat1(x_i) = (n-1)^{-1} sum_{j != i} h(x_i, x_j) and hbar = U:

    * ``g_hat[i]``   = hhat1(x_i) - hbar,
    * ``f_hat(i,j)`` = h(x_i, x_j) - hhat1(x_i) - hhat1(x_j) + hbar,

    so h = f_hat + g_hat[i] + g_hat[j] + hbar holds exactly for every pair.
    """

    def __init__(self, data: np.ndarray, kernel: Kernel):
        data = check_data(data, min_rows=3)
        self.data = data
        self.kernel = kernel
        self.n = n = data.shape[0]
        p = data.shape[1]
        # row means of the pairwise kernel; reuse cross_mean and remove the
        # diagonal term h(x_i, x_i)
        cross = unvech(kernel.cross_mean(data, data), p)  # includes j == i
        diag = np.stack([kernel(x, x) for x in data])
        self._h1 = (cross * n - diag) / (n - 1)
        # U equals the mean of the row means hhat1
        self.h_bar = self._h1.mean(axis=0)
        self.g_hat = self._h1 - self.h_bar
        self.p = p

    def f_hat(self, i: int, j: int) -> np.ndarray:
        """Empirical canonical part for the pair (i, j)."""
        h = self.kernel(self.data[i], self.data[j])
        return h - self._h1[i] - self._h1[j] + self.h_bar


def population_g_covariance(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Exact Hajek projection g(x) = (x x^T - Sigma) / 2 of the covariance
    kernel for mean-zero data with known covariance."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if x.shape[0] != sigma.shape[0]:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {sigma.shape[0]}")
    return (np.outer(x, x) - sigma) / 2.0


def population_f_covariance(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Exact canonical part f(x1, x2) = -(x1 x2^T + x2 x1^T) / 2 of the
    covariance kernel for mean-zero data (independent of Sigma)."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return -(np.outer(x1, x2) + np.outer(x2, x1)) / 2.0
