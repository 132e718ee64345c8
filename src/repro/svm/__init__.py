"""From-scratch support-vector machinery — the LIBSVM 3.17 substitute.

The paper trains an ε-SVR with an RBF kernel using LIBSVM, selecting
hyper-parameters with the ``easygrid`` grid-search tool under 10-fold
cross-validation. This subpackage reimplements that tool-chain:

* :mod:`repro.svm.kernels` — RBF / linear / polynomial kernels;
* :mod:`repro.svm.scaling` — svm-scale-style feature scaling;
* :mod:`repro.svm.smo` — SMO optimizer for the ε-SVR dual;
* :mod:`repro.svm.svr` — the user-facing estimator;
* :mod:`repro.svm.ridge` — kernel ridge regression (ablation comparator);
* :mod:`repro.svm.cv` / :mod:`repro.svm.grid` — k-fold CV and grid search;
* :mod:`repro.svm.metrics` — regression metrics (MSE first, as the paper
  reports MSE throughout).
"""

from repro.svm.cv import KFold, cross_val_mse
from repro.svm.grid import GridSearchResult, GridTrial, grid_search_svr
from repro.svm.kernels import (
    GramCache,
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RbfKernel,
)
from repro.svm.metrics import mean_absolute_error, mean_squared_error, r2_score, rmse
from repro.svm.ridge import KernelRidge
from repro.svm.scaling import MinMaxScaler, StandardScaler
from repro.svm.smo import SmoResult, solve_svr_dual, solve_svr_dual_batch
from repro.svm.svr import EpsilonSVR

__all__ = [
    "EpsilonSVR",
    "GramCache",
    "GridSearchResult",
    "GridTrial",
    "KFold",
    "Kernel",
    "KernelRidge",
    "LinearKernel",
    "MinMaxScaler",
    "PolynomialKernel",
    "RbfKernel",
    "SmoResult",
    "StandardScaler",
    "cross_val_mse",
    "grid_search_svr",
    "mean_absolute_error",
    "mean_squared_error",
    "r2_score",
    "rmse",
    "solve_svr_dual",
    "solve_svr_dual_batch",
]
