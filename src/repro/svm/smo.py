"""Sequential Minimal Optimization for the ε-SVR dual.

Solves LIBSVM's ε-SVR formulation. With ``β_i = α_i − α*_i`` the dual is

    min_β  ½ βᵀKβ − yᵀβ + ε·Σ|β_i|
    s.t.   Σβ_i = 0,   −C ≤ β_i ≤ C

which we optimize in the standard 2n-variable form ``a = [α; α*]``,
``a_p ∈ [0, C]`` with constraint coefficients ``z_p = +1`` for the first
half and ``−1`` for the second. The solver keeps ``u = Kβ`` incrementally
updated, selects the maximal violating pair each iteration (LIBSVM's
working-set selection 1), solves the two-variable subproblem analytically
and clips to the box. Convergence is declared when the KKT violation gap
``m(a) − M(a)`` drops below ``tol``.

Every solve starts cold from ``β = 0``. :func:`solve_svr_dual_batch`
advances many independent problems in lockstep, each bit-identical to
solving it alone with :func:`solve_svr_dual`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError


@dataclass
class SmoResult:
    """Solution of the ε-SVR dual.

    Attributes
    ----------
    beta:
        Dual coefficient differences ``α − α*`` per training point.
    bias:
        Intercept ``b`` of the decision function.
    iterations:
        SMO iterations performed.
    kkt_gap:
        Final maximal-violating-pair gap (≤ tol on clean convergence).
    converged:
        Whether the gap criterion was met within the iteration budget.
    """

    beta: np.ndarray
    bias: float
    iterations: int
    kkt_gap: float
    converged: bool

    @property
    def support_mask(self) -> np.ndarray:
        """Boolean mask of support vectors (|β| > 0)."""
        return np.abs(self.beta) > 1e-12

    @property
    def n_support(self) -> int:
        """Number of support vectors."""
        return int(np.count_nonzero(self.support_mask))


def solve_svr_dual(
    kernel_matrix: np.ndarray,
    y: np.ndarray,
    c: float,
    epsilon: float,
    tol: float = 1e-3,
    max_iter: int = 200_000,
    on_no_convergence: str = "warn",
) -> SmoResult:
    """Run SMO on a precomputed Gram matrix.

    Parameters
    ----------
    kernel_matrix:
        Symmetric PSD Gram matrix of the training points, shape (n, n).
    y:
        Regression targets, shape (n,).
    c:
        Box constraint (LIBSVM's ``-c``).
    epsilon:
        Width of the ε-insensitive tube (LIBSVM's ``-p``).
    tol:
        KKT gap tolerance (LIBSVM's ``-e``, default 1e-3).
    max_iter:
        Iteration budget (>= 1).
    on_no_convergence:
        ``"warn"`` (default), ``"raise"`` or ``"ignore"`` when the budget
        is exhausted before the gap criterion is met.
    """
    k = np.asarray(kernel_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if k.shape != (n, n):
        raise ConfigurationError(
            f"kernel matrix shape {k.shape} does not match {n} targets"
        )
    if c <= 0:
        raise ConfigurationError(f"C must be > 0, got {c}")
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if on_no_convergence not in ("warn", "raise", "ignore"):
        raise ConfigurationError(
            f"on_no_convergence must be 'warn', 'raise' or 'ignore', "
            f"got {on_no_convergence!r}"
        )
    if n == 0:
        return SmoResult(
            beta=np.zeros(0), bias=0.0, iterations=0, kkt_gap=0.0, converged=True
        )

    alpha_plus = np.zeros(n)
    alpha_minus = np.zeros(n)
    u = np.zeros(n)  # u = K @ beta, maintained incrementally

    iterations, gap, converged = _smo_loop(
        k, y, c, epsilon, tol, max_iter, alpha_plus, alpha_minus, u,
        iterations=0,
    )

    if not converged:
        message = (
            f"SMO did not converge after {iterations} iterations "
            f"(KKT gap {gap:.3g} > tol {tol:g})"
        )
        if on_no_convergence == "raise":
            raise ConvergenceError(message)
        if on_no_convergence == "warn":
            warnings.warn(message, RuntimeWarning, stacklevel=2)

    beta = alpha_plus - alpha_minus
    bias = _compute_bias(alpha_plus, alpha_minus, y, u, c, epsilon)
    return SmoResult(
        beta=beta,
        bias=bias,
        iterations=iterations,
        kkt_gap=float(gap),
        converged=converged,
    )


def _smo_loop(
    k: np.ndarray,
    y: np.ndarray,
    c: float,
    epsilon: float,
    tol: float,
    max_iter: int,
    alpha_plus: np.ndarray,
    alpha_minus: np.ndarray,
    u: np.ndarray,
    iterations: int,
) -> "tuple[int, float, bool]":
    """The scalar SMO iteration, continuing from the supplied state.

    Mutates ``alpha_plus``/``alpha_minus``/``u`` in place; returns
    ``(iterations, gap, converged)``. Shared by :func:`solve_svr_dual`
    (which starts it from zeros) and by the batched
    solver's straggler hand-off: once a lockstep batch has thinned to a
    last slow problem or two, finishing them here costs a scalar
    iteration per step instead of a full batch round. The hand-off is
    bit-exact because the batch maintains precisely this state.
    """
    diag = np.diag(k).copy()
    neg_inf = -np.inf
    gap = np.inf
    converged = False
    while iterations < max_iter:
        residual = y - u
        score_plus = residual - epsilon  # −z_p ∇_p for the α half
        score_minus = residual + epsilon  # −z_p ∇_p for the α* half

        up_plus = np.where(alpha_plus < c, score_plus, neg_inf)
        up_minus = np.where(alpha_minus > 0, score_minus, neg_inf)
        low_plus = np.where(alpha_plus > 0, score_plus, np.inf)
        low_minus = np.where(alpha_minus < c, score_minus, np.inf)

        i_plus = int(np.argmax(up_plus))
        i_minus = int(np.argmax(up_minus))
        if up_plus[i_plus] >= up_minus[i_minus]:
            i, z_i, m_val = i_plus, 1.0, up_plus[i_plus]
        else:
            i, z_i, m_val = i_minus, -1.0, up_minus[i_minus]

        big_m_val = min(float(np.min(low_plus)), float(np.min(low_minus)))
        gap = m_val - big_m_val
        if not np.isfinite(gap):
            # One of the index sets is empty: every variable is at the same
            # bound — the problem is solved (degenerate but feasible).
            gap = 0.0
            converged = True
            break
        if gap <= tol:
            converged = True
            break

        # Second-order working-set selection (LIBSVM WSS2): among the low
        # set entries that violate against i, pick the one maximizing the
        # guaranteed decrease diff²/η. Curvature along the feasible
        # direction v = z_i·e_i − z_j·e_j is K_ii + K_jj − 2K_ij in *data*
        # indices; degenerate pairs are guarded by a small floor.
        k_row = k[i]
        eta_all = np.maximum(diag[i] + diag - 2.0 * k_row, 1e-12)
        diff_plus = m_val - low_plus
        diff_minus = m_val - low_minus
        obj_plus = np.where(diff_plus > 0, diff_plus * diff_plus / eta_all, neg_inf)
        obj_minus = np.where(diff_minus > 0, diff_minus * diff_minus / eta_all, neg_inf)
        j_plus = int(np.argmax(obj_plus))
        j_minus = int(np.argmax(obj_minus))
        if obj_plus[j_plus] >= obj_minus[j_minus]:
            j, z_j, j_score = j_plus, 1.0, low_plus[j_plus]
        else:
            j, z_j, j_score = j_minus, -1.0, low_minus[j_minus]

        eta = float(eta_all[j])
        t = (m_val - j_score) / eta  # −∇f·v / η along the chosen pair

        # Box limits for a_i moving by +z_i·t and a_j by −z_j·t.
        if z_i > 0:
            t_hi_i = c - alpha_plus[i]
            t_lo_i = -alpha_plus[i]
        else:
            t_hi_i = alpha_minus[i]
            t_lo_i = alpha_minus[i] - c
        if z_j > 0:
            t_hi_j = alpha_plus[j]
            t_lo_j = alpha_plus[j] - c
        else:
            t_hi_j = c - alpha_minus[j]
            t_lo_j = -alpha_minus[j]
        t = min(t, t_hi_i, t_hi_j)
        t = max(t, t_lo_i, t_lo_j, 0.0)
        if t <= 0.0:
            # Numerically stuck pair: the chosen direction allows no
            # feasible progress (can happen at gap ≈ tol). Stop rather
            # than spinning, and report convergence iff the remaining gap
            # is within a small multiple of tol; a large residual gap must
            # surface as non-convergence to the caller.
            converged = gap <= 10.0 * tol
            break

        if z_i > 0:
            alpha_plus[i] += t
        else:
            alpha_minus[i] -= t
        if z_j > 0:
            alpha_plus[j] -= t
        else:
            alpha_minus[j] += t
        # β changes by +t at data index i and −t at data index j.
        u += t * (k[:, i] - k[:, j])
        iterations += 1

    return iterations, gap, converged


#: Batch rows at or below this width finish on the scalar loop instead.
#: A lockstep step costs ~6–10 scalar iterations in NumPy dispatch
#: overhead, so the batch only pays off while enough problems share it;
#: below this width the stragglers finish faster one at a time.
_HANDOFF_WIDTH = 8


def solve_svr_dual_batch(
    kernel_matrices: "list[np.ndarray]",
    targets: "list[np.ndarray]",
    c: "float | list[float] | np.ndarray",
    epsilon: "float | list[float] | np.ndarray",
    tol: float = 1e-3,
    max_iter: int = 200_000,
    on_no_convergence: str = "warn",
) -> "list[SmoResult]":
    """Solve many independent ε-SVR duals in lockstep.

    Cross-validation folds and per-server-class refits are many small,
    *independent* SMO problems that share (C, ε). Solved one at a time,
    each SMO iteration costs ~20 NumPy dispatches on tiny arrays — pure
    interpreter overhead. This routine stacks the problems as rows of
    (B, m) arrays (ragged sizes are padded with inert columns) and runs
    the working-set selection, subproblem solve and ``u`` update for all
    *active* problems per step, so a 10-fold CV point costs roughly the
    *longest* fold's iterations rather than the sum.

    Every per-problem operation is elementwise, a row-wise argmax, or an
    exact min — none of them re-associate floating-point sums — so each
    problem's iterate trajectory is **bit-identical** to running
    :func:`solve_svr_dual` on it alone (enforced by
    ``tests/svm/test_smo_batch.py``). Problems that converge, get stuck,
    or exhaust the budget drop out of the lockstep individually; the
    surviving rows are periodically compacted so one straggler does not
    pay the whole batch's width.

    Parameters mirror :func:`solve_svr_dual`; ``c`` and ``epsilon`` may
    be per-problem sequences (a grid search batches *every*
    (C, γ, ε, fold) problem of the whole grid together). Returns one
    :class:`SmoResult` per input problem, in order.
    """
    n_problems = len(kernel_matrices)
    if len(targets) != n_problems:
        raise ConfigurationError(
            f"{n_problems} kernel matrices but {len(targets)} target vectors"
        )
    cs = np.asarray(c, dtype=float)
    if cs.ndim == 0:
        cs = np.full(n_problems, float(cs))
    elif cs.shape != (n_problems,):
        raise ConfigurationError(
            f"{n_problems} kernel matrices but C has shape {cs.shape}"
        )
    if np.any(cs <= 0):
        raise ConfigurationError(f"C must be > 0, got {c}")
    epsilons = np.asarray(epsilon, dtype=float)
    if epsilons.ndim == 0:
        epsilons = np.full(n_problems, float(epsilons))
    elif epsilons.shape != (n_problems,):
        raise ConfigurationError(
            f"{n_problems} kernel matrices but epsilon has shape "
            f"{epsilons.shape}"
        )
    if np.any(epsilons < 0):
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if on_no_convergence not in ("warn", "raise", "ignore"):
        raise ConfigurationError(
            f"on_no_convergence must be 'warn', 'raise' or 'ignore', "
            f"got {on_no_convergence!r}"
        )
    kernels = [np.asarray(k, dtype=float) for k in kernel_matrices]
    ys = [np.asarray(y, dtype=float) for y in targets]
    sizes = []
    for b, (k, y) in enumerate(zip(kernels, ys)):
        n = y.shape[0]
        if k.shape != (n, n):
            raise ConfigurationError(
                f"problem {b}: kernel matrix shape {k.shape} does not match "
                f"{n} targets"
            )
        sizes.append(n)
    if n_problems == 0:
        return []

    m = max(sizes)
    if m == 0:
        return [
            SmoResult(
                beta=np.zeros(0), bias=0.0, iterations=0, kkt_gap=0.0,
                converged=True,
            )
            for _ in range(n_problems)
        ]

    big_k = np.zeros((n_problems, m, m))
    big_y = np.zeros((n_problems, m))
    valid = np.zeros((n_problems, m), dtype=bool)
    for b, (k, y, n) in enumerate(zip(kernels, ys, sizes)):
        big_k[b, :n, :n] = k
        big_y[b, :n] = y
        valid[b, :n] = True
    alpha_plus = np.zeros((n_problems, m))
    alpha_minus = np.zeros((n_problems, m))
    u = np.zeros((n_problems, m))
    diag = np.ascontiguousarray(
        big_k[:, np.arange(m), np.arange(m)]
    )
    diag[~valid] = 1.0  # keeps padded η positive; padded pairs are never picked
    eps_col = epsilons[:, None].copy()  # (B, 1), broadcast per problem
    c_row = cs.copy()                   # (B,), per-problem box constraint
    c_col = c_row[:, None]
    neg_inf = -np.inf

    # Per-problem outcome state, indexed by original problem id.
    final_iters = np.zeros(n_problems, dtype=np.int64)
    final_gaps = np.full(n_problems, np.inf)
    final_conv = np.zeros(n_problems, dtype=bool)
    # Final (α, α*, u) per finished problem; populated when a row is
    # compacted out of the batch and for every row left at loop exit.
    state: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]" = {}
    # `live` maps current batch rows to original problem ids; rows are
    # compacted away as problems finish.
    live = np.arange(n_problems)

    # Bound-set masks, maintained incrementally: each step touches two
    # dual variables per row, so recomputing four (B, m) comparisons per
    # step would be the single largest cost of the loop.
    can_up_p = valid & (alpha_plus < c_col)
    can_up_m = alpha_minus > 0
    can_lo_p = alpha_plus > 0
    can_lo_m = valid & (alpha_minus < c_col)

    # Per-row bookkeeping aligned with `live` (synced into the final_*
    # arrays when rows leave the batch), avoiding per-step fancy writes
    # into the problem-indexed arrays.
    iters_live = np.zeros(n_problems, dtype=np.int64)
    gaps_live = np.full(n_problems, np.inf)

    def _sync(row_mask: np.ndarray) -> None:
        final_iters[live[row_mask]] = iters_live[row_mask]
        final_gaps[live[row_mask]] = gaps_live[row_mask]

    def _compact(finished: np.ndarray) -> bool:
        """Drop finished rows once a quarter of the batch has finished
        (i.e. at most three quarters survive); stash their state.

        Finished rows are frozen (their updates are masked to zero), so
        compaction is purely a width optimization — one straggler fold
        should not drag the whole batch's row count along. Returns
        whether a compaction happened.
        """
        nonlocal live, big_k, big_y, valid, alpha_plus, alpha_minus, u, diag
        nonlocal eps_col, c_row, c_col, can_up_p, can_up_m, can_lo_p, can_lo_m
        nonlocal iters_live, gaps_live
        keep = ~finished
        if keep.sum() > (3 * live.shape[0]) // 4:
            return False
        for row in np.flatnonzero(finished):
            state[int(live[row])] = (
                alpha_plus[row].copy(), alpha_minus[row].copy(), u[row].copy()
            )
        _sync(finished)
        live = live[keep]
        big_k = np.ascontiguousarray(big_k[keep])
        big_y = big_y[keep]
        valid = valid[keep]
        alpha_plus = alpha_plus[keep]
        alpha_minus = alpha_minus[keep]
        u = u[keep]
        diag = diag[keep]
        eps_col = eps_col[keep]
        c_row = c_row[keep]
        c_col = c_row[:, None]
        can_up_p = can_up_p[keep]
        can_up_m = can_up_m[keep]
        can_lo_p = can_lo_p[keep]
        can_lo_m = can_lo_m[keep]
        iters_live = iters_live[keep]
        gaps_live = gaps_live[keep]
        return True

    # Zero-size problems are solved by construction (the scalar solver
    # returns the trivial result); keep them out of the lockstep so the
    # straggler hand-off never sees an empty problem.
    active = np.array([n > 0 for n in sizes], dtype=bool)  # aligned with `live`
    if not active.all():
        final_conv[~active] = True
        final_gaps[~active] = 0.0
        gaps_live[~active] = 0.0
    rows = np.arange(n_problems)

    # One errstate for the whole loop: rows that finished mid-round keep
    # flowing through the vectorized expressions with ±inf sentinels,
    # whose arithmetic (inf − inf → nan) is discarded but would warn.
    with np.errstate(invalid="ignore"):
        while live.shape[0] and active.any():
            # Budget check first, exactly like the scalar `while iterations
            # < max_iter` guard: an exhausted problem keeps the gap
            # computed at the start of its *last executed* step.
            exhausted = active & (iters_live >= max_iter)
            if exhausted.any():
                active &= ~exhausted
                if not active.any():
                    break

            # Straggler hand-off: finish the last problem or two on the
            # scalar loop (bit-exact — it continues from the same state).
            if int(active.sum()) <= _HANDOFF_WIDTH:
                for row in np.flatnonzero(active):
                    problem = int(live[row])
                    n = sizes[problem]
                    ap_row = alpha_plus[row, :n]
                    am_row = alpha_minus[row, :n]
                    u_row = u[row, :n]
                    done, gap_row, conv_row = _smo_loop(
                        kernels[problem], ys[problem], float(cs[problem]),
                        float(epsilons[problem]), tol, max_iter,
                        ap_row, am_row, u_row,
                        iterations=int(iters_live[row]),
                    )
                    iters_live[row] = done
                    gaps_live[row] = gap_row
                    final_conv[problem] = conv_row
                active[:] = False
                break

            residual = big_y - u
            score_plus = residual - eps_col
            score_minus = residual + eps_col
            up_plus = np.where(can_up_p, score_plus, neg_inf)
            up_minus = np.where(can_up_m, score_minus, neg_inf)
            low_plus = np.where(can_lo_p, score_plus, np.inf)
            low_minus = np.where(can_lo_m, score_minus, np.inf)

            i_plus = np.argmax(up_plus, axis=1)
            i_minus = np.argmax(up_minus, axis=1)
            val_plus = up_plus[rows, i_plus]
            val_minus = up_minus[rows, i_minus]
            pick_plus = val_plus >= val_minus
            i = np.where(pick_plus, i_plus, i_minus)
            z_i = np.where(pick_plus, 1.0, -1.0)
            m_val = np.where(pick_plus, val_plus, val_minus)

            big_m_val = np.minimum(
                np.min(low_plus, axis=1), np.min(low_minus, axis=1)
            )
            gap = m_val - big_m_val
            degenerate = active & ~np.isfinite(gap)
            if degenerate.any():
                gaps_live[degenerate] = 0.0
                final_conv[live[degenerate]] = True
                active &= ~degenerate
            gaps_live = np.where(active, gap, gaps_live)
            converged_now = active & (gap <= tol)
            if converged_now.any():
                final_conv[live[converged_now]] = True
                active &= ~converged_now
            if not active.any():
                break

            k_row = big_k[rows, i, :]
            eta_all = np.maximum(diag[rows, i][:, None] + diag - 2.0 * k_row, 1e-12)
            diff_plus = m_val[:, None] - low_plus
            diff_minus = m_val[:, None] - low_minus
            obj_plus = np.where(
                diff_plus > 0, diff_plus * diff_plus / eta_all, neg_inf
            )
            obj_minus = np.where(
                diff_minus > 0, diff_minus * diff_minus / eta_all, neg_inf
            )
            j_plus = np.argmax(obj_plus, axis=1)
            j_minus = np.argmax(obj_minus, axis=1)
            jpick_plus = obj_plus[rows, j_plus] >= obj_minus[rows, j_minus]
            j = np.where(jpick_plus, j_plus, j_minus)
            z_j = np.where(jpick_plus, 1.0, -1.0)
            j_score = np.where(
                jpick_plus, low_plus[rows, j_plus], low_minus[rows, j_minus]
            )

            eta = eta_all[rows, j]
            t = (m_val - j_score) / eta
            ap_i = alpha_plus[rows, i]
            am_i = alpha_minus[rows, i]
            ap_j = alpha_plus[rows, j]
            am_j = alpha_minus[rows, j]
            t_hi_i = np.where(z_i > 0, c_row - ap_i, am_i)
            t_lo_i = np.where(z_i > 0, -ap_i, am_i - c_row)
            t_hi_j = np.where(z_j > 0, ap_j, c_row - am_j)
            t_lo_j = np.where(z_j > 0, ap_j - c_row, -am_j)
            t = np.minimum(np.minimum(t, t_hi_i), t_hi_j)
            t = np.maximum(np.maximum(np.maximum(t, t_lo_i), t_lo_j), 0.0)
            stuck = active & (t <= 0.0)
            if stuck.any():
                final_conv[live[stuck]] = gap[stuck] <= 10.0 * tol
                active &= ~stuck
                if not active.any():
                    break

            t_eff = np.where(active, t, 0.0)
            d_i_plus = np.where(z_i > 0, t_eff, 0.0)
            d_i_minus = np.where(z_i > 0, 0.0, -t_eff)
            d_j_plus = np.where(z_j > 0, -t_eff, 0.0)
            d_j_minus = np.where(z_j > 0, 0.0, t_eff)
            alpha_plus[rows, i] += d_i_plus
            alpha_minus[rows, i] += d_i_minus
            alpha_plus[rows, j] += d_j_plus
            alpha_minus[rows, j] += d_j_minus
            # Gram matrices are symmetric (a documented requirement), so
            # the column gathers K[:, :, i] equal the contiguous row
            # gathers bit-for-bit — and k_row is already in hand.
            u += t_eff[:, None] * (k_row - big_k[rows, j, :])
            iters_live += active

            # Refresh the bound masks at the four touched entries only.
            for idx in (i, j):
                ap_v = alpha_plus[rows, idx]
                am_v = alpha_minus[rows, idx]
                v = valid[rows, idx]
                can_up_p[rows, idx] = v & (ap_v < c_row)
                can_up_m[rows, idx] = am_v > 0
                can_lo_p[rows, idx] = ap_v > 0
                can_lo_m[rows, idx] = v & (am_v < c_row)

            finished = ~active
            if finished.any() and _compact(finished):
                active = np.ones(live.shape[0], dtype=bool)
                rows = np.arange(live.shape[0])

    # Materialize results in input order: rows still in the batch plus
    # the states stashed at compaction time.
    _sync(np.ones(live.shape[0], dtype=bool))
    for row, problem in enumerate(live):
        state[int(problem)] = (alpha_plus[row], alpha_minus[row], u[row])
    results: "list[SmoResult]" = []
    failed: "list[int]" = []
    for b in range(n_problems):
        n = sizes[b]
        if n == 0:
            results.append(
                SmoResult(
                    beta=np.zeros(0), bias=0.0, iterations=0, kkt_gap=0.0,
                    converged=True,
                )
            )
            continue
        if b in state:
            ap, am, ub = state[b]
        else:
            raise AssertionError("finished problem lost from batch state")
        beta = ap[:n] - am[:n]
        bias = _compute_bias(
            ap[:n], am[:n], ys[b], ub[:n], float(cs[b]), float(epsilons[b])
        )
        converged = bool(final_conv[b])
        if not converged:
            failed.append(b)
        results.append(
            SmoResult(
                beta=beta.copy(),
                bias=bias,
                iterations=int(final_iters[b]),
                kkt_gap=float(final_gaps[b]),
                converged=converged,
            )
        )
    if failed:
        message = (
            f"SMO batch: {len(failed)}/{n_problems} problems did not "
            f"converge (indices {failed[:8]}{'...' if len(failed) > 8 else ''})"
        )
        if on_no_convergence == "raise":
            raise ConvergenceError(message)
        if on_no_convergence == "warn":
            warnings.warn(message, RuntimeWarning, stacklevel=2)
    return results


def _compute_bias(
    alpha_plus: np.ndarray,
    alpha_minus: np.ndarray,
    y: np.ndarray,
    u: np.ndarray,
    c: float,
    epsilon: float,
) -> float:
    """Intercept from the KKT conditions.

    Free (0 < α < C) variables pin ``b`` exactly; with none free, take the
    midpoint of the feasible interval given by the bound variables.
    """
    residual = y - u
    margin = 1e-9 * max(c, 1.0)
    free_plus = (alpha_plus > margin) & (alpha_plus < c - margin)
    free_minus = (alpha_minus > margin) & (alpha_minus < c - margin)
    estimates = []
    if np.any(free_plus):
        estimates.extend((residual[free_plus] - epsilon).tolist())
    if np.any(free_minus):
        estimates.extend((residual[free_minus] + epsilon).tolist())
    if estimates:
        return float(np.mean(estimates))

    # No free variables: b lies between the up/low KKT bounds.
    lows = []
    highs = []
    score_plus = residual - epsilon
    score_minus = residual + epsilon
    up = np.concatenate(
        [score_plus[alpha_plus < c - margin], score_minus[alpha_minus > margin]]
    )
    low = np.concatenate(
        [score_plus[alpha_plus > margin], score_minus[alpha_minus < c - margin]]
    )
    if up.size:
        highs.append(float(np.max(up)))
    if low.size:
        lows.append(float(np.min(low)))
    if highs and lows:
        return 0.5 * (highs[0] + lows[0])
    if highs:
        return highs[0]
    if lows:
        return lows[0]
    return float(np.mean(residual))
