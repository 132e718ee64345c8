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
advances many independent problems in lockstep on one (B, 2, m) dual
state — each problem's α half stacked on its α* half — and each problem
stays bit-identical to solving it alone with :func:`solve_svr_dual`:
the batch only adds padding, elementwise ops, argmaxes and exact mins,
and its flattened α-first layout breaks ties as the scalar loop does.
Both entry points reject non-finite inputs (Gram entries, targets, C,
ε, tol) with :class:`~repro.errors.ConfigurationError`; left in, a NaN
target would come back as a "converged" solve with a NaN bias.
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

    Every input must be finite: NaN or ±inf raises
    :class:`~repro.errors.ConfigurationError`.

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
    _require_finite("kernel matrix", k)
    _require_finite("targets", y)
    _require_finite("C", c)
    if c <= 0:
        raise ConfigurationError(f"C must be > 0, got {c}")
    _require_finite("epsilon", epsilon)
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    _check_options(tol, max_iter, on_no_convergence)
    if n == 0:
        return _empty_result()

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


def _require_finite(name: str, values) -> None:
    """Reject NaN or ±inf: SMO would report them as a converged solve."""
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{name} must be finite")


def _check_options(tol: float, max_iter: int, on_no_convergence: str) -> None:
    _require_finite("tol", tol)
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if on_no_convergence not in ("warn", "raise", "ignore"):
        raise ConfigurationError(
            f"on_no_convergence must be 'warn', 'raise' or 'ignore', "
            f"got {on_no_convergence!r}"
        )


def _empty_result() -> SmoResult:
    """The solution of a problem with no training points."""
    return SmoResult(
        beta=np.zeros(0), bias=0.0, iterations=0, kkt_gap=0.0, converged=True
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


#: Per entry of the touched pair (i, j): whether it rises when it sits in
#: the α half. a_i moves by +z_i·t and a_j by −z_j·t, with z = +1 in the
#: α half, so i rises as an α and j as an α*.
_RISES_IN_ALPHA = np.array([True, False])

#: Batch rows at or below this width finish on the scalar loop instead.
#: A lockstep step costs about 1.3 scalar iterations at 1–2 rows (~100
#: against ~75 µs on a 2-core host), so two problems already share a
#: step more cheaply than they run one at a time, and only the last one
#: is handed off. Measured there as the median of 5 rounds over widths
#: in rotating order, total solve time of: the drift retrain calls of
#: ``drift_lifecycle`` instances 100, 101 and 103 (6–18 problems,
#: n = 25–35), the 96-problem lifecycle-floor round of
#: ``benchmarks/test_lifecycle.py`` (n = 48/60) and the 160-problem
#: serve grid (n ≈ 102):
#:
#:   width           1      2      3      4      8
#:   drift retrain   1.64   1.64   1.75   1.97   4.01 s
#:   lifecycle floor 0.383  0.389  0.399  0.406  0.510 s
#:   serve grid      1.31   1.34   1.35   1.56   2.57 s
_HANDOFF_WIDTH = 1


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
    *independent* SMO problems. Solved one at a time, each SMO iteration
    costs ~20 NumPy dispatches on tiny arrays — pure interpreter
    overhead. This routine stacks the problems into one (B, 2, m) dual
    state — row b holds problem b's α half on top of its α* half, and
    ragged sizes are padded with inert columns — and runs the working-set
    selection, subproblem solve and ``u`` update for all *active*
    problems per step, so a 10-fold CV point costs roughly the *longest*
    fold's iterations rather than the sum.

    One step scores both halves with one expression (``r − (−ε)`` is
    ``r + ε`` bit for bit), picks ``i`` with one argmax, ``M`` with one
    argmin and ``j`` with one argmax over the WSS2 objective, each on the
    flattened (B, 2m) view, moves the touched pair with one stacked
    update and refreshes the two bound masks there.

    Each problem's iterate trajectory is **bit-identical** to running
    :func:`solve_svr_dual` on it alone (enforced by
    ``tests/svm/test_smo_batch.py`` and pinned by
    ``tests/svm/test_smo_pin.py``). Every per-problem operation is
    elementwise, an argmax or an exact min — none re-associates a
    floating-point sum — and the flattened view keeps the scalar's tie
    rule: the α half comes first, so a first-occurrence argmax picks it
    on a tie exactly as the scalar's ``>=`` between the two halves does,
    and a min over both halves is the smaller of the two halves' mins.
    Inputs are required to be finite, so no NaN can make the two rules
    differ. Problems that converge, get stuck, or exhaust the budget drop
    out of the lockstep individually; the surviving rows are periodically
    compacted so one straggler does not pay the whole batch's width, and
    the last ``_HANDOFF_WIDTH`` finish on the scalar loop.

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
    _require_finite("C", cs)
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
    _require_finite("epsilon", epsilons)
    if np.any(epsilons < 0):
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    _check_options(tol, max_iter, on_no_convergence)
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
        _require_finite(f"problem {b}: kernel matrix", k)
        _require_finite(f"problem {b}: targets", y)
        sizes.append(n)
    if n_problems == 0:
        return []

    m = max(sizes)
    if m == 0:
        return [_empty_result() for _ in range(n_problems)]

    big_k = np.zeros((n_problems, m, m))
    big_y = np.zeros((n_problems, m))
    valid = np.zeros((n_problems, m), dtype=bool)
    for b, (k, y, n) in enumerate(zip(kernels, ys, sizes)):
        big_k[b, :n, :n] = k
        big_y[b, :n] = y
        valid[b, :n] = True
    diag = np.ascontiguousarray(big_k[:, np.arange(m), np.arange(m)])
    diag[~valid] = 1.0  # keeps padded η positive; padded pairs are never picked
    # The dual state a = [α; α*] per problem, and u = Kβ.
    a = np.zeros((n_problems, 2, m))
    u = np.zeros((n_problems, m))
    eps_pm = np.stack((epsilons, -epsilons), axis=1)[:, :, None]  # (B, 2, 1)
    c_col = cs[:, None].copy()
    neg_inf = -np.inf

    # Bound-set masks at a = 0, then maintained incrementally: each step
    # touches two entries per row, so recomputing the comparisons over
    # (B, 2, m) every step would be the largest cost of the loop. The up
    # set is {α < C} ∪ {α* > 0}, the low set {α > 0} ∪ {α* < C}.
    can_up = np.zeros((n_problems, 2, m), dtype=bool)
    can_up[:, 0] = valid
    can_lo = np.zeros((n_problems, 2, m), dtype=bool)
    can_lo[:, 1] = valid

    # Per-problem outcome, indexed by original problem id, and the final
    # (α, α*, u) of every problem, stashed when its row is compacted away
    # and for every row left at loop exit.
    final_iters = np.zeros(n_problems, dtype=np.int64)
    final_gaps = np.zeros(n_problems)
    final_conv = np.zeros(n_problems, dtype=bool)
    state: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]" = {}
    # `live` maps current batch rows to original problem ids.
    live = np.arange(n_problems)
    # Zero-size problems are solved by construction; keep them out of the
    # lockstep so the straggler hand-off never sees an empty problem.
    active = np.array([n > 0 for n in sizes], dtype=bool)  # aligned with `live`
    final_conv[~active] = True
    n_active = int(np.count_nonzero(active))
    # Lockstep iterations so far. Every active row has taken exactly this
    # many, so a row's iteration count is `steps` when it finishes and the
    # budget runs out for all active rows at once.
    steps = 0

    def finish(rows_done: np.ndarray, gaps: np.ndarray, converged) -> None:
        problems = live[rows_done]
        final_iters[problems] = steps
        final_gaps[problems] = gaps
        final_conv[problems] = converged

    width = n_problems
    # One errstate for the whole loop: rows that finished mid-round keep
    # flowing through the vectorized expressions with ±inf sentinels,
    # whose arithmetic (inf − inf → nan) is discarded but would warn.
    with np.errstate(invalid="ignore"):
        while n_active > _HANDOFF_WIDTH:
            # Flat views of the current layout. Every gather and scatter
            # below goes through a flat index: row offset + column.
            flat_rows = np.arange(width) * (2 * m)
            to_data = (
                (np.arange(width) * m)[:, None] + np.tile(np.arange(m), 2)
            ).reshape(-1)  # flat (B, 2m) index → flat (B, m) index
            a_r = a.reshape(-1)
            up_r = can_up.reshape(-1)
            lo_r = can_lo.reshape(-1)
            diag_r = diag.reshape(-1)
            k_rows = big_k.reshape(width * m, m)
            in_alpha_at = np.tile(np.arange(2 * m) < m, width)
            pair = np.empty((width, 2), dtype=np.intp)
            while True:
                score = (big_y - u)[:, None, :] - eps_pm  # −z_p ∇_p, (B, 2, m)
                up = np.where(can_up, score, neg_inf).reshape(width, 2 * m)
                fi = flat_rows + up.argmax(axis=1)
                m_val = up.reshape(-1)[fi]
                low = np.where(can_lo, score, np.inf)
                # Free (B, 2, m) temporaries as soon as they are spent, so
                # a wide grid batch keeps few of them alive at once.
                del score, up
                low_r = low.reshape(-1)
                m_at = flat_rows + low.reshape(width, 2 * m).argmin(axis=1)
                gap = m_val - low_r[m_at]
                # A non-finite gap (an empty index set; −inf since the
                # scores are finite) is a solved problem, reported as 0.
                done = active & (gap <= tol)
                if np.count_nonzero(done):
                    finish(done, np.where(np.isfinite(gap), gap, 0.0)[done], True)
                    active &= ~done
                    n_active = int(np.count_nonzero(active))
                    if n_active <= _HANDOFF_WIDTH:
                        break

                # Second-order working-set selection (WSS2), as in `_smo_loop`.
                di = to_data[fi]
                k_i = k_rows.take(di, axis=0)  # row i of K, which equals column i
                eta_all = diag_r[di][:, None] + diag
                eta_all -= 2.0 * k_i
                np.maximum(eta_all, 1e-12, out=eta_all)
                diff = m_val[:, None, None] - low
                obj = diff * diff
                obj /= eta_all[:, None, :]
                obj = np.where(diff > 0, obj, neg_inf).reshape(width, 2 * m)
                del diff
                # The touched pair as flat indices: column 0 is i, column 1 is j.
                pair[:, 0] = fi
                fj = pair[:, 1]
                np.add(flat_rows, obj.argmax(axis=1), out=fj)
                dj = to_data[fj]
                t = (m_val - low_r[fj]) / eta_all.reshape(-1)[dj]

                # Box limits. A rising entry allows t ∈ [−v, C − v], a
                # falling one t ∈ [v − C, v]; v − C is −(C − v) exactly,
                # and a t clipped to ±0 stops the row either way, so the
                # sign of a zero bound never matters.
                in_alpha = in_alpha_at[pair]
                rises = in_alpha == _RISES_IN_ALPHA
                v = a_r[pair]
                room = c_col - v
                hi = np.where(rises, room, v)
                lo = -np.where(rises, v, room)
                t = np.minimum(np.minimum(t, hi[:, 0]), hi[:, 1])
                t = np.maximum(np.maximum(np.maximum(t, lo[:, 0]), lo[:, 1]), 0.0)
                stuck = active & (t <= 0.0)
                if np.count_nonzero(stuck):
                    finish(stuck, gap[stuck], gap[stuck] <= 10.0 * tol)
                    active &= ~stuck
                    n_active = int(np.count_nonzero(active))
                    if n_active <= _HANDOFF_WIDTH:
                        break

                # One stacked update of both entries: v + (−t) is v − t
                # bit for bit.
                t_col = np.where(active, t, 0.0)[:, None]
                new = v + np.where(rises, t_col, -t_col)
                a_r[pair] = new
                # Gram matrices are symmetric (a documented requirement), so
                # the row gathers equal the scalar's column reads bit for bit.
                u += t_col * (k_i - k_rows.take(dj, axis=0))
                steps += 1

                # Refresh the bound masks at the two touched entries. A
                # touched entry of an active row is never padding, so the
                # valid mask is not needed; inactive rows' masks are never
                # read again.
                positive = new > 0
                below_c = new < c_col
                up_r[pair] = np.where(in_alpha, below_c, positive)
                lo_r[pair] = np.where(in_alpha, positive, below_c)

                if steps >= max_iter:
                    finish(active, gap[active], False)
                    active[:] = False
                    n_active = 0
                    break
                if n_active <= (3 * width) // 4:
                    break

            if n_active > _HANDOFF_WIDTH:
                # Compact once at most three quarters of the rows are
                # active: finished rows are frozen (their updates are
                # zero), so this only narrows the arrays one straggler
                # would drag along.
                for row in np.flatnonzero(~active):
                    state[int(live[row])] = (
                        a[row, 0].copy(), a[row, 1].copy(), u[row].copy()
                    )
                # The Gram stack moves its kept rows forward in place: a
                # fancy-indexed copy would hold two stacks at once.
                for dst, src in enumerate(np.flatnonzero(active)):
                    big_k[dst] = big_k[src]
                big_k = big_k[:n_active]
                live = live[active]
                big_y = big_y[active]
                diag = diag[active]
                a = a[active]
                u = u[active]
                eps_pm = eps_pm[active]
                c_col = c_col[active]
                can_up = can_up[active]
                can_lo = can_lo[active]
                width = n_active
                active = np.ones(width, dtype=bool)

        # Straggler hand-off: the scalar loop continues bit-exactly from
        # the same state, a view into `a` and `u`.
        for row in np.flatnonzero(active):
            problem = int(live[row])
            n = sizes[problem]
            final_iters[problem], final_gaps[problem], final_conv[problem] = (
                _smo_loop(
                    kernels[problem], ys[problem], float(cs[problem]),
                    float(epsilons[problem]), tol, max_iter,
                    a[row, 0, :n], a[row, 1, :n], u[row, :n],
                    iterations=steps,
                )
            )

    # Materialize results in input order: rows still in the batch plus
    # the states stashed at compaction time.
    for row, problem in enumerate(live):
        state[int(problem)] = (a[row, 0], a[row, 1], u[row])
    results: "list[SmoResult]" = []
    failed: "list[int]" = []
    for b in range(n_problems):
        n = sizes[b]
        if n == 0:
            results.append(_empty_result())
            continue
        ap, am, ub = state[b]
        beta = ap[:n] - am[:n]
        bias = _compute_bias(
            ap[:n], am[:n], ys[b], ub[:n], float(cs[b]), float(epsilons[b])
        )
        converged = bool(final_conv[b])
        if not converged:
            failed.append(b)
        results.append(
            SmoResult(
                beta=beta,
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
