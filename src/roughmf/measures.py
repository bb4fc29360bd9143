"""Empirical measures, Wasserstein distances, and two-sided surrogates for
the dual-pairing metric over C^2 test functions with polynomially bounded
derivatives.

The dual metric sup_phi int phi d(mu - nu) over the class {phi : |grad phi|,
|D^2 phi| <= 1 + |y|^{p-1}} is not computable; the module ships a bracket:
a lower bound from a finite certified test family and an upper bound from a
mean-value estimate along a transport coupling.

Every exact W_2 matching (``_coupling_assignment`` at p = 2) is
warm-started: before ``linear_sum_assignment`` runs, the cost C_ij =
|x_i - y_j|^2 is reduced in place to C_ij - v_j, then by its row minima,
then by its column minima, where v is the potential of the Brenier map
between the Gaussian fits of the two clouds (``_reduce_w2_cost``).  Any
reduction C_ij - u_i - v_j adds the same sum(u) + sum(v) to every
matching's total, so it keeps the optimal matchings; a near-optimal one
only lets the solver find them sooner.  The reduction is skipped, and C
solved as it is, when the columns' covariance is not positive definite (its
smallest eigenvalue at most 1e-10 times its largest, e.g. atoms on a line)
or when max |v| > max C (and when max C is 0 or not finite).  The coupling and the value are built from the
original atoms, so they are bitwise those of the plain solve whenever the
optimal matching is unique.  In floating point, each reduced entry is
within e <= 10 u max C of C_ij - u_i - v_j (u = 2^-53: three roundings, of
results at most 2, 4 and 4 max C given |v| <= max C), so the matching
returned is optimal for C within 2 N e.  Under ties (e.g. duplicated
atoms) it may be another optimal matching than the plain solve's, whose
W_p differs only by summation round-off.

scipy is imported by the three kernels that call it (``_cost_matrix``,
``_coupling_assignment``, ``_coupling_lp``), so importing the module loads
numpy only; the first exact coupling loads scipy, on whichever thread
reaches it first, under Python's import lock.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ._accel import _row_norms

ASSIGNMENT_CAP = 512  # exact bipartite matching up to this many atoms
LP_CELL_CAP = 40000  # exact transport LP up to this many coupling cells


@dataclass(frozen=True)
class EmpiricalMeasure:
    atoms: np.ndarray  # (N, d)
    weights: Optional[np.ndarray] = None  # (N,), defaults to uniform
    uniform: bool = field(init=False)  # every weight within 1e-14 of 1/N
    # quantities computed once per measure by its users (e.g. Cov(mu))
    derived: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("need at least one atom")
        if self.weights is None:
            w = np.full(a.shape[0], 1.0 / a.shape[0])
            uniform = True
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (a.shape[0],) or not w.min() >= 0:
                raise ValueError("weights must be nonnegative, one per atom")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")
            # |w_i - 1/N| <= 1e-14 for every i: the extreme weights decide it
            c = 1.0 / len(w)
            uniform = bool(w.max() - c <= 1e-14 and c - w.min() <= 1e-14)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "uniform", uniform)

    def with_atoms(self, atoms: np.ndarray) -> EmpiricalMeasure:
        """The measure on the float atoms (N, d), of this one's shape, with
        this one's validated weights and uniform flag and an empty derived
        of its own; the atoms are kept as given, not copied."""
        if atoms.shape != self.atoms.shape:
            raise ValueError(f"atoms of shape {atoms.shape}, not {self.atoms.shape}")
        mu = object.__new__(EmpiricalMeasure)
        # the frozen fields, set as __init__ would set them after validation
        vars(mu).update(atoms=atoms, weights=self.weights, uniform=self.uniform, derived={})
        return mu

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms

    def integrate(self, phi: Callable[[np.ndarray], np.ndarray]) -> float:
        """int phi dmu for phi mapping the atoms (N, d) to values (N,)."""
        return float(self.weights @ phi(self.atoms))


def moment(mu: EmpiricalMeasure, p: float) -> float:
    """p-th absolute moment int |y|^p dmu."""
    if p < 1:
        raise ValueError("p >= 1 required")
    return float(mu.weights @ _row_norms(mu.atoms) ** p)


# ---------------------------------------------------------------------------
# Wasserstein distance
# ---------------------------------------------------------------------------

def _coupling_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """Quantile coupling (exact optimal in one dimension for every p)."""
    ix = np.argsort(mu.atoms[:, 0])
    iy = np.argsort(nu.atoms[:, 0])
    x, wx = mu.atoms[ix, 0], mu.weights[ix]
    y, wy = nu.atoms[iy, 0], nu.weights[iy]
    cx = np.cumsum(wx)
    cy = np.cumsum(wy)
    qs = np.unique(np.concatenate([cx, cy, [1.0]]))
    qs = qs[qs <= 1.0 + 1e-15]
    lo = np.concatenate([[0.0], qs[:-1]])
    mass = qs - lo
    mid = 0.5 * (qs + lo)
    xi = np.searchsorted(cx, mid, side="left").clip(0, len(x) - 1)
    yi = np.searchsorted(cy, mid, side="left").clip(0, len(y) - 1)
    keep = mass > 1e-15
    return (
        x[xi[keep]].reshape(-1, 1),
        y[yi[keep]].reshape(-1, 1),
        mass[keep],
    )


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> np.ndarray:
    """Transport cost |x_i - y_j|^p, shape (mu.n, nu.n), Euclidean: the one
    dense cost kernel of every exact coupling.  The power is taken in place:
    the same ufunc as cdist(...) ** p, without a second (N, M) array."""
    from scipy.spatial.distance import cdist

    cost = cdist(mu.atoms, nu.atoms)
    cost **= p
    return cost


def _gaussian_fit(a: np.ndarray, scale: float):
    """Mean of equally weighted atoms, and the covariance (exactly
    symmetric) of the atoms divided by scale."""
    m = a.mean(axis=0)
    z = (a - m) / scale
    S = z.T @ z / len(a)
    return m, 0.5 * (S + S.T)


def _reduce_w2_cost(cost: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    """Reduce the cost |x_i - y_j|^2 of matching rows x to columns y in
    place, as the module docstring states; False, with the cost untouched,
    where the reduction is skipped."""
    top = cost.max()
    if not 0.0 < top < np.inf:  # equal atoms, or an infinite one the solver reports
        return False
    # both fits in units of the largest distance, where A is the same and
    # every product below stays finite
    mx, Sx = _gaussian_fit(x, np.sqrt(top))
    my, Sy = _gaussian_fit(y, np.sqrt(top))
    lam, Q = np.linalg.eigh(Sy)
    if not lam[0] > 1e-10 * lam[-1]:
        return False
    r = np.sqrt(lam)
    half, inv_half = (Q * r) @ Q.T, (Q / r) @ Q.T
    # A maps the columns' Gaussian onto the rows': x ~ m_x + A (y - m_y)
    s, P = np.linalg.eigh(half @ Sx @ half)
    A = inv_half @ ((P * np.sqrt(np.maximum(s, 0.0))) @ P.T) @ inv_half
    # v_j = |y_j|^2 - 2 psi(y_j) for the Brenier potential
    # psi(y) = <m_x, y> + (y - m_y)^T A (y - m_y) / 2, up to a constant:
    # centred, so that |v| stays on the cost's scale far from the origin
    z = y - my
    v = np.sum((y - mx) ** 2, axis=1) - np.sum((z @ A) * z, axis=1)
    if not np.abs(v).max() <= top:
        return False
    cost -= v
    cost -= cost.min(axis=1, keepdims=True)
    cost -= cost.min(axis=0)
    return True


def _coupling_assignment(mu, nu, p):
    from scipy.optimize import linear_sum_assignment

    cost = _cost_matrix(mu, nu, p)
    if p == 2:
        _reduce_w2_cost(cost, mu.atoms, nu.atoms)
    rows, cols = linear_sum_assignment(cost)
    mass = np.full(len(rows), 1.0 / len(rows))
    return mu.atoms[rows], nu.atoms[cols], mass


def _coupling_lp(mu, nu, p):
    from scipy import sparse
    from scipy.optimize import linprog

    N, M = mu.n, nu.n
    cost = _cost_matrix(mu, nu, p).ravel()
    # marginal constraints on the row-major plan pi (N, M): row sums, then
    # column sums, as one sparse (N + M, N M) matrix
    A_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(N), np.ones((1, M))),
            sparse.kron(np.ones((1, N)), sparse.eye(M)),
        ],
        format="csr",
    )
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    pi = res.x.reshape(N, M)
    ii, jj = np.nonzero(pi > 1e-14)
    return mu.atoms[ii], nu.atoms[jj], pi[ii, jj]


def _subsample(mu: EmpiricalMeasure, k: int) -> EmpiricalMeasure:
    # deterministic stride subsample after a lexicographic sort
    order = np.lexsort(mu.atoms.T[::-1])
    idx = order[np.linspace(0, mu.n - 1, k).round().astype(int)]
    return EmpiricalMeasure(mu.atoms[idx])


def wasserstein_p(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float, return_info: bool = False
):
    """Wasserstein-p distance between atomic measures.

    Exactly 0 on bitwise-identical atoms and weights (mode "identical", the
    identity coupling), at any size.  Otherwise exact in d = 1 (quantile
    coupling) and for uniform equal-size supports up to the assignment cap
    (optimal bipartite matching); small non-uniform problems go through the
    transport LP; anything bigger falls back to a subsampled matching,
    flagged as approximate in the info record ("exact" False): an estimate,
    not a bound.  The matching, the LP and the subsampled matching all build
    their dense cost with one kernel, _cost_matrix (Euclidean cdist ** p),
    once per coupling.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    if mu.d != nu.d:
        raise ValueError("dimension mismatch")
    info = {"mode": None, "exact": True}
    if np.array_equal(mu.atoms, nu.atoms) and np.array_equal(mu.weights, nu.weights):
        xs, ys, mass = mu.atoms, nu.atoms, mu.weights
        info["mode"] = "identical"
    elif mu.d == 1:
        xs, ys, mass = _coupling_1d(mu, nu)
        info["mode"] = "quantile-1d"
    elif mu.uniform and nu.uniform and mu.n == nu.n and mu.n <= ASSIGNMENT_CAP:
        xs, ys, mass = _coupling_assignment(mu, nu, p)
        info["mode"] = "assignment"
    elif mu.n * nu.n <= LP_CELL_CAP:
        xs, ys, mass = _coupling_lp(mu, nu, p)
        info["mode"] = "transport-lp"
    else:
        k = min(ASSIGNMENT_CAP, mu.n, nu.n)
        xs, ys, mass = _coupling_assignment(_subsample(mu, k), _subsample(nu, k), p)
        info["mode"] = "subsample-assignment"
        info["exact"] = False
    value = float((mass @ _row_norms(xs - ys) ** p) ** (1.0 / p))
    if return_info:
        info["coupling"] = (xs, ys, mass)
        return value, info
    return value


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_pairs(fn, pairs) -> list:
    """[fn(mu, nu) for mu, nu in pairs], in input order, on min(len(pairs),
    _cpus()) threads: the caller and a pool of the others.

    Each pair is computed exactly as the serial loop would compute it, so
    values are bitwise the same; only the scheduling changes.  The exact
    solves release the GIL (cdist, linear_sum_assignment, HiGHS), so
    independent transport problems run side by side.  Pool threads run in
    copies of the caller's context, which carries numpy's errstate.  Pairs
    are handed out in order and none is started after one has raised; the
    exception of the lowest failing pair, the one the serial loop would
    raise, is re-raised here.  The pool is shut down before returning.
    """
    pairs = list(pairs)
    workers = min(len(pairs), _cpus())
    if workers <= 1:
        return [fn(mu, nu) for mu, nu in pairs]
    results = [None] * len(pairs)
    failed = {}
    todo = iter(range(len(pairs)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(*pairs[i])
            except BaseException as exc:  # re-raised in the caller below
                with lock:
                    failed[i] = exc

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, drain)
                   for _ in range(workers - 1)]
        drain()
    for f in futures:
        f.result()
    if failed:
        raise failed[min(failed)]
    return results


# ---------------------------------------------------------------------------
# test function families and the dual-metric bracket
# ---------------------------------------------------------------------------

@dataclass
class ScalarFunc:
    """phi with analytic gradient and Hessian.

    Each callable takes points (N, d) and returns (N,), (N, d), (N, d, d).
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def linear_func(u: np.ndarray, name: str) -> ScalarFunc:
    """phi(y) = <u, y>: the coordinate and direction witnesses."""
    u = np.asarray(u, dtype=float)
    d = len(u)
    return ScalarFunc(
        name,
        lambda Y: Y @ u,
        lambda Y: np.broadcast_to(u, Y.shape),
        lambda Y: np.zeros((len(Y), d, d)),
    )


BUMP_RADIUS = 1.0  # support radius of the data-centred bumps
# their height times e: the Hessian then peaks at 0.97 in operator norm,
# under the envelope 1 + |y|^{p-1} >= 1 of every p >= 1
BUMP_SCALE = 0.125


def _bump(center: np.ndarray) -> ScalarFunc:
    """BUMP_SCALE * exp(-1 / (1 - |y - c|^2 / BUMP_RADIUS^2)) inside the
    ball, 0 outside."""
    c = np.asarray(center, dtype=float)
    d = len(c)
    radius, scale = BUMP_RADIUS, BUMP_SCALE

    def parts(Y):
        z = Y - c
        r2 = np.sum(z**2, axis=1) / radius**2
        # 1 - r2 inside the ball; outside, any nonzero value keeps the
        # derivative formulas finite, and the zero value zeroes them
        gap = np.where(r2 < 1.0, 1.0 - r2, 1.0)
        return z, gap, np.where(r2 < 1.0, scale * np.exp(-1.0 / gap), 0.0)

    def val(Y):
        return parts(Y)[2]

    def grad(Y):
        z, gap, v = parts(Y)
        return (v * -2.0 / radius**2 / gap**2)[:, None] * z

    def hess(Y):
        z, gap, v = parts(Y)
        u = z / radius**2
        q = 1.0 / gap**2
        g = -2.0 * u * q[:, None]
        # d/dy_j q = 4 u_j (1 - r2)^{-3}
        dg = -2.0 / radius**2 * (
            np.eye(d) * q[:, None, None]
            + np.einsum("ni,nj->nij", z, 4.0 * u / gap[:, None] ** 3)
        )
        return v[:, None, None] * (np.einsum("ni,nj->nij", g, g) + dg)

    name = "bump@(" + ", ".join(f"{x:.3f}" for x in c.tolist()) + ")"
    return ScalarFunc(name, val, grad, hess)


def default_test_family(
    p: float, clouds: Sequence[EmpiricalMeasure] = (), d: Optional[int] = None
) -> list:
    """The ``ScalarFunc`` witnesses of dp_bracket's lower bound: coordinates,
    the power witness |y|^p / p, data-centred bumps, and pairwise-difference
    direction witnesses."""
    if d is None:
        if not clouds:
            raise ValueError("need a dimension or at least one cloud")
        d = clouds[0].d
    funcs = [linear_func(e, f"coord{i}") for i, e in enumerate(np.eye(d))]

    def radial(Y, power):
        # |y|^power, and 0 at y = 0 where a negative power has no value
        r = _row_norms(Y)
        out = np.zeros_like(r)
        out[r > 0] = r[r > 0] ** power
        return out

    def pow_val(Y):
        return _row_norms(Y) ** p / p

    def pow_grad(Y):
        return Y * radial(Y, p - 2.0)[:, None]

    def pow_hess(Y):
        return radial(Y, p - 2.0)[:, None, None] * np.eye(d) + (p - 2.0) * radial(
            Y, p - 4.0
        )[:, None, None] * np.einsum("ni,nj->nij", Y, Y)

    funcs.append(ScalarFunc("power", pow_val, pow_grad, pow_hess))
    centers = [c.mean() for c in clouds]
    for c in centers:
        funcs.append(_bump(c))
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            v = centers[b] - centers[a]
            nv = np.linalg.norm(v)
            if nv > 1e-12:
                funcs.append(linear_func(v / nv, f"dir{a}-{b}"))
    return funcs


def dp_bracket(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float):
    """Two-sided bracket for the dual metric over the certified class.

    lower: best |int phi d(mu - nu)| over the finite family
    default_test_family(p, clouds=[mu, nu]) (the class is closed under
    negation, so the absolute value is admissible).
    upper: mean-value bound sum_pi (1 + |x|^{p-1} + |x-y|^{p-1}) |x-y| on
    the coupling returned by wasserstein_p; approximate couplings make the
    upper bound approximate, and the flag says so.  Bitwise-identical atoms
    and weights return at once the exact 0 bracket that the identity
    coupling gives, without building the family.  The info record also
    carries that wasserstein_p value as "w_p", so callers need not solve the
    same transport problem again.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    if np.array_equal(mu.atoms, nu.atoms) and np.array_equal(mu.weights, nu.weights):
        return 0.0, 0.0, {"exact_upper": True, "mode": "identical", "w_p": 0.0}
    lower = 0.0
    for f in default_test_family(p, clouds=[mu, nu]):
        gap = abs(mu.integrate(f.value) - nu.integrate(f.value))
        lower = max(lower, gap)
    w_p, info = wasserstein_p(mu, nu, p, return_info=True)
    xs, ys, mass = info["coupling"]
    sep = _row_norms(xs - ys)
    env = 1.0 + _row_norms(xs) ** (p - 1.0) + sep ** (p - 1.0)
    upper = float(mass @ (env * sep))
    upper = max(upper, lower)  # the bracket must always close
    return lower, upper, {"exact_upper": info["exact"], "mode": info["mode"], "w_p": w_p}


def topology_equivalence_probe(
    sequence: Sequence[EmpiricalMeasure],
    limit: EmpiricalMeasure,
    p: float,
    tol_w: float = 1e-3,
    tol_b: float = 1e-2,
) -> dict:
    """Check that d_p and the bracket vanish together along a sequence."""
    brackets = _map_pairs(lambda m, lim: dp_bracket(m, lim, p),
                          [(m, limit) for m in sequence])
    lowers = [lo for lo, _, _ in brackets]
    ws = np.array([info["w_p"] for _, _, info in brackets])
    uppers = np.array([up for _, up, _ in brackets])
    agree = bool(np.all((ws <= tol_w) == (uppers <= tol_b)))
    return {
        "d_p": ws.tolist(),
        "bracket_lower": lowers,
        "bracket_upper": uppers.tolist(),
        "tolerances": (tol_w, tol_b),
        "agree": agree,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_rows(fh, rows: np.ndarray) -> None:
    """Write a 2-d table with one "%.17g" pass, bytes as np.savetxt(fmt="%.17g")."""
    n, k = rows.shape
    line = " ".join(["%.17g"] * k) + "\n"
    fh.write((line * n) % tuple(rows.ravel().tolist()))
