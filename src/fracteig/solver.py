"""First-eigenpair minimization of the discrete fractional Rayleigh quotient.

`minimize_first` runs a projected truncated Newton descent with a
backtracking Armijo line search.  Search directions come from conjugate
gradients on the Newton system, preconditioned by the Hessian's diagonal
(floored at a share of the convex numerator's), with the radial direction
projected out (the quotient is 0-homogeneous, so that direction is flat at
the minimizer), stopped by a forcing term or at the first direction of
negative curvature (T. Steihaug, SIAM J. Numer. Anal. 20, 1983).  A
steepest-descent step stands in whenever that direction does not descend,
and competes with any Newton step that would stop the run.  Iterates are
renormalized to sum |u|^p h^n = 1 after every accepted step (the quotient
is scale-free, so renormalizing never changes it).  Each trial point costs
one fused quotient-and-gradient pass, and the Hessian's diagonal and every
Hessian product one more pair pass of `QuotientTables`, so no k x k array
besides the kernel table is formed.

The descent runs over the orbits of inside nodes under the lattice
reflections that map the mask onto itself (`lattice_symmetries`).  The first
eigenvalue is simple and its eigenfunction unique up to scale, and each such
reflection keeps the quotient, so the minimizer is invariant and nothing is
lost by minimizing over invariant vectors: `QuotientTables` folded over
that group evaluates the quotient of the k orbit values, in variables
sqrt(|I|) v_I whose inner products are those of the expanded vectors, and
the result is expanded to every inside node.  With no such reflection the
group is trivial, every orbit is one node, and the folded tables are bit for
bit the plain kernel.

`p2_oracle` solves the p = 2 case by an entirely different route — assembling
the quadratic form's symmetric matrix and handing it to a dense symmetric
eigensolver — and exists to cross-check the descent path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .energy import FracParams, QuotientTables
from .geometry import GridDomain, GridFunction, _check_integer, _check_memory, lattice_symmetries
from .infinity import lambda_infinity

__all__ = [
    "SolverOptions",
    "EigenResult",
    "PSweepRow",
    "PSweepResult",
    "minimize_first",
    "p2_oracle",
    "p_sweep",
    "monotonicity_check",
]

_ARMIJO = 1e-4
_STEP_GROWTH = 2.0
# Share of the diagonal of hess N / D (N the convex numerator) below which the
# Newton-CG preconditioner does not follow the Hessian's own diagonal.  Shares
# of 0.05 to 0.2 gave iteration counts within about 10% of each other on
# interval sweeps up to p = 256, disks and a triangle mask.  A share of 0 (the
# Hessian's own diagonal) took 14 iterations and 39 evaluations against 9 and
# 10 on the disk at h = 1/64, p = 8; a share of 1 (the numerator's diagonal
# alone) took 59 iterations against 35 on (0, 2), h = 1/100, p = 8 to 64.
_JACOBI_FLOOR = 0.1


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for minimize_first.

    step0 seeds the steepest-descent fallback only: its first trial step is
    2 * step0, and every later fallback begins at twice the last accepted
    steepest-descent step.  Newton trials always start at step 1; both kinds
    backtrack by backtrack_factor.

    init_mode: "distance" starts from the distance-to-complement profile
    (positive, the right shape near the large-p limit), "random" from a seeded
    standard normal vector, "custom" from init_values on the inside nodes.
    On a lattice with reflection symmetries minimize_first solves over the
    orbits of inside nodes: "random" then draws one value per orbit, and the
    distance profile and init_values enter through their orbit means (a
    vector that is already constant on every orbit, such as a p_sweep warm
    start, enters unchanged).
    """

    max_iters: int = 50_000
    tol_rel_q: float = 1e-12
    tol_grad: float = 1e-9
    step0: float = 1.0
    backtrack_factor: float = 0.5
    init_mode: str = "distance"
    seed: int = 0
    init_values: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("max_iters", "seed"):
            _check_integer(name, getattr(self, name))
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol_rel_q > 0.0 and self.tol_grad > 0.0):
            raise ValueError("tolerances must be positive")
        # an infinite step stays infinite under backtracking: the line search would never end
        if not (0.0 < self.step0 < math.inf):
            raise ValueError("step0 must be positive and finite")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.init_mode not in ("distance", "random", "custom"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "custom" and self.init_values is None:
            raise ValueError("custom init requires init_values")


@dataclass(eq=False)
class EigenResult:
    """Converged (or best-effort) eigenpair with solver diagnostics.

    stop_reason says why minimize_first stopped: "grad" (gradient norm at most
    tol_grad), "rel_drop" (an accepted step lowered the quotient by at most
    tol_rel_q relatively), "no_descent" (the line search found no decrease)
    or "max_iters".  converged is true for the first two.  evals counts
    quotient-and-gradient evaluations, and hess_products the Hessian
    products of the conjugate-gradient inner iterations.  orbits is the
    number of unknowns solved for: the orbits of inside nodes under the
    lattice's reflection symmetries, which is the number of inside nodes on
    a lattice with none.

    The direct p = 2 solve leaves stop_reason, evals and hess_products at
    their defaults, has no final_grad_norm (None), and reports its
    eigen-residual |A v - lam h^n v| in residual, which minimize_first
    leaves None.
    """

    lam: float
    u: GridFunction
    iters: int
    final_grad_norm: Optional[float]
    converged: bool
    stop_reason: Optional[str] = None
    evals: int = 0
    hess_products: int = 0
    orbits: Optional[int] = None
    residual: Optional[float] = None


def _initial_vector(dom: GridDomain, opts: SolverOptions,
                    tables: QuotientTables) -> np.ndarray:
    """Start vector in orbit values."""
    if opts.init_mode == "random":
        return np.random.default_rng(opts.seed).standard_normal(tables.orbits)
    if opts.init_mode == "distance":
        return tables.fold(dom.inside_distance)
    v = np.asarray(opts.init_values, dtype=float).copy()
    if v.shape != (dom.inside_count,):
        raise ValueError(
            f"init_values must hold {dom.inside_count} inside values, got {v.shape}"
        )
    if not np.isfinite(v).all() or not np.any(v):
        raise ValueError("init_values must be finite and not identically zero")
    v = tables.fold(v)
    if not np.any(v):
        raise ValueError("init_values average to zero on every orbit of the lattice's "
                         "reflection symmetries, which leaves no invariant start")
    return v


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as numpy's pairwise sum: a BLAS dot would tie the result to the
    BLAS thread count."""
    return float((a * b).sum())


def _newton_direction(grad: np.ndarray, radial: np.ndarray, scale: np.ndarray,
                      product: Callable[[np.ndarray], np.ndarray]):
    """Truncated Newton direction by Steihaug's projected, preconditioned CG.

    Solves H d = -grad approximately on the complement of the unit vector
    `radial`, which the 0-homogeneous quotient leaves flat at its minimizer,
    with H given through its product and preconditioned by the positive
    diagonal `scale`.  CG stops once the residual is at most eta |grad|,
    eta = min(0.5, sqrt(|grad|)), or when it meets a direction of
    nonpositive curvature: it then returns the current iterate, or, on the
    first step, the preconditioned negative gradient.  Returns the direction
    and the number of products.
    """
    def project(x):
        return x - _dot(x, radial) * radial

    grad_norm = math.sqrt(_dot(grad, grad))
    tol = min(0.5, math.sqrt(grad_norm)) * grad_norm
    x = np.zeros_like(grad)
    res = project(-grad)
    pre = project(res / scale)
    d, rho = pre, _dot(res, pre)
    for k in range(1, grad.size + 1):
        hd = project(product(d))
        curv = _dot(d, hd)
        if curv <= 0.0:
            return (pre if k == 1 else x), k
        step = rho / curv
        x += step * d
        res -= step * hd
        if math.sqrt(_dot(res, res)) <= tol:
            break
        pre = project(res / scale)
        rho, rho_prev = _dot(res, pre), rho
        if rho == 0.0:  # the preconditioned residual underflowed: nothing left to solve
            break
        d = pre + (rho / rho_prev) * d
    return x, k


def minimize_first(dom: GridDomain, prm: FracParams,
                   opts: Optional[SolverOptions] = None) -> EigenResult:
    """Minimize the discrete quotient by projected truncated Newton descent.

    Each iteration tries the Newton-CG direction of `_newton_direction`
    from step 1; when it does not descend or its line search finds no
    decrease, the negative gradient from the adaptive steepest-descent step
    seeded by step0 in the same iteration.  A trial is accepted on an Armijo
    decrease; otherwise the step shrinks by backtrack_factor.  A Newton
    step that lowers the quotient by at most tol_rel_q relatively, which
    would stop the run, may only mean that the Newton model failed, as when
    its slope is below the rounding of q: steepest descent is searched as
    well and the lower point taken.  From random sign-changing starts at p = 32 this
    is what keeps the descent from stopping far above the minimum.  A Newton
    direction longer than the iterate is cut to its length before the
    search.  The Hessian's diagonal costs one pair pass per iteration and
    each CG product one more; hess_products counts the products.

    The quotient is non-increasing across iterations; the run stops when the
    gradient norm falls below tol_grad, when an accepted step changes the
    quotient by less than tol_rel_q relatively, when no step descends, or at
    max_iters (reported as converged=False; never an exception).  The
    result is normalized to sum |u|^p h^n = 1 with its largest value
    positive.
    """
    opts = opts or SolverOptions()
    tables = QuotientTables(dom, prm, lattice_symmetries(dom))
    # the iterates are z_I = sqrt(|I|) v_I over the orbit values v_I: inner
    # products and norms of z are those of the expanded vectors, so the
    # directions, steps and gradient norm are the full problem's, restricted
    # to invariant vectors (with one node per orbit, z is v)
    root = np.sqrt(tables.sizes)
    evals = products = 0

    def evaluate(z):
        nonlocal evals
        evals += 1
        q, g = tables.value_and_grad(z / root)
        return q, g / root

    def line_search(z, q, d, slope, step):
        """First Armijo point z + step * d along a descent direction, or None."""
        dnorm = max(math.sqrt(_dot(d, d)), 1.0)
        while step * dnorm > 1e-20:
            w = z + step * d
            if np.any(w) and np.isfinite(w).all():
                qw, gw = evaluate(w)
                if math.isfinite(qw) and qw <= q + _ARMIJO * step * slope:
                    return step, w, qw, gw
            step *= opts.backtrack_factor
        return None

    z = tables.normalize(_initial_vector(dom, opts, tables)) * root
    q, g = evaluate(z)

    sd_step = opts.step0
    stop = "max_iters"
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        grad_norm = math.sqrt(_dot(g, g))
        if grad_norm <= opts.tol_grad:
            stop = "grad"
            iters -= 1
            break

        # the Hessian in z is the one in v scaled by 1 / root on both sides
        diag, convex, product = tables.hessian(z / root, q, g * root)
        # Jacobi, but never below a share of the convex numerator's diagonal:
        # H's own diagonal is a difference that can be tiny or negative
        scale = np.maximum(diag, _JACOBI_FLOOR * convex) / tables.sizes
        scale[scale <= 0.0] = scale.max()  # no curvature left at all: the most cautious scale
        znorm = math.sqrt(_dot(z, z))
        d, count = _newton_direction(g, z / znorm, scale, lambda x: product(x / root) / root)
        products += count
        # d is orthogonal to z and the quotient 0-homogeneous: a step longer
        # than z turns it by more than 45 degrees, where no quadratic model holds
        dnorm = math.sqrt(_dot(d, d))
        if dnorm > znorm:
            d *= znorm / dnorm
        slope = _dot(d, g)
        trial = line_search(z, q, d, slope, 1.0) if slope < 0.0 else None
        if trial is None or q - trial[2] <= opts.tol_rel_q * max(1.0, abs(trial[2])):
            # no Newton step, or one that would stop the run: steepest descent
            # as well, and the lower of the two
            fallback = line_search(z, q, -g, -grad_norm * grad_norm, sd_step * _STEP_GROWTH)
            if fallback is not None and (trial is None or fallback[2] < trial[2]):
                trial = fallback
                sd_step = fallback[0]
            if trial is None:
                # descent direction exhausted at this precision
                stop = "no_descent"
                break

        _, w, qw, gw = trial
        # the quotient is 0-homogeneous: the gradient at w / c is c * grad(w)
        c = tables.norm(w / root)
        z, g = w / c, gw * c
        drop = q - qw
        q = qw
        if drop <= opts.tol_rel_q * max(1.0, abs(q)):
            stop = "rel_drop"
            break

    # the quotient is even, so the sign is free: the largest value is made
    # positive, as in p2_oracle, and every start ends at the same eigenfunction
    v = z / root
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    u = GridFunction.from_inside(dom, tables.expand(v))
    return EigenResult(lam=float(q), u=u, iters=iters,
                       final_grad_norm=math.sqrt(_dot(g, g)),
                       converged=stop in ("grad", "rel_drop"),
                       stop_reason=stop, evals=evals, hess_products=products,
                       orbits=tables.orbits)


# ---------------------------------------------------------------------------
# p = 2 oracle: explicit quadratic form + dense symmetric eigensolver
# ---------------------------------------------------------------------------


# Peak memory of p2_oracle in m x m double arrays: the matrix, then eigh's
# copy of it, its eigenvectors and its workspace.  The measured peak RSS rise
# (1D, alpha = 0.75) was 5.38 arrays at m = 1,599 and 5.15 at m = 3,199.
_ORACLE_ARRAYS = 5.5


def p2_matrix(dom: GridDomain, alpha: float) -> np.ndarray:
    """Symmetric matrix A with E(v) = v^T A v for the p = 2 discrete energy.

    Off-diagonal entries are -2 w_xy (w = kernel weight times h^(2n)); the
    diagonal carries the pair row sums plus each node's cross/tail coefficient.
    """
    tables = QuotientTables(dom, FracParams(alpha, 2.0))  # checks n < 2 alpha < n + 2
    a = tables.holder  # squared and scaled in place: the tables are local
    a **= 2
    a *= tables.h2n  # w = |x_i - x_j|^(-2 alpha) h^(2n)
    diag = 2.0 * a.sum(axis=1) + tables.ct_coef
    a *= -2.0
    np.fill_diagonal(a, diag)
    return a


def p2_oracle(dom: GridDomain, alpha: float) -> EigenResult:
    """Smallest eigenpair of the p = 2 problem from a dense eigensolver.

    The generalized problem A v = lam h^n v is the ordinary symmetric problem
    for A scaled by h^-n; numpy.linalg.eigh computes every eigenpair in
    ascending order and the first is kept.  residual holds |A v - lam h^n v|.
    Independent of the descent code path on purpose: it keeps the full m x m
    matrix on every lattice, symmetric or not.

    Raises ValueError, before building anything, unless n < 2 alpha < n + 2
    and unless _ORACLE_ARRAYS m x m double arrays fit in physical memory.
    """
    FracParams(alpha, 2.0).validate_for_dim(dom.dim)
    m = dom.inside_count
    _check_memory(int(_ORACLE_ARRAYS * 8 * m * m), f"p = 2 oracle arrays for {m} inside nodes")
    a = p2_matrix(dom, alpha)
    hn = dom.h ** dom.dim
    evals, vecs = np.linalg.eigh(a)
    lam = float(evals[0]) / hn
    v = vecs[:, 0]
    # fix sign (make the dominant node positive) and normalize sum u^2 h^n = 1
    v = v * np.sign(v[int(np.argmax(np.abs(v)))])
    v = v / (math.sqrt(hn) * np.linalg.norm(v))
    resid = float(np.linalg.norm(a @ v - lam * hn * v))
    return EigenResult(lam=lam, u=GridFunction.from_inside(dom, v), iters=0,
                       final_grad_norm=None, converged=True,
                       orbits=dom.inside_count, residual=resid)


# ---------------------------------------------------------------------------
# sweeps and comparisons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PSweepRow:
    p: float
    lam: float
    root: float  # lam ** (1/p)
    converged: bool
    iters: int
    stop_reason: str
    evals: int
    hess_products: int
    orbits: int


@dataclass(eq=False)
class PSweepResult:
    rows: List[PSweepRow]
    target: float  # 1 / R^alpha, the large-p limit of root
    final_u: Optional[GridFunction] = None  # minimizer at the largest p

    def gaps(self) -> List[float]:
        return [abs(r.root - self.target) for r in self.rows]


def p_sweep(dom: GridDomain, alpha: float, ps: Sequence[float],
            opts: Optional[SolverOptions] = None) -> PSweepResult:
    """Solve the first eigenpair along an ascending list of p, warm-starting
    each solve from the previous minimizer, and report lam, lam^(1/p) and the
    limit target 1/R^alpha, `lambda_infinity`.

    Before the first solve, every p must be ascending, make valid
    `FracParams` and lie in the exponent window n < alpha p < n + p, or
    ValueError is raised.  The finiteness of the kernel coefficients is
    checked where each p's tables are built, at its solve: a p whose
    nearest-pair kernel h^(-alpha p) overflows raises ValueError there,
    after the smaller p have been solved."""
    ps = [float(p) for p in ps]
    if not ps:
        raise ValueError("empty p list")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError(f"p list must be strictly ascending, got {ps}")
    params = [FracParams(alpha, p) for p in ps]
    for prm in params:
        prm.validate_for_dim(dom.dim)
    opts = opts or SolverOptions()

    rows: List[PSweepRow] = []
    warm: Optional[np.ndarray] = None
    for p, prm in zip(ps, params):
        run_opts = opts if warm is None else replace(
            opts, init_mode="custom", init_values=warm)
        res = minimize_first(dom, prm, run_opts)
        rows.append(PSweepRow(p=p, lam=res.lam,
                              root=math.exp(math.log(res.lam) / p),
                              converged=res.converged, iters=res.iters,
                              stop_reason=res.stop_reason, evals=res.evals,
                              hess_products=res.hess_products, orbits=res.orbits))
        warm = res.u.inside_values()
        last_u = res.u
    return PSweepResult(rows=rows, target=lambda_infinity(dom, alpha), final_u=last_u)


def monotonicity_check(dom_omega: GridDomain, dom_upsilon: GridDomain,
                       prm: FracParams,
                       opts: Optional[SolverOptions] = None) -> bool:
    """Verify lam1(Omega) <= lam1(Upsilon) for Upsilon a sub-mask of Omega.

    Both domains must share the identical lattice and box so the two discrete
    problems are nested.  Returns the inequality verdict with an additive
    solver tolerance; raises for mismatched lattices or non-nested masks.
    """
    if not dom_omega.same_lattice(dom_upsilon):
        raise ValueError("domains live on different lattices")
    extra = dom_upsilon.inside_flat & ~dom_omega.inside_flat
    if np.any(extra):
        raise ValueError("second domain is not contained in the first")
    lam_omega = minimize_first(dom_omega, prm, opts).lam
    lam_upsilon = minimize_first(dom_upsilon, prm, opts).lam
    tol = 1e-8 * max(1.0, abs(lam_upsilon))
    return lam_omega <= lam_upsilon + tol
