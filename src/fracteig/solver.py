"""First-eigenpair minimization of the discrete fractional Rayleigh quotient.

`minimize_first` runs a projected limited-memory BFGS descent with a
backtracking Armijo line search.  Search directions come from the L-BFGS
two-loop recursion over the last few (step, gradient change) pairs, with a
steepest-descent restart whenever that memory is empty or fails to give a
descent direction.  Iterates are renormalized to sum |u|^p h^n = 1 after
every accepted step (the quotient is scale-free, so renormalizing never
changes it).  Each trial point costs one fused quotient-and-gradient pass.

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
from collections import deque
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .energy import FracParams, QuotientTables, _coefficients
from .geometry import (
    GridDomain,
    GridFunction,
    distance_to_complement,
    inscribed_radius,
    lattice_symmetries,
)

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
_MEMORY = 10  # (s, y) pairs kept for the L-BFGS two-loop recursion


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for minimize_first.

    step0 and backtrack_factor shape the steepest-descent restarts only: the
    first such trial step is 2 * step0, and every restart begins at twice
    the last accepted steepest-descent step.  Quasi-Newton trials always
    start at step 1; both kinds backtrack by backtrack_factor.

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
            value = getattr(self, name)
            # a bool is an int to Python, but True is no iteration count or seed
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol_rel_q > 0.0 and self.tol_grad > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.step0 > 0.0):
            raise ValueError("step0 must be positive")
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
    quotient-and-gradient evaluations.  orbits is the number of unknowns
    solved for: the orbits of inside nodes under the lattice's reflection
    symmetries, which is the number of inside nodes on a lattice with none.

    The direct p = 2 solve leaves stop_reason and evals at their defaults,
    has no final_grad_norm (None), and reports its eigen-residual
    |A v - lam h^n v| in residual, which minimize_first leaves None.
    """

    lam: float
    u: GridFunction
    iters: int
    final_grad_norm: Optional[float]
    converged: bool
    stop_reason: Optional[str] = None
    evals: int = 0
    orbits: Optional[int] = None
    residual: Optional[float] = None


def _initial_vector(dom: GridDomain, opts: SolverOptions,
                    tables: QuotientTables) -> np.ndarray:
    """Start vector in orbit values."""
    if opts.init_mode == "random":
        rng = np.random.default_rng(opts.seed)
        v = rng.standard_normal(tables.orbits)
        while not np.any(v):  # pragma: no cover - essentially impossible
            v = rng.standard_normal(tables.orbits)
        return v
    if opts.init_mode == "distance":
        return tables.fold(distance_to_complement(dom).inside_values())
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


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g for the L-BFGS inverse-Hessian estimate H built from (s, y, 1/s.y)."""
    d = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ d)
        d -= a * y
        alphas.append(a)
    s, y, _ = pairs[-1]
    d *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        d += (a - rho * float(y @ d)) * s
    return -d


def minimize_first(dom: GridDomain, prm: FracParams,
                   opts: Optional[SolverOptions] = None) -> EigenResult:
    """Minimize the discrete quotient by projected L-BFGS descent.

    Each iteration tries the L-BFGS direction from step 1, or, when the
    memory is empty or that direction does not descend, the negative
    gradient from the adaptive steepest-descent step seeded by step0.  A trial
    is accepted on an Armijo decrease; otherwise the step shrinks by
    backtrack_factor.  A quasi-Newton search that finds no decrease clears
    the memory and falls back to steepest descent in the same iteration.

    The quotient is non-increasing across iterations; the run stops when the
    gradient norm falls below tol_grad, when an accepted step changes the
    quotient by less than tol_rel_q relatively, when no step descends, or at
    max_iters (reported as converged=False; never an exception).
    """
    opts = opts or SolverOptions()
    tables = QuotientTables(dom, prm, lattice_symmetries(dom))
    # the iterates are z_I = sqrt(|I|) v_I over the orbit values v_I: inner
    # products and norms of z are those of the expanded vectors, so the
    # directions, steps and gradient norm are the full problem's, restricted
    # to invariant vectors (with one node per orbit, z is v)
    root = np.sqrt(tables.sizes)
    evals = 0

    def evaluate(z):
        nonlocal evals
        evals += 1
        q, g = tables.value_and_grad(z / root)
        return q, g / root

    def line_search(z, q, d, slope, step):
        """First Armijo point z + step * d along a descent direction, or None."""
        dnorm = max(float(np.linalg.norm(d)), 1.0)
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
    pairs = deque(maxlen=_MEMORY)

    sd_step = opts.step0
    stop = "max_iters"
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= opts.tol_grad:
            stop = "grad"
            iters -= 1
            break

        trial = None
        if pairs:
            d = _lbfgs_direction(g, pairs)
            slope = float(d @ g)
            if slope < 0.0:
                trial = line_search(z, q, d, slope, 1.0)
        if trial is None:
            pairs.clear()
            trial = line_search(z, q, -g, -grad_norm * grad_norm, sd_step * _STEP_GROWTH)
            if trial is None:
                # descent direction exhausted at this precision
                stop = "no_descent"
                break
            sd_step = trial[0]

        _, w, qw, gw = trial
        # the quotient is 0-homogeneous: the gradient at w / c is c * grad(w)
        c = tables.norm(w / root)
        z_next, g_next = w / c, gw * c
        s, y = z_next - z, g_next - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        z, g = z_next, g_next
        drop = q - qw
        q = qw
        if drop <= opts.tol_rel_q * max(1.0, abs(q)):
            stop = "rel_drop"
            break

    u = GridFunction.from_inside(dom, tables.expand(z / root))
    return EigenResult(lam=float(q), u=u, iters=iters,
                       final_grad_norm=float(np.linalg.norm(g)),
                       converged=stop in ("grad", "rel_drop"),
                       stop_reason=stop, evals=evals,
                       orbits=tables.orbits)


# ---------------------------------------------------------------------------
# p = 2 oracle: explicit quadratic form + dense symmetric eigensolver
# ---------------------------------------------------------------------------


def p2_matrix(dom: GridDomain, alpha: float) -> np.ndarray:
    """Symmetric matrix A with E(v) = v^T A v for the p = 2 discrete energy.

    Off-diagonal entries are -2 w_xy (w = kernel weight times h^(2n)); the
    diagonal carries the pair row sums plus each node's cross/tail coefficient.
    """
    prm = FracParams(alpha, 2.0)
    n = dom.dim
    if not (n < 2.0 * alpha < n + 2.0):
        raise ValueError(
            f"invalid exponents for p=2: alpha*p = {2.0 * alpha} not in ({n}, {n + 2})"
        )
    tables = QuotientTables(dom, prm)
    w = tables.holder ** 2 * tables.h2n  # |x_i - x_j|^(-2 alpha) h^(2n)
    a = -2.0 * w
    np.fill_diagonal(a, 2.0 * w.sum(axis=1) + tables.ct_coef)
    return a


def p2_oracle(dom: GridDomain, alpha: float) -> EigenResult:
    """Smallest eigenpair of the p = 2 problem from a dense eigensolver.

    The generalized problem A v = lam h^n v is the ordinary symmetric problem
    for A scaled by h^-n; numpy.linalg.eigh computes every eigenpair in
    ascending order and the first is kept.  residual holds |A v - lam h^n v|.
    Independent of the descent code path on purpose: it keeps the full m x m
    matrix on every lattice, symmetric or not.
    """
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
    limit target 1/R^alpha.

    The exponent window and the finiteness of every node's kernel
    coefficients are checked for each p before the first solve, so a p that
    fails them raises ValueError before any p is solved."""
    ps = [float(p) for p in ps]
    if not ps:
        raise ValueError("empty p list")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError(f"p list must be strictly ascending, got {ps}")
    opts = opts or SolverOptions()
    labels = np.arange(dom.inside_count)  # one orbit per node: the per-node coefficients
    for p in ps:
        _coefficients(dom, FracParams(alpha, p), labels, labels.size)

    radius = inscribed_radius(distance_to_complement(dom))
    target = radius ** (-alpha)

    rows: List[PSweepRow] = []
    warm: Optional[np.ndarray] = None
    for p in ps:
        run_opts = opts if warm is None else replace(
            opts, init_mode="custom", init_values=warm)
        res = minimize_first(dom, FracParams(alpha, p), run_opts)
        rows.append(PSweepRow(p=p, lam=res.lam,
                              root=math.exp(math.log(res.lam) / p),
                              converged=res.converged, iters=res.iters,
                              stop_reason=res.stop_reason, evals=res.evals,
                              orbits=res.orbits))
        warm = res.u.inside_values()
        last_u = res.u
    return PSweepResult(rows=rows, target=float(target), final_u=last_u)


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
