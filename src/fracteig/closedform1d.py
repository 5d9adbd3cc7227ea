"""Closed-form eigenfunctions of the limiting equation on the interval (0, 2).

Three explicit profiles, each with its exact eigenvalue:

* first: positive, u = m / (m + |x-1|^alpha) with m = min(x, 2-x)^alpha,
  eigenvalue 1 (the inscribed radius of (0, 2) is 1);
* second: antisymmetric about x = 1 (u(2-x) = -u(x)), maximum at the break
  point a = 2 / (2^(1/alpha) + 2), eigenvalue (2^(1/alpha - 1) + 1)^alpha;
* third: symmetric about x = 1 (u(2-x) = u(x)), maximum at
  a = 1 / (2^(1/alpha) + 1), eigenvalue (1 + 2^(1/alpha))^alpha, with three
  nodal intervals of unequal length for alpha != 1.

Evaluators are vectorized, vanish outside (0, 2), and realize the mirror
symmetry structurally (the right half is computed by reflecting the left
half), so the symmetry identities are exact in floating point whenever the
mirrored argument 2 - x is exactly representable (dyadic grids).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .geometry import GridDomain, GridFunction, Interval, _check_alpha

__all__ = ["Example1D", "first_1d", "second_1d", "third_1d", "sample"]


@dataclass(frozen=True)
class Example1D:
    """A closed-form profile on (0, 2): kind, break point, eigenvalue, evaluator."""

    kind: str
    alpha: float
    a: Optional[float]
    lam: float
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


def _support_mask(x: np.ndarray) -> np.ndarray:
    return (x > 0.0) & (x < 2.0)


def _sign_changing(kind: str, alpha: float, a: float, lam: float, c: float,
                   mirror: float) -> Example1D:
    """Profile on (0, 2) built from its values on (0, 1].

    There it rises on (0, a] to its maximum 1 at the break point a, then
    follows ((c - x)^alpha - (x - a)^alpha) / ((c - x)^alpha + (x - a)^alpha),
    which vanishes at (a + c) / 2.  The right half is mirror * left(2 - x).
    With a = 1 and mirror = +1 it is the positive first profile.
    """

    def left(xs: np.ndarray) -> np.ndarray:
        out = np.empty_like(xs)
        lo = xs <= a
        xa, xb = xs[lo], xs[~lo]
        out[lo] = xa ** alpha / (xa ** alpha + (a - xa) ** alpha)
        num_hi = (c - xb) ** alpha
        num_lo = (xb - a) ** alpha
        out[~lo] = (num_hi - num_lo) / (num_hi + num_lo)
        return out

    def evaluator(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sup = _support_mask(x)
        xs = x[sup]
        vals = np.empty_like(xs)
        l = xs <= 1.0
        vals[l] = left(xs[l])
        vals[~l] = mirror * left(2.0 - xs[~l])
        out = np.zeros_like(x)
        out[sup] = vals
        return out

    return Example1D(kind=kind, alpha=alpha, a=a, lam=lam, evaluator=evaluator)


def first_1d(alpha: float) -> Example1D:
    """Positive profile with eigenvalue 1 on (0, 2)."""
    _check_alpha(alpha)
    # no break point inside (0, 1): the rise to 1 takes the whole left half
    return replace(_sign_changing("first", alpha, a=1.0, lam=1.0, c=1.0, mirror=1.0),
                   a=None)


def second_1d(alpha: float) -> Example1D:
    """Antisymmetric sign-changing profile; maximum at a = 2/(2^(1/alpha)+2)."""
    _check_alpha(alpha)
    a = 2.0 / (2.0 ** (1.0 / alpha) + 2.0)
    lam = (2.0 ** (1.0 / alpha - 1.0) + 1.0) ** alpha
    return _sign_changing("second", alpha, a, lam, c=2.0 - a, mirror=-1.0)


def third_1d(alpha: float) -> Example1D:
    """Symmetric sign-changing profile; maximum at a = 1/(2^(1/alpha)+1)."""
    _check_alpha(alpha)
    a = 1.0 / (2.0 ** (1.0 / alpha) + 1.0)
    lam = (1.0 + 2.0 ** (1.0 / alpha)) ** alpha
    return _sign_changing("third", alpha, a, lam, c=1.0, mirror=1.0)


def sample(example: Example1D, dom: GridDomain) -> GridFunction:
    """Evaluate a closed-form profile on an interval grid covering (0, 2),
    held at the inside nodes (`GridFunction.from_inside`): the evaluators
    are pointwise, so these are the values at those nodes of the whole axis."""
    tag = dom.shape_tag
    if dom.dim != 1 or not isinstance(tag, Interval):
        raise ValueError("sampling requires a canonical 1D interval grid")
    if abs(tag.a - 0.0) > 1e-12 or abs(tag.b - 2.0) > 1e-12:
        raise ValueError(f"grid covers ({tag.a}, {tag.b}); the profiles live on (0, 2)")
    return GridFunction.from_inside(dom, example(dom.axes[0][dom.inside_indices]))
