"""Two-parameter Chen lifetime distribution with bathtub-shaped hazard.

Provides densities, tail functions, the hazard rate, the closed-form
quantile and inverse-transform sampling.  All functions accept scalars
or numpy arrays and are pure given (params, input).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChenParams",
    "pdf",
    "cdf",
    "survival",
    "hazard",
    "quantile",
    "sample",
    "hazard_minimizer",
]


@dataclass(frozen=True)
class ChenParams:
    """Parameter pair (alpha, beta); both must be strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha!r}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive finite real, got {self.beta!r}")


def _as_array(x, name: str, low_open: bool):
    arr = np.asarray(x, dtype=float)
    if low_open:
        if np.any(arr <= 0):
            raise ValueError(f"{name} must be > 0")
    else:
        if np.any(arr < 0):
            raise ValueError(f"{name} must be >= 0")
    return arr


def _ret(arr, scalar_input: bool):
    return float(arr) if scalar_input else arr


def pdf(p: ChenParams, x):
    """Density alpha*beta*x^(beta-1)*exp(alpha*(1-e^(x^beta)) + x^beta).

    At x = 0 the density is 0 for beta > 1, alpha for beta = 1 and +inf
    for beta < 1 (integrable pole).
    """
    scalar = np.isscalar(x)
    x = _as_array(x, "x", low_open=False)
    t = x**p.beta
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = p.alpha * p.beta * x ** (p.beta - 1.0) * np.exp(t - p.alpha * np.expm1(t))
    at_zero = x == 0.0
    if np.any(at_zero):
        if p.beta > 1.0:
            limit = 0.0
        elif p.beta == 1.0:
            limit = p.alpha
        else:
            limit = np.inf
        out = np.where(at_zero, limit, out)
    return _ret(out, scalar)


def cdf(p: ChenParams, x):
    """Distribution function 1 - exp(alpha*(1-e^(x^beta)))."""
    scalar = np.isscalar(x)
    x = _as_array(x, "x", low_open=False)
    return _ret(_cdf(p.alpha, p.beta, x), scalar)


def _cdf(alpha, beta, x):
    """`cdf` with alpha and beta arrays that broadcast against x, for rows
    of samples that each have their own parameters; x is not checked."""
    with np.errstate(over="ignore"):
        return -np.expm1(-alpha * np.expm1(x**beta))


def survival(p: ChenParams, x):
    """Tail function exp(alpha*(1-e^(x^beta))); exact complement of cdf."""
    scalar = np.isscalar(x)
    x = _as_array(x, "x", low_open=False)
    with np.errstate(over="ignore"):
        out = np.exp(-p.alpha * np.expm1(x**p.beta))
    return _ret(out, scalar)


def hazard(p: ChenParams, x):
    """Hazard rate alpha*beta*x^(beta-1)*e^(x^beta); bathtub for beta < 1."""
    scalar = np.isscalar(x)
    x = _as_array(x, "x", low_open=True)
    with np.errstate(over="ignore"):
        out = p.alpha * p.beta * x ** (p.beta - 1.0) * np.exp(x**p.beta)
    return _ret(out, scalar)


def hazard_minimizer(p: ChenParams) -> float:
    """Location of the hazard minimum, ((1-beta)/beta)^(1/beta), for beta < 1."""
    if p.beta >= 1.0:
        raise ValueError("hazard is non-decreasing for beta >= 1; no interior minimum")
    return ((1.0 - p.beta) / p.beta) ** (1.0 / p.beta)


def quantile(p: ChenParams, u):
    """Inverse cdf: [ln(1 - ln(1-u)/alpha)]^(1/beta) for u in [0, 1)."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u >= 1.0)):
        raise ValueError("u must lie in [0, 1)")
    # -log1p(-u) keeps the deep lower tail exact
    return _ret(_from_cumulative_hazard(p, -np.log1p(-u)), scalar)


def _from_cumulative_hazard(p: ChenParams, h):
    """The time [ln(1 + h/alpha)]^(1/beta) at which the cumulative hazard
    alpha*(e^(x^beta) - 1) reaches h >= 0; inf where the power overflows."""
    with np.errstate(over="ignore"):
        return np.log1p(h / p.alpha) ** (1.0 / p.beta)


def sample(p: ChenParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` iid variates by inverse transform of uniforms."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.empty(0)
    return quantile(p, rng.random(count))
