"""Gaussian-process machinery and the uncertainty-driven samplers.

The decision function is modelled as a zero-mean GP with a squared
exponential kernel, regressing directly on class indices.  Sampling then
chases an acquisition score that is large where the posterior variance is
high and where the posterior mean sits between integer labels, i.e. near a
class transition.  The sampler amortizes posterior fits over batches and
caps the conditioning set; at `cap = N` and `slowness = N` it refits on
every sample after each point, the fully re-optimized variant.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError  # the very class scipy.linalg raises

from .config import FastBayesParams, check_kernel
from .core import (
    CopySamplerError, RandomSource, SampleLedger, SyntheticDataset, round_half_up,
)
from .oracles import Oracle

log = logging.getLogger(__name__)

# Initial jitter is kept tiny so the posterior still interpolates its
# support to ~1e-6; escalation covers genuinely degenerate fits.
JITTER_INITIAL_FACTOR = 1e-12
JITTER_MAX_FACTOR = 1e-4


# The posterior calls LAPACK's dpotrf and dtrtrs itself, with the arguments
# scipy.linalg's cholesky and solve_triangular pass them, so it gets their
# bits without their per-call wrapping: each input is checked for
# finiteness once, where it enters the posterior, not on every solve.
# Both come from scipy's compiled LAPACK module, loaded at the first fit
# (see `_lapack`), so a process that never fits a GP (a non-bayesian sweep,
# an oracle server) loads no scipy at all, and one that does loads only
# that extension.
_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's compiled LAPACK module, `scipy.linalg._flapack`.

    `scipy.linalg.lapack` re-exports its functions, but importing that runs
    the package inits of scipy and scipy.linalg: some 85 scipy modules plus
    numpy.f2py, numpy.testing and numpy.ma, about 0.17 s and 23 MB per
    process, against about 4 ms and 2.6 MB for the extension file alone
    (README gives the measurement).  So the file is loaded on its own and
    registered under its name, which a later `import scipy.linalg` reuses.
    Should that fail (a platform whose scipy sets up library paths in its
    package init), the module is imported through scipy as usual.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        try:
            module = _load_flapack()
        except (ImportError, OSError):
            from scipy.linalg import _flapack as module
    return module


def _load_flapack():
    """Load scipy's `linalg/_flapack` extension file and register it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_FLAPACK)
    if spec is None:
        raise ImportError(f"no {_FLAPACK} extension file in scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def cholesky(a: np.ndarray, lower: bool) -> np.ndarray:
    """`scipy.linalg.cholesky(a, lower=lower)` of a finite float64 matrix.

    The factor comes back in Fortran order, with its other triangle zeroed.
    """
    c, info = _lapack().dpotrf(a, lower=lower, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """`scipy.linalg.solve_triangular(a, b, lower=lower)` of finite float64 arrays.

    dtrtrs reads Fortran order, so a C-ordered `a` is passed as `a.T`, which
    is Fortran-ordered, with the transposed system and the other triangle:
    scipy's rule, and the one that keeps its bits.
    """
    dtrtrs = _lapack().dtrtrs
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`."""
    a = a.view()
    a.flags.writeable = False
    return a


class PosteriorFitError(CopySamplerError):
    """Covariance stayed non-positive-definite after jitter escalation."""


@dataclass(frozen=True)
class SEKernel:
    """Squared exponential covariance: variance * exp(-|z - z'|^2 / (2 l^2))."""

    length_scale: float
    variance: float

    def __post_init__(self):
        check_kernel(self.length_scale, self.variance)

    @classmethod
    def for_problem(cls, d: int, k: int, length_scale: float | None = None,
                    variance: float | None = None) -> "SEKernel":
        """Unset hyperparameters default to l = 0.5 sqrt(d), variance = 0.25 k^2."""
        return cls(length_scale=0.5 * math.sqrt(d) if length_scale is None else length_scale,
                   variance=0.25 * k * k if variance is None else variance)

    def matrix(self, A: np.ndarray, B: np.ndarray,
               A_sq: np.ndarray | None = None) -> np.ndarray:
        """The (len(A), len(B)) covariance; `A_sq`, if given, is (A * A).sum(axis=1).

        The bits of variance * exp(-max(|a|^2 + |b|^2 - 2 a.b, 0) / (2 l^2)),
        built in one array in fewer passes: each row starts as |b|^2 and gets
        its |a|^2 added (a + b == b + a), the sign goes into the divisor
        (x / -c == -(x / c)), and the clamp comes after the division, since
        exp(min(x / -c, 0)) == exp(-max(x, 0) / c) for every x, ±0 and ±inf
        included, as c = 2 l^2 is finite and > 0 (the constructor checks).
        A NaN x gives NaN both ways (its sign bit may differ; the posterior
        rejects it anyway).
        """
        A = np.atleast_2d(A)
        B = np.atleast_2d(B)
        if A_sq is None:
            A_sq = (A * A).sum(axis=1)
        B_sq = A_sq if B is A else (B * B).sum(axis=1)
        AB = A @ B.T
        AB *= 2.0
        sq = np.empty_like(AB)
        sq[...] = B_sq
        sq += A_sq[:, None]
        sq -= AB
        sq /= -2.0 * self.length_scale**2
        np.minimum(sq, 0.0, out=sq)
        np.exp(sq, out=sq)
        sq *= self.variance
        return sq


class GPPosterior:
    """Zero-mean GP conditioned on labelled support; immutable after fit.

    `factor` is the lower Cholesky factor of K + jitter * I.  The targets
    and the factor are checked for finiteness once, here; `mean_var` checks
    only the cross-covariance it builds.  The support, the factor, the
    weights alpha = (K + jitter * I)^-1 y and the support's squared norms,
    which every `mean_var` call reuses, are kept as read-only views.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, kern: SEKernel,
                 factor: np.ndarray, jitter: float):
        _check_finite(y)
        _check_finite(factor)
        self.support_X = _frozen(X)
        self.support_y = _frozen(y)
        self.kernel = kern
        self.factor = _frozen(factor)
        self.jitter = jitter
        self._support_sq = _frozen((X * X).sum(axis=1))
        tmp = solve_triangular(factor, y, lower=True)
        self._alpha = _frozen(solve_triangular(factor.T, tmp, lower=False))

    def mean_var(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of Z."""
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        Ks = self.kernel.matrix(self.support_X, Z, self._support_sq)
        _check_finite(Ks)
        mu = Ks.T @ self._alpha
        V = solve_triangular(self.factor, Ks, lower=True)
        V *= V
        var = self.kernel.variance - V.sum(axis=0)
        np.maximum(var, 0.0, out=var)
        return mu, var


def posterior_fit(X: np.ndarray, y: np.ndarray, kern: SEKernel,
                  jitter: float | None = None) -> GPPosterior:
    """Condition a zero-mean GP on (X, y) with class indices as targets.

    The diagonal jitter starts at 1e-12 * variance, or at `jitter`, and
    doubles on each factorization failure, giving up at 1e-4 * variance.
    It must start finite and > 0, or doubling would never reach the cap.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.shape[0] < 1:
        raise ValueError("need at least one support sample")
    if X.shape[0] != y.shape[0]:
        raise ValueError("support point/target mismatch")
    jit = JITTER_INITIAL_FACTOR * kern.variance if jitter is None else float(jitter)
    cap = JITTER_MAX_FACTOR * kern.variance
    K = kern.matrix(X, X)
    _check_finite(K)
    if not 0 < jit < math.inf:
        raise ValueError(f"jitter must be finite and > 0, got {jit}")
    diag = K.diagonal().copy()
    while True:
        np.fill_diagonal(K, diag + jit)
        try:
            L = cholesky(K, lower=True)
            return GPPosterior(X, y, kern, L, jit)
        except LinAlgError:
            jit *= 2.0
            if jit > cap:
                raise PosteriorFitError(
                    f"covariance not positive definite up to jitter {cap:g}"
                ) from None


def acquisition_value(mu, var, tau: float):
    """var * [1 + tau * frac(mu)^2 (1 - frac(mu))^2] with frac(x) = x - floor(x)."""
    mu = np.asarray(mu, dtype=np.float64)
    frac = mu - np.floor(mu)
    return np.asarray(var, dtype=np.float64) * (1.0 + tau * frac**2 * (1.0 - frac) ** 2)


# The local search is confined to a box of this half-width around its
# restart point.  Keeping it genuinely local stops independent restarts
# within one batch from collapsing onto a shared acquisition maximum.
NEIGHBOURHOOD_RADIUS = 0.075


def maximize_acquisition(
    gp: GPPosterior,
    z0: np.ndarray,
    iters: int,
    rng: RandomSource,
    tau: float = FastBayesParams.tau,
) -> np.ndarray:
    """Derivative-free ascent of the acquisition in a neighbourhood of z0.

    Pattern search: per round, probe +-h along each axis plus one random
    direction, move to the best improving candidate, halve h otherwise.
    Candidates are clipped to the box of half-width `NEIGHBOURHOOD_RADIUS`
    around z0 intersected with the hypercube, so the result stays near its
    restart point and never scores below it.  Draws `iters` normal
    directions.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    U = rng.normal((iters, z0.shape[0]))
    return _pattern_search(gp, z0[None, :], U[None], tau)[0]


def _pattern_search(gp, Z0, U, tau):
    """Run the pattern search of `maximize_acquisition` from each row of Z0.

    The R restarts step in lockstep, so each round makes one `mean_var`
    call over all R * (2d + 2) candidates.  Restart r takes its random
    direction of round t from U[r, t]; each keeps its own step, box and
    best value, so a restart's path is the one it would take alone.
    """
    Z0 = np.clip(Z0, 0.0, 1.0)
    R, d = Z0.shape
    lo = np.maximum(Z0 - NEIGHBOURHOOD_RADIUS, 0.0)[:, None, :]
    hi = np.minimum(Z0 + NEIGHBOURHOOD_RADIUS, 1.0)[:, None, :]
    Z = Z0.copy()
    mu, var = gp.mean_var(Z)
    best = acquisition_value(mu, var, tau)
    h = np.full(R, 2.0 * NEIGHBOURHOOD_RADIUS / 3.0)
    axis = np.arange(d)
    axes = np.zeros((2 * d, d))
    axes[2 * axis, axis] = 1.0
    axes[2 * axis + 1, axis] = -1.0
    # the dot routine np.linalg.norm uses on one vector, so the bits match
    norms = np.sqrt(np.matmul(U[..., None, :], U[..., :, None]))[..., 0, 0]
    rows = np.arange(R)
    for t in range(U.shape[1]):
        live = norms[:, t] > 0
        step = np.zeros((R, d))
        step[live] = (h[live, None] * U[live, t]) / norms[live, t][:, None]
        moves = np.concatenate(
            [h[:, None, None] * axes, step[:, None], -step[:, None]], axis=1)
        cands = np.clip(Z[:, None, :] + moves, lo, hi)
        mu, var = gp.mean_var(cands.reshape(-1, d))
        vals = acquisition_value(mu, var, tau).reshape(R, -1)
        j = np.argmax(vals, axis=1)
        top = vals[rows, j]
        up = top > best
        Z[up] = cands[rows[up], j[up]]
        best[up] = top[up]
        h[~up] *= 0.5
    return Z


def fast_bayesian_sampler(
    N: int,
    oracle: Oracle,
    params: FastBayesParams | None = None,
    *,
    rng: RandomSource,
    progress=None,
) -> SyntheticDataset:
    """Batched uncertainty sampling with a capped posterior.

    Starts from `init_count` uniform labelled points, then repeatedly fits
    one posterior on at most `cap` samples and spends it on a batch of
    max(1, round(|support| / slowness)) acquisition maximizations, each
    started from an independent uniform restart and all searched in
    lockstep, one posterior evaluation per step.  Conditioning subsets are
    drawn uniformly without replacement whenever the sample pool exceeds
    the cap.  With `cap = N` and `slowness = N` no subset is drawn and
    every batch is one restart, so the posterior is refit on all samples
    after every point: the fully re-optimized variant, cubic in N.  The
    acquisition's `tau` and the kernel's values come from `params` too.
    """
    params = params or FastBayesParams()
    kern = SEKernel.for_problem(oracle.d, oracle.k, params.length_scale, params.variance)
    if N < params.init_count:
        raise ValueError(f"budget N={N} below the uniform init count {params.init_count}")
    ledger = SampleLedger(oracle, N, progress)
    ledger.label(rng.uniform((params.init_count, oracle.d)))
    fits = 0
    fallback_batches = 0
    while len(ledger) < N:
        X = ledger.X
        yv = ledger.y.astype(np.float64)
        if len(ledger) > params.cap:
            idx = rng.subset(len(ledger), params.cap)
            X, yv = X[idx], yv[idx]
        try:
            gp = posterior_fit(X, yv, kern)
            fits += 1
        except PosteriorFitError:
            gp = None
            fallback_batches += 1
            log.warning("posterior fit failed at %d samples; uniform batch", len(ledger))
        batch = max(1, round_half_up(X.shape[0] / params.slowness))
        count = min(batch, N - len(ledger))
        # Each restart draws its uniform start and then, if the fit held,
        # its directions: the order of the one-restart search.
        Z0 = np.empty((count, oracle.d))
        U = np.empty((count, params.local_iters, oracle.d))
        for r in range(count):
            Z0[r] = rng.uniform(oracle.d)
            if gp is not None:
                U[r] = rng.normal((params.local_iters, oracle.d))
        Z = Z0 if gp is None else _pattern_search(gp, Z0, U, params.tau)
        ledger.label(Z)
    return ledger.dataset("bayesian", rng.seed, {
        "posterior_fits": fits,
        "fallback_batches": fallback_batches,
        "cap": params.cap,
        "slowness": params.slowness,
        "tau": params.tau,
        "length_scale": kern.length_scale,
        "kernel_variance": kern.variance,
    })

