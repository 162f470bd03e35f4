"""Elliptical distribution families.

Each family couples a density generator with a sampler for the modular
variable R^2 of the stochastic representation  x = mu + R * L * s,  where
s is uniform on the unit sphere and L is the Cholesky factor of the
scatter matrix.  ``log_gen(t)`` returns the log of the *normalized*
generator, i.e. the density of a standard (mu=0, Sigma=I) member is
``exp(log_gen(t))`` with t the squared Mahalanobis distance.

The sliced objective needs one thing from a family: its projected kernel
c_m g(z^2), as an odd primitive and its slope, which each family holds as
one cached ``_projected_kernel`` object.  Kotz with a = 1 and s = 1, the
Gaussian among them, has it in closed form through erf; every other
family reads it from a PCHIP table built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import (
    DensityUnavailableError,
    GenerationError,
    InvalidFamilyError,
    NotPositiveDefiniteError,
    SupportError,
    UnsupportedGradientError,
    _integer,
    _real,
)

# Relative floor on the smallest eigenvalue of an admissible scatter matrix.
PD_FLOOR = 1e-10


def above_pd_floor(lam_min, trace, m: int):
    """The PD-floor rule: lam_min > PD_FLOOR * trace / m, elementwise."""
    return lam_min > PD_FLOOR * trace / m


def check_spd(sigma: np.ndarray) -> np.ndarray:
    """Validate a symmetric positive definite matrix, or a stack of them, and
    return it as float64.  Each smallest eigenvalue must clear the PD floor,
    so round-off noise is tolerated but singular matrices are rejected.

    The smallest eigenvalue is read with ``eigvalsh``, the routine the
    scatter retraction admits its points with, so a point it admitted
    passes here too, bit for bit (``eigh`` can read it a few ulps apart)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim not in (2, 3) or sigma.shape[-1] != sigma.shape[-2]:
        raise NotPositiveDefiniteError(f"expected a square matrix or a stack, got shape {sigma.shape}")
    scale = np.maximum(1.0, np.abs(sigma).max(axis=(-2, -1), initial=0.0))[..., None, None]
    if not np.all(np.abs(sigma - np.swapaxes(sigma, -1, -2)) <= 1e-8 * scale):
        raise NotPositiveDefiniteError("matrix is not symmetric")
    lam_min = np.linalg.eigvalsh(sigma)[..., 0]
    bad = ~above_pd_floor(lam_min, np.trace(sigma, axis1=-2, axis2=-1), sigma.shape[-1])
    if np.any(bad):
        raise NotPositiveDefiniteError(f"smallest eigenvalue {lam_min[bad].flat[0]:.3e} below the PD floor")
    return sigma


# erf(z) rounds to exactly +-1 from |z| = 5.93 on; ``_ErfKernel`` writes
# +-1 from here on without calling it
ERF_SATURATES = 6.0


class _ErfKernel(NamedTuple):
    """The projected kernel c exp(-b z^2) and its primitive in closed form:
    Phi(u) = c sqrt(pi) / (2 sqrt(b)) erf(sqrt(b) u) and Phi'(u) = c exp(-b u^2)."""

    log_c: float
    b: float
    sqrt_b: float
    phi_max: float  # Phi(inf) = c sqrt(pi) / (2 sqrt(b))

    def primitive(self, u):
        # sqrt(b) u overflows to inf only where erf is already 1
        with np.errstate(over="ignore"):
            z = self.sqrt_b * u
        # erf is exactly +-1 for |z| >= 6, yet scipy still takes its erfc
        # route there: evaluate it only inside, NaN included (a boolean
        # gather and scatter: scipy 1.17.1's erf with out= and where= gave
        # wrong values on an (8, 701) array, then aborted in malloc)
        inside = ~(np.abs(z) >= ERF_SATURATES)
        if z.ndim == 0:
            return self.phi_max * special.erf(z) if inside else np.copysign(self.phi_max, z)
        out = np.copysign(self.phi_max, z)
        out[inside] = self.phi_max * special.erf(z[inside])
        return out

    def slope(self, u):
        # exp(log_gen(u^2)) bit for bit; u u overflows to inf, which exp takes to 0
        with np.errstate(over="ignore"):
            return np.exp(self.log_c - self.b * (u * u))


class _TableKernel(NamedTuple):
    """The projected kernel of a family with no closed form, read from a
    PCHIP table of its odd primitive Phi(u) = integral_0^u c_m g(z^2) dz.

    Layout: N = 65 536 nodes u_j = 3 tan(theta_j), theta_j = j * dtheta
    uniform on [0, pi/2 - 1e-7]; coef is scipy's (4, N-1) PCHIP coefficient
    array transposed, so one gather fetches an interval's four
    coefficients, column r multiplying s^(3-r), s = u - u_i.  Because theta
    is uniform, arctan(u/3) / dtheta is the interval up to rounding, which
    can put it one interval off; one fix-up step makes it the interval
    scipy's binary search picks (u_i <= u < u_{i+1}, the last interval
    closed on the right).  ``primitive`` and ``slope`` then sum the cubic
    in scipy's own operation order, so they return scipy's bits without its
    search."""

    nodes: np.ndarray  # (N,)  u_j = 3 tan(j * dtheta)
    coef: np.ndarray  # (N-1, 4)  PCHIP coefficients, column r multiplies s^(3-r)
    dtheta: float
    u_max: float  # nodes[-1]
    phi_max: float  # Phi(u_max)

    @classmethod
    def build(cls, log_gen) -> "_TableKernel":
        # The trapezoid rule on the tangent-warped grid resolves heavy
        # tails.  A monotone C^1 (PCHIP) interpolant keeps the encoded
        # kernel continuous, so parameter derivatives of cell masses stay
        # consistent with finite differences of the masses themselves.
        from scipy.interpolate import PchipInterpolator

        theta, dtheta = np.linspace(0.0, np.pi / 2.0 - 1e-7, 65_536, retstep=True)
        scale = 3.0
        u = scale * np.tan(theta)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            integrand = np.exp(log_gen(u * u)) * scale / np.cos(theta) ** 2
        integrand = np.where(np.isfinite(integrand), integrand, 0.0)
        phi = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) * 0.5 * np.diff(theta))])
        coef = np.ascontiguousarray(PchipInterpolator(u, phi, extrapolate=False).c.T)
        return cls(u, coef, dtheta, float(u[-1]), float(phi[-1]))

    def _cubic(self, u):
        """Locate |u| in the table: (saturated, s, (c0, c1, c2, c3)), where
        |u| >= u_max is saturated and elsewhere the primitive is
        c3 + c2 s + c1 s^2 + c0 s^3 with s = |u| - u_i on its interval i."""
        nodes = self.nodes
        mag = np.minimum(np.abs(u), self.u_max)
        last = len(nodes) - 2
        # NaN casts to the most negative integer, so clip on both sides
        with np.errstate(invalid="ignore"):
            i = np.clip((np.arctan(mag / 3.0) / self.dtheta).astype(np.intp), 0, last)
        i -= nodes.take(i) > mag
        i += (nodes.take(i + 1) <= mag) & (i < last)
        return mag >= self.u_max, mag - nodes.take(i), np.moveaxis(self.coef.take(i, axis=0), -1, 0)

    def primitive(self, u):
        saturated, s, (c0, c1, c2, c3) = self._cubic(u)
        ss = s * s
        # scipy's order: ((c3 + c2 s) + c1 (s s)) + c0 ((s s) s)
        value = (c3 + c2 * s) + c1 * ss + c0 * (ss * s)
        return np.sign(u) * np.where(saturated, self.phi_max, value)

    def slope(self, u):
        # the kernel the interpolated primitive encodes: the derivative
        # PPoly's rows are (3 c0, 2 c1, c2), summed in that order
        saturated, s, (c0, c1, c2, _) = self._cubic(u)
        value = (c2 + (2.0 * c1) * s) + (3.0 * c0) * (s * s)
        return np.where(saturated, 0.0, value)


def _as_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise SupportError("Mahalanobis argument t must be nonnegative")
    return t


@dataclass(frozen=True)
class EllipticalFamily:
    """Base class; concrete families fix the generator and the R^2 law."""

    m: int

    name = "elliptical"
    # Families whose projected kernel has no 1-D primitive cannot be used
    # with the analytic sliced-Wasserstein gradients.
    has_gradient = True

    def __post_init__(self):
        for f in fields(self):
            rule, lo = (_integer, 1) if f.name == "m" else (_real, -math.inf)
            object.__setattr__(self, f.name, rule(getattr(self, f.name), f.name, InvalidFamilyError, lo))

    def log_gen(self, t) -> np.ndarray:
        """log of the normalized generator c_m*g(t), elementwise in t >= 0.

        t is checked here, once, and a copy of it handed to ``_log_gen``."""
        return self._log_gen(np.array(_as_t(t)))

    def _log_gen(self, t: np.ndarray) -> np.ndarray:
        """``log_gen`` on a float array t >= 0, unchecked, which it may
        overwrite with its result: the density kernel calls it on squared
        norms, nonnegative by construction, in a buffer of its own."""
        raise NotImplementedError

    @cached_property
    def _projected_kernel(self) -> _ErfKernel | _TableKernel:
        """The projected kernel c_m g(z^2), as ``primitive`` and ``slope``:
        a PCHIP table of its primitive, built on first use, unless a family
        overrides this with a closed form."""
        if not self.has_gradient:
            raise UnsupportedGradientError(f"{self.name} {self.params()} has no usable 1-D projected kernel")
        return _TableKernel.build(self.log_gen)

    # gen_primitive and gen_primitive_slope stay defined here alone, so
    # whatever wraps them on this class sees every family's calls.
    def gen_primitive(self, u) -> np.ndarray:
        """Phi(u) = integral_0^u of the projected kernel c_m g(z^2) dz, odd in u."""
        return self._projected_kernel.primitive(np.asarray(u, dtype=float))

    def gen_primitive_slope(self, u) -> np.ndarray:
        """Derivative of the primitive: the kernel itself where it has a closed
        form, else the kernel the interpolated primitive encodes."""
        return self._projected_kernel.slope(np.asarray(u, dtype=float))

    def sample_r2(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws of R^2."""
        raise NotImplementedError

    def mean_r2(self):
        """E[R^2], or None when the second moment does not exist."""
        raise NotImplementedError

    def params(self) -> dict:
        """The family's own fields after m, by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}


@dataclass(frozen=True)
class Kotz(EllipticalFamily):
    """Kotz type: g(t) ~ t^(a-1) exp(-b t^s); Gaussian at a=1, s=1, b=1/2."""

    a: float = 1.0
    b: float = 0.5
    s: float = 1.0

    name = "kotz"

    def __post_init__(self):
        super().__post_init__()
        if not (self.a > 1.0 - self.m / 2.0 and self.b > 0.0 and self.s > 0.0):
            raise InvalidFamilyError(
                f"Kotz requires a > 1 - m/2, b > 0, s > 0; got a={self.a}, b={self.b}, s={self.s}"
            )

    @property
    def has_gradient(self) -> bool:
        # the projected kernel behaves like |z|^(2a-2) at 0, so its 1-D
        # primitive exists only for a > 1/2
        return self.a > 0.5

    @cached_property
    def _shape(self) -> float:
        return (2.0 * self.a + self.m - 2.0) / (2.0 * self.s)

    @cached_property
    def _projected_kernel(self) -> _ErfKernel | _TableKernel:
        # a = 1, s = 1: the kernel c_m exp(-b z^2) integrates to an erf
        if self.a != 1.0 or self.s != 1.0:
            return super()._projected_kernel
        sqrt_b = math.sqrt(self.b)
        phi_max = math.exp(self._log_const) * math.sqrt(math.pi) / (2.0 * sqrt_b)
        return _ErfKernel(self._log_const, self.b, sqrt_b, phi_max)

    @cached_property
    def _log_const(self) -> float:
        return (
            special.gammaln(self.m / 2.0)
            + math.log(self.s)
            + self._shape * math.log(self.b)
            - special.gammaln(self._shape)
            - (self.m / 2.0) * math.log(math.pi)
        )

    def _log_gen(self, t):
        if self.a == 1.0 and self.s == 1.0:
            # two passes over t, in place; t**1.0 == t, so the bits are those
            # of the general form
            body = np.multiply(t, -self.b, out=t)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                body = -self.b * t**self.s
                if self.a != 1.0:
                    body += (self.a - 1.0) * np.log(t)
        body += self._log_const
        return body

    def sample_r2(self, rng, n):
        g = rng.gamma(self._shape, scale=1.0 / self.b, size=n)
        return g ** (1.0 / self.s)

    def mean_r2(self):
        k0 = self._shape
        return math.exp(
            special.gammaln(k0 + 1.0 / self.s) - special.gammaln(k0) - math.log(self.b) / self.s
        )


@dataclass(frozen=True)
class PearsonVII(EllipticalFamily):
    """Pearson type VII: g(t) ~ (1 + t/v)^(-s).

    Student-t at s=(m+v)/2 with v degrees of freedom, Cauchy at v=1,
    s=(m+1)/2.  R^2 = G*K with G ~ chi^2_m and K inverse-gamma.
    """

    v: float = 1.0
    s: float = 1.0

    name = "pearson7"

    def __post_init__(self):
        super().__post_init__()
        if not (self.v > 0.0 and self.s > self.m / 2.0):
            raise InvalidFamilyError(f"PearsonVII requires v > 0 and s > m/2; got v={self.v}, s={self.s}")

    @cached_property
    def _log_const(self) -> float:
        return (
            -(self.m / 2.0) * math.log(math.pi * self.v)
            + special.gammaln(self.s)
            - special.gammaln(self.s - self.m / 2.0)
        )

    def _log_gen(self, t):
        return self._log_const - self.s * np.log1p(t / self.v)

    def sample_r2(self, rng, n):
        g = rng.chisquare(self.m, size=n)
        # K^{-1} ~ Gamma(s - m/2, rate v/2); K is inverse-gamma.
        k = 1.0 / rng.gamma(self.s - self.m / 2.0, scale=2.0 / self.v, size=n)
        return g * k

    def mean_r2(self):
        if self.s <= self.m / 2.0 + 1.0:
            return None
        return self.m * self.v / (2.0 * self.s - self.m - 2.0)


@dataclass(frozen=True)
class Hyperbolic(EllipticalFamily):
    """Generalized hyperbolic type: normal scale mixture with GIG mixing.

    ``a == 0`` selects the dedicated a->0 limit branch (K-distribution for
    lam > 0; Laplace at lam=1, v=2), avoiding Bessel-ratio cancellation.
    """

    v: float = 2.0
    a: float = 0.0
    lam: float = 1.0

    name = "hyperbolic"

    def __post_init__(self):
        super().__post_init__()
        if self.v <= 0.0 or self.a < 0.0:
            raise InvalidFamilyError(f"Hyperbolic requires v > 0 and a >= 0; got v={self.v}, a={self.a}")
        if self.a == 0.0 and self.lam <= 0.0:
            raise InvalidFamilyError("the a->0 limit branch requires lam > 0")

    @property
    def _nu(self) -> float:
        return self.lam - self.m / 2.0

    @cached_property
    def _log_const(self) -> float:
        if self.a == 0.0:
            return (
                -(self.m / 2.0) * math.log(2.0 * math.pi)
                + (1.0 - self.lam) * math.log(2.0)
                + self.lam * math.log(self.v)
                - special.gammaln(self.lam)
            )
        z0 = math.sqrt(self.a * self.v)
        log_bessel = math.log(special.kve(self.lam, z0)) - z0
        return (
            (self.lam / 2.0) * (math.log(self.v) - math.log(self.a))
            - (self.m / 2.0) * math.log(2.0 * math.pi)
            - log_bessel
        )

    def _log_gen(self, t):
        nu = self._nu
        shifted = self.a + t
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.sqrt(self.v * shifted)
            body = (nu / 2.0) * (np.log(shifted) - math.log(self.v)) + np.log(special.kve(nu, z)) - z
        if self.a == 0.0:
            # t=0 limit: finite for nu > 0, +inf otherwise.
            at_zero = (
                (nu - 1.0) * math.log(2.0) - nu * math.log(self.v) + special.gammaln(nu)
                if nu > 0.0
                else math.inf
            )
            body = np.where(t == 0.0, at_zero, body)
        return self._log_const + body

    def sample_r2(self, rng, n):
        g = rng.chisquare(self.m, size=n)
        if self.a == 0.0:
            k = rng.gamma(self.lam, scale=2.0 / self.v, size=n)
        else:
            from scipy.stats import geninvgauss

            z0 = math.sqrt(self.a * self.v)
            k = geninvgauss.rvs(self.lam, z0, scale=math.sqrt(self.a / self.v), size=n, random_state=rng)
        return g * k

    def mean_r2(self):
        if self.a == 0.0:
            return self.m * 2.0 * self.lam / self.v
        z0 = math.sqrt(self.a * self.v)
        mean_k = math.sqrt(self.a / self.v) * special.kve(self.lam + 1.0, z0) / special.kve(self.lam, z0)
        return self.m * mean_k


@dataclass(frozen=True)
class Logistic(EllipticalFamily):
    """Elliptical logistic: g(t) ~ exp(-t) / (1 + exp(-t))^2.

    The normalizer has no closed form for general m and is computed once
    by adaptive quadrature.  R^2 is sampled by numerical inverse-CDF of
    its own density, which keeps sampler and density consistent.
    """

    name = "logistic"

    @staticmethod
    def _kernel(t):
        # exp(-t) / (1+exp(-t))^2, stable for large t.
        return np.exp(-t - 2.0 * np.logaddexp(0.0, -t))

    @cached_property
    def _log_const(self) -> float:
        # imported here: with the scipy.optimize it loads, it would add about
        # 0.25 s and 25 MB of RSS to every import of emmfit
        from scipy import integrate

        # Normalize c_m*g so the full density integrates to one:
        # integral of c_m*g(r^2) r^(m-1) dr over [0, inf) must equal
        # Gamma(m/2) / (2 pi^(m/2)).
        j_m, _ = integrate.quad(lambda r: float(self._kernel(r * r)) * r ** (self.m - 1), 0.0, np.inf)
        return special.gammaln(self.m / 2.0) - (self.m / 2.0) * math.log(math.pi) - math.log(2.0 * j_m)

    def _log_gen(self, t):
        return self._log_const - t - 2.0 * np.logaddexp(0.0, -t)

    @cached_property
    def _radial_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        # Inverse-CDF table for R (not R^2): p_R(r) ~ g(r^2) r^(m-1),
        # smooth at 0 for every m >= 1.  Tail mass beyond r_max ~ exp(-r^2).
        r_max = math.sqrt(50.0 + 10.0 * self.m)
        r = np.linspace(0.0, r_max, 16384)
        pdf = self._kernel(r * r) * r ** (self.m - 1)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(r))])
        cdf /= cdf[-1]
        return r, cdf

    def sample_r2(self, rng, n):
        r, cdf = self._radial_cdf
        u = rng.random(n)
        return np.interp(u, cdf, r) ** 2

    @cached_property
    def _mean_r2(self) -> float:
        r, cdf = self._radial_cdf
        pdf = np.gradient(cdf, r)
        num = np.trapezoid(r * r * pdf, r)
        return float(num / np.trapezoid(pdf, r))

    def mean_r2(self):
        return self._mean_r2


@dataclass(frozen=True)
class AlphaStable(EllipticalFamily):
    """Elliptically contoured symmetric alpha-stable.

    Only the sampler is available; the generator is known up to an
    unnormalized 1-D stable density, so likelihood evaluation and the
    analytic gradients are unsupported.
    """

    alpha: float = 1.5

    name = "alphastable"
    has_gradient = False

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha < 2.0):
            raise InvalidFamilyError(f"AlphaStable requires alpha in (0, 2); got {self.alpha}")

    def _log_gen(self, t):
        raise DensityUnavailableError("alpha-stable density is defined only up to proportionality")

    def sample_r2(self, rng, n):
        g = rng.chisquare(self.m, size=n)
        # K = 2 * S with S standard positive stable of index alpha/2, so the
        # m=1 marginal is standard SaS(alpha) (char. function exp(-|t|^alpha)).
        return g * 2.0 * _positive_stable(self.alpha / 2.0, rng, n)

    def mean_r2(self):
        return None


@dataclass(frozen=True)
class PearsonII(EllipticalFamily):
    """Pearson type II: g(t) ~ (1-t)^(s-1) on t in [0, 1]; R^2 ~ Beta(m/2, s)."""

    s: float = 2.0

    name = "pearson2"

    def __post_init__(self):
        super().__post_init__()
        if not self.s > 1.0:
            raise InvalidFamilyError(f"PearsonII requires s > 1; got s={self.s}")

    @cached_property
    def _log_const(self) -> float:
        return (
            special.gammaln(self.m / 2.0 + self.s)
            - (self.m / 2.0) * math.log(math.pi)
            - special.gammaln(self.s)
        )

    def _log_gen(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = self._log_const + (self.s - 1.0) * np.log1p(-np.minimum(t, 1.0))
        return np.where(t > 1.0, -np.inf, inside)

    def sample_r2(self, rng, n):
        return rng.beta(self.m / 2.0, self.s, size=n)

    def mean_r2(self):
        return self.m / (self.m + 2.0 * self.s)


def _positive_stable(alpha: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard positive stable draws, Laplace transform exp(-lambda^alpha).

    Chambers-Mallows-Stuck / Kanter construction for alpha in (0, 1), as AlphaStable ensures.
    """
    u = rng.uniform(0.0, math.pi, size=n)
    w = rng.standard_exponential(size=n)
    a_u = (np.sin(alpha * u) ** alpha * np.sin((1.0 - alpha) * u) ** (1.0 - alpha) / np.sin(u)) ** (
        1.0 / (1.0 - alpha)
    )
    return (a_u / w) ** ((1.0 - alpha) / alpha)


def gaussian(m: int) -> Kotz:
    """The Gaussian member of the Kotz family."""
    return Kotz(m=m, a=1.0, b=0.5, s=1.0)


def cauchy(m: int) -> PearsonVII:
    """The Cauchy member of the Pearson VII family."""
    m = _integer(m, "m", InvalidFamilyError, 1)  # before s is computed from it
    return PearsonVII(m=m, v=1.0, s=(m + 1) / 2.0)


def laplace(m: int) -> Hyperbolic:
    """The Laplace member of the hyperbolic family (a->0 branch)."""
    return Hyperbolic(m=m, v=2.0, a=0.0, lam=1.0)


FAMILY_KINDS = {
    "kotz": Kotz,
    "pearson7": PearsonVII,
    "hyperbolic": Hyperbolic,
    "logistic": Logistic,
    "alphastable": AlphaStable,
    "pearson2": PearsonII,
}

_ALIASES = {"gaussian": gaussian, "cauchy": cauchy, "laplace": laplace}


def make_family(name: str, m: int, **params) -> EllipticalFamily:
    """Build a family by its catalogue name (or a named special case)."""
    name = name.lower()
    if name in _ALIASES:
        if params:
            raise InvalidFamilyError(f"{name} takes no parameters")
        return _ALIASES[name](m)
    try:
        cls = FAMILY_KINDS[name]
    except KeyError:
        raise InvalidFamilyError(f"unknown family {name!r}; known: {sorted(FAMILY_KINDS)}") from None
    try:
        return cls(m=m, **params)
    except TypeError as exc:
        raise InvalidFamilyError(str(exc)) from None


@dataclass(frozen=True)
class EllipticalComponent:
    """One elliptical law: location, SPD scatter, shared family.

    A component built from outside checks its scatter with ``check_spd``;
    ``MixtureModel.component`` builds one with ``_trusted`` from a scatter
    the model already validated."""

    mu: np.ndarray
    sigma: np.ndarray
    family: EllipticalFamily

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "sigma", check_spd(self.sigma))
        if self.mu.shape != (self.family.m,) or self.sigma.shape != (self.family.m, self.family.m):
            raise InvalidFamilyError("component shapes do not match the family dimension")

    @classmethod
    def _trusted(cls, mu, sigma, family) -> "EllipticalComponent":
        """A component over a validated float (m,) mu and (m, m) sigma, unchecked."""
        component = object.__new__(cls)
        component.__dict__.update(mu=mu, sigma=sigma, family=family)
        return component

    @cached_property
    def chol(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc


def sample(component: EllipticalComponent, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of mu + R * L * s, one sample per row.

    s is a standard normal row z over its length, whose square ``row_sums``
    takes in numpy's pairwise order over column views: the bits of
    ``np.linalg.norm(z, axis=1)``, without its inner loop per row."""
    n = _integer(n, "n", GenerationError)
    m = component.family.m
    if n == 0:
        return np.empty((0, m))
    r = np.sqrt(component.family.sample_r2(rng, n))
    z = rng.standard_normal((n, m))
    z /= np.sqrt(row_sums(z * z, np.empty(n)))[:, None]
    return component.mu + r[:, None] * (z @ component.chol.T)


# Entries per block of ``row_sums``, so that a block's column passes read it
# from cache.  On a 2-core Xeon (2 MiB L2 per core), one BLAS thread, a
# (50 000, 16) array took 1.1 ms in blocks of 2^16 entries, 2.6 ms in whole
# columns and 1.4 ms in numpy's row loop; a (100 000, 2) one 0.16, 0.18 and
# 2.0 ms.
ROW_SUM_BLOCK = 1 << 16


def row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of the rows of a float (n, m) array, m >= 1, into out: the
    bits of ``np.add.reduce(a, axis=1)`` on a C-ordered copy of a, whatever
    the layout of a itself.

    numpy sums each contiguous row in one inner loop, slow for short rows,
    by its pairwise rule:

    - below 8 entries, a left fold;
    - from 8 to 128, eight accumulators r_j = x_j + x_{j+8} + ..., combined
      as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
      m mod 8 tail added left to right;
    - above 128, the sums of the two halves, split at half the length
      rounded down to a multiple of 8;

    and adds the result to an initial +0.0, so a row of -0.0 sums to +0.0.
    Here the same rule runs over the column views of blocks of rows, one
    ufunc call per column and per partial sum, with at most three
    block-long scratch rows."""
    n, m = a.shape
    rows = max(1, ROW_SUM_BLOCK // m)
    scratch = np.empty((3 if m >= 8 else 0, min(rows, n)))
    for lo in range(0, n, rows):
        block = out[lo : lo + rows]
        _pairwise_sum(list(a[lo : lo + rows].T), block, scratch[:, : len(block)])
        block += 0.0
    return out


def min_sq_dist(a: np.ndarray, c: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """d2 lowered in place to the squared distances of the rows of a float
    (n, m) array a to the point c where they are smaller: the bits of
    ``np.minimum(d2, row_sums(np.square(a - c), out))`` whatever the layout
    of a, without its (n, m) temporary.

    Each block of ``ROW_SUM_BLOCK // m`` rows is written as a - c into an
    (m, b) buffer whose rows are the block's columns, squared there, summed
    over those rows in ``row_sums``'s pairwise order and folded into its
    slice of d2 while it is still in cache.  No square is -0.0, so neither
    is their sum, and the +0.0 that ``row_sums`` adds would change no bit."""
    n, m = a.shape
    rows = max(1, ROW_SUM_BLOCK // m)
    width = min(rows, n)
    buf = np.empty((m, width))
    near = np.empty(width)
    scratch = np.empty((3 if m >= 8 else 0, width))
    c = c[:, None]
    for lo in range(0, n, rows):
        part = a[lo : lo + rows].T
        b = part.shape[1]
        diff, sums = buf[:, :b], near[:b]
        np.square(np.subtract(part, c, out=diff), out=diff)
        _pairwise_sum(list(diff), sums, scratch[:, :b])
        np.minimum(d2[lo : lo + b], sums, out=d2[lo : lo + b])
    return d2


def _pairwise_sum(cols: list, out: np.ndarray, scratch: np.ndarray) -> None:
    """The sum of the equal-length 1-D arrays cols into out, in numpy's
    pairwise order (see ``row_sums``); scratch holds three spare rows."""
    c = len(cols)
    if c < 8:
        if c == 1:
            np.copyto(out, cols[0])
        else:
            np.add(cols[0], cols[1], out)
        for x in cols[2:]:
            out += x
        return
    if c > 128:
        half = c // 2 - c // 2 % 8
        _pairwise_sum(cols[:half], out, scratch)
        rest = np.empty_like(out)
        _pairwise_sum(cols[half:], rest, scratch)
        out += rest
        return
    body = c - c % 8

    def leaf(j, buf):
        # r_j, read straight from its column while it holds only that one
        if body == 8:
            return cols[j]
        np.add(cols[j], cols[j + 8], buf)
        for x in cols[j + 16 : body : 8]:
            buf += x
        return buf

    def pair(j, buf, spare):
        # r_j + r_{j+1} into buf; spare is clobbered
        return np.add(leaf(j, buf), leaf(j + 1, spare), buf)

    t0, t1, t2 = scratch
    np.add(pair(0, out, t0), pair(2, t0, t1), out)
    np.add(pair(4, t0, t1), pair(6, t1, t2), t0)
    out += t0
    for x in cols[body:]:
        out += x
