"""Collocation approximation of the weighted Gauss transfer operator.

The operator acting on functions over [0, 1] is

    (L g)(x) = sum_{i in alphabet} i^q (i + x)^(-2t) g(1/(i + x)),

whose dominant eigenvalue exp(P(t, q)) defines the two-parameter pressure
P.  Functions are represented by their values on Chebyshev-Lobatto nodes
with barycentric interpolation; the operator image of an analytic function
is analytic on a neighbourhood of [0, 1], so the collocation eigenvalue
converges spectrally in the number of nodes.

For the full alphabet the digits beyond the cutoff M are summed in closed
form: g near 0 is replaced by the Taylor jet of its interpolant and each
moment sum_{i>M} i^q (i+x)^(-rho) is expanded binomially in x/i into
Hurwitz zeta values at the single point M+1, one zeta row for every order
and node.  This keeps the cutoff error orders of magnitude below the
collocation error instead of the ~1/M^2 a crude integral bound leaves.

Every value comes from one path: the collocation matrix A is assembled
together with its first and second (t, q)-derivatives, and one LAPACK
dgeev call gives the eigenvalues with their right and left eigenvectors,
from which the Perron pair is picked.  The Perron pair is
the largest real positive eigenvalue whose right eigenvector is positive at
every node; when spurious collocation modes also qualify, the ones whose
Chebyshev tails have not decayed to RESOLVED_TAIL are dropped first.
Pressure derivatives are exact derivatives of the discretized eigenvalue
(left/right eigenvector contraction of the differentiated matrix), which
is precisely the node-weighted Gibbs average of log a_1 resp. -log|T'|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.fft import dct
from scipy.linalg import lapack

from .cf import PartialQuotients
from .zeta import hurwitz_zeta

DOMAIN_MARGIN = 0.01  # reject 2t - q below 1 + this; the pressure diverges at 1
JET_ORDER = 6         # Taylor orders of g kept in the tail
BINOM_TERMS = 40      # binomial expansion length; terms shrink like (x/(M+1))^j
RESOLVED_TAIL = 1e-6  # trailing/leading Chebyshev coefficient ratio of a resolved mode


class DomainError(ValueError):
    """Parameters outside the convergence region of the operator."""


class ConvergenceError(RuntimeError):
    """No result could be computed: the collocation matrix has no resolved
    eigenmode that is positive at every node (no Perron pair), or a spectrum
    solver's Newton iteration did not converge."""


class ConsistencyError(RuntimeError):
    """Analytic derivative and finite difference disagree beyond tolerance."""


@dataclass(frozen=True)
class PressureParams:
    """A parameter point (t, q) of the potential t log|T'| + q log a_1."""

    t: float
    q: float

    def gap(self) -> float:
        """Distance 2t - q - 1 to the divergence line."""
        return 2.0 * self.t - self.q - 1.0


@dataclass(frozen=True)
class Alphabet:
    """Digit set of the iterated system: all of N up to a cutoff, or a finite set."""

    kind: str                       # "full" | "restricted"
    cutoff: int | None = None
    digits: tuple[int, ...] | None = None
    tail_handling: bool = True

    @classmethod
    def full(cls, cutoff: int = 64, tail_handling: bool = True) -> "Alphabet":
        if cutoff < 8:
            raise ValueError("full-alphabet cutoff must be >= 8")
        return cls(kind="full", cutoff=cutoff, tail_handling=tail_handling)

    @classmethod
    def restricted(cls, digits) -> "Alphabet":
        ds = tuple(sorted(set(int(d) for d in digits)))
        if not ds or ds[0] < 1:
            raise ValueError("restricted alphabet needs a nonempty set of digits >= 1")
        return cls(kind="restricted", digits=ds, tail_handling=False)

    @property
    def has_tail(self) -> bool:
        return self.kind == "full" and self.tail_handling

    def digit_values(self) -> np.ndarray:
        if self.kind == "full":
            return np.arange(1, self.cutoff + 1, dtype=float)
        return np.asarray(self.digits, dtype=float)


@dataclass(eq=False)
class Discretization:
    """Chebyshev-Lobatto nodes on [0, 1] with barycentric machinery."""

    order: int
    nodes: np.ndarray = field(repr=False)
    bary_weights: np.ndarray = field(repr=False)
    jet_rows: np.ndarray = field(repr=False)   # row r maps node values -> p^(r)(0)/r!

    _tensor_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def chebyshev(cls, order: int = 16) -> "Discretization":
        if order < 4:
            raise ValueError("collocation order must be >= 4")
        k = np.arange(order)
        nodes = (1.0 - np.cos(np.pi * k / (order - 1))) / 2.0
        nodes[0], nodes[-1] = 0.0, 1.0
        weights = np.where(k % 2 == 0, 1.0, -1.0)
        weights[0] *= 0.5
        weights[-1] *= 0.5

        # differentiation matrix straight from the barycentric weights
        gaps = nodes[:, None] - nodes
        np.fill_diagonal(gaps, 1.0)
        diff = (weights / weights[:, None]) / gaps
        np.fill_diagonal(diff, 0.0)
        np.fill_diagonal(diff, -diff.sum(axis=1))

        rows = np.zeros((JET_ORDER + 1, order))
        rows[0, 0] = 1.0
        for r in range(1, JET_ORDER + 1):
            rows[r] = rows[r - 1] @ diff / r
        return cls(order=order, nodes=nodes, bary_weights=weights, jet_rows=rows)

    def coefficients(self, y) -> np.ndarray:
        """Barycentric coefficient rows: p(y) = coefficients(y) @ node_values."""
        y = np.asarray(y, dtype=float)
        d = y[..., None] - self.nodes
        hit = np.isclose(d, 0.0, rtol=0.0, atol=1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = self.bary_weights / d
            c = c / np.sum(c, axis=-1, keepdims=True)
        anyhit = hit.any(axis=-1)
        if np.any(anyhit):
            c = np.where(anyhit[..., None], hit.astype(float), c)
        return c

    def interpolate(self, values: np.ndarray, y):
        out = self.coefficients(y) @ np.asarray(values, dtype=float)
        return out

    def digit_tensor(self, alphabet: Alphabet) -> np.ndarray:
        """coefficients of g(1/(i + node_j)) as C[j, i, m], cached per alphabet."""
        key = (alphabet.kind, alphabet.cutoff, alphabet.digits)
        tensor = self._tensor_cache.get(key)
        if tensor is None:
            d = alphabet.digit_values()
            y = 1.0 / (d[None, :] + self.nodes[:, None])
            tensor = self._tensor_cache[key] = self.coefficients(y)
        return tensor


@dataclass(frozen=True)
class PressureResult:
    """Pressure value with its exact gradient and Hessian, eigendata and tail
    diagnostics.

    ``disc`` is the discretization the eigendata lives on; it is finer than
    the requested one when the eigenfunction's dynamic range forced a
    higher collocation order (large t).
    """

    params: PressureParams
    value: float
    dP_dt: float
    dP_dq: float
    d2P_dt2: float
    d2P_dtdq: float
    d2P_dq2: float
    eigenfunction_values: np.ndarray
    left_eigen_weights: np.ndarray
    tail_error_bound: float
    disc: "Discretization"


def check_domain(params: PressureParams, alphabet: Alphabet) -> None:
    if alphabet.kind == "full" and params.gap() < DOMAIN_MARGIN:
        raise DomainError(
            f"(t, q) = ({params.t}, {params.q}) has 2t - q = "
            f"{2 * params.t - params.q:.6f} <= {1 + DOMAIN_MARGIN}; "
            "the full-alphabet pressure diverges as 2t - q -> 1"
        )


def _binomial_polys(count: int) -> np.ndarray:
    """C(-rho, j) = (-1)^j (rho)_j / j! for j < count and its first two
    t-derivatives (rho = 2t + r, drho/dt = 2) as polynomials in rho.

    Column d * count + j holds the coefficients of d^d C(-rho, j) / dt^d in
    powers rho^k, k = row.  They come from the rising-factorial recurrence
    (rho)_j = (rho)_{j-1} (rho + j - 1) applied to coefficient vectors, so
    the values are polynomial evaluations with no division by rho + m
    (which is 0/0 at rho = 0)."""
    poly = np.zeros((count, count))            # poly[j, k]: rho^k in (rho)_j
    poly[0, 0] = 1.0
    for j in range(1, count):
        poly[j, 1:] = poly[j - 1, :-1]
        poly[j] += (j - 1) * poly[j - 1]
    poly *= np.array([(-1.0) ** j / math.factorial(j) for j in range(count)])[:, None]
    d_dt = np.diag(2.0 * np.arange(1, count), -1)   # d/dt rho^k = 2k rho^(k-1)
    return np.concatenate([poly, poly @ d_dt, poly @ d_dt @ d_dt]).T


_BINOM_POLYS = _binomial_polys(BINOM_TERMS + 1)
_POWERS = np.arange(BINOM_TERMS + 1, dtype=float)
# zeta row index of term j at Taylor order r
_ZETA_WINDOW = np.arange(JET_ORDER + 1)[:, None] + np.arange(BINOM_TERMS + 1)


def _tail_moments(t: float, q: float, nodes: np.ndarray, cutoff: int):
    """Closed-form digit-tail moments above the cutoff and their (t, q)-derivatives.

    Returns (moments, binom_trunc).  moments[p, r, k] for r <= JET_ORDER is

        sum_{i>M} f_p(i, x_k) i^q (i + x_k)^(-(2t+r)),

    f_p = 1, -2 log(i+x), log i, 4 log^2(i+x), -2 log i log(i+x), log^2 i for
    p = 0..5: the moment and its t, q, tt, tq and qq derivatives.  Expanding
    (i+x)^(-rho) = sum_j C(-rho, j) x^j i^(-rho-j) in x/i <= 1/(M+1) gives

        sum_{i>M} i^q (i+x)^(-rho) = sum_j C(-rho, j) x^j zeta(rho + j - q, M + 1),

    so every zeta value sits at the one point a = M + 1 and one Hurwitz zeta
    row, with two s-derivatives, serves all orders r and nodes x.  With
    rho = 2t + r the coefficients depend on t alone and s = rho + j - q has
    ds/dt = 2, ds/dq = -1, so the derivative tables follow by the chain rule.
    ``binom_trunc`` is the size of the last binomial term at r = 0, a
    truncation proxy.
    """
    s_grid = 2.0 * t - q + np.arange(JET_ORDER + BINOM_TERMS + 1, dtype=float)
    Z0, Z1, Z2 = (z[_ZETA_WINDOW] for z in hurwitz_zeta(s_grid, cutoff + 1.0, derivative=2))
    rho = 2.0 * t + np.arange(JET_ORDER + 1, dtype=float)
    c0, c1, c2 = (rho[:, None] ** _POWERS @ _BINOM_POLYS).reshape(
        JET_ORDER + 1, 3, BINOM_TERMS + 1).transpose(1, 0, 2)    # (R, J+1) each
    coefs = np.stack([c0 * Z0, c1 * Z0 + 2.0 * c0 * Z1, -c0 * Z1,
                      c2 * Z0 + 4.0 * c1 * Z1 + 4.0 * c0 * Z2,
                      -c1 * Z1 - 2.0 * c0 * Z2, c0 * Z2])
    xpow = nodes ** _POWERS[:, None]                                   # (J+1, K)
    moments = coefs @ xpow
    binom_trunc = float(np.max(np.abs(coefs[0, 0, -1] * xpow[-1])))
    return moments, binom_trunc


def _assemble(params: PressureParams, alphabet: Alphabet, disc: Discretization):
    """A and its derivatives d/dt, d/dq, d2/dt2, d2/dtdq, d2/dq2 stacked as
    (6, K, K), and the tail moments (or None)."""
    t, q = params.t, params.q
    d = alphabet.digit_values()
    lq = np.log(d)[:, None]                      # (M, 1): d log W / dq
    lt = -2.0 * np.log(d[:, None] + disc.nodes)  # (M, K): d log W / dt
    W = np.exp(q * lq + t * lt)
    weights = np.stack([W, lt * W, lq * W, lt * lt * W, lt * lq * W, lq * lq * W])
    # mats[p, j, m] = sum_i weights[p, i, j] C[j, i, m], batched over j
    mats = np.matmul(weights.transpose(2, 0, 1), disc.digit_tensor(alphabet)).transpose(1, 0, 2)
    moments = None
    if alphabet.has_tail:
        moments = _tail_moments(t, q, disc.nodes, alphabet.cutoff)
        mats = mats + moments[0].transpose(0, 2, 1) @ disc.jet_rows
    return mats, moments


def _resolved(h: np.ndarray) -> bool:
    """Whether the two trailing Chebyshev coefficients of the node values h
    (their DCT-I) are within RESOLVED_TAIL of the largest one."""
    c = np.abs(dct(h, type=1))
    return float(np.max(c[-2:])) <= RESOLVED_TAIL * float(np.max(c))


def _perron_pair(A: np.ndarray, params: PressureParams, disc: Discretization):
    """(h, nu): the right (largest entry 1) and left (entries summing to 1)
    eigenvectors of the Perron eigenvalue of A.

    The candidates are the real positive eigenvalues whose right eigenvector
    is positive at every node.  The operator has one positive eigenfunction,
    so when several qualify the others are collocation artefacts; their
    Chebyshev tails do not decay, and the unresolved ones are dropped before
    the largest remaining eigenvalue is taken.
    """
    wr, wi, vl, vr, info = lapack.dgeev(A, compute_vl=1, compute_vr=1)
    if info != 0:
        raise ConvergenceError(f"dgeev failed (info {info}) at {params} (order {disc.order})")
    order = np.argsort(-wr)
    order = order[(wi[order] == 0.0) & (wr[order] > 0.0)]   # real modes have wi == 0
    H = vr[:, order]
    H = H / H[np.argmax(np.abs(H), axis=0), np.arange(order.size)]
    positive = np.all(H > 0.0, axis=0)
    modes = list(zip(order[positive], H[:, positive].T))
    if len(modes) > 1:
        modes = [(k, h) for k, h in modes if _resolved(h)]
    if not modes:
        raise ConvergenceError(
            f"no resolved positive eigenmode at {params} (order {disc.order})")
    k, h = modes[0]
    nu = vl[:, k]
    return h, nu / np.sum(nu)


def required_order(t: float, base_order: int) -> int:
    """Collocation order needed to resolve the eigenfunction at parameter t.

    The eigenfunction's dynamic range grows like e^(~1.04 t) while the
    interpolation error shrinks like 5.8^(-K), so for t beyond 1 the order
    is raised above the requested baseline to keep the Perron mode above
    the spurious spectrum; at t <= 1 the request is honored as-is.
    """
    boost = max(0, math.ceil(1.04 * (t - 1.0) / 1.75))
    return min(96, base_order + boost)


@functools.lru_cache(maxsize=96)
def _boosted_disc(order: int) -> Discretization:
    """One shared discretization per raised order (orders are capped at 96)."""
    return Discretization.chebyshev(order)


def _effective_disc(params: PressureParams, disc: Discretization) -> Discretization:
    k = required_order(params.t, disc.order)
    return disc if k == disc.order else _boosted_disc(k)


def _solve(params: PressureParams, alphabet: Alphabet,
           disc: Discretization) -> PressureResult:
    """The eigen-solve behind every pressure value and derivative.

    Checks the domain, raises the collocation order where t needs it,
    assembles A with its first and second derivatives once and takes the
    Perron pair from one dense eigen-decomposition.  The derivatives are the
    exact ones of the discretized eigenvalue: with nu h = 1,

        lambda_i  = nu A_i h,
        lambda_ij = nu A_ij h + nu A_i h_j + nu A_j h_i,

    where the eigenvector derivative h_i solves (lambda - A) h_i =
    (A_i - lambda_i) h with nu h_i = 0, one bordered solve for both i.
    """
    check_domain(params, alphabet)
    disc = _effective_disc(params, disc)
    mats, moments = _assemble(params, alphabet, disc)
    h, nu = _perron_pair(mats[0], params, disc)
    # nu (A, A_t, A_q, A_tt, A_tq, A_qq) h with nu h = 1; the two-sided
    # quotient is second-order accurate in the eigenvectors, which matters
    # where the Perron eigenvalue is ill-conditioned (large t)
    nu_h = nu / float(nu @ h)
    nu_mats = nu_h @ mats
    lam, lam_t, lam_q, lam_tt, lam_tq, lam_qq = nu_mats @ h
    n = len(h)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = lam * np.eye(n) - mats[0]
    border[:n, n] = h
    border[n, :n] = nu_h
    rhs = np.zeros((n + 1, 2))
    rhs[:n] = (mats[1:3] @ h).T - np.outer(h, (lam_t, lam_q))
    dh = np.linalg.solve(border, rhs)[:n]          # columns h_t, h_q
    cross = nu_mats[1:3] @ dh                      # cross[i, j] = nu A_i h_j
    P_t, P_q = lam_t / lam, lam_q / lam
    tail_bound = 0.0
    if moments is not None:
        S, binom_trunc = moments
        jets = disc.jet_rows @ h
        tail_bound = float((abs(jets[-1]) * np.max(np.abs(S[0, JET_ORDER]))
                            + abs(jets[0]) * binom_trunc) / lam)
    return PressureResult(
        params=params,
        value=math.log(lam),
        dP_dt=float(P_t),
        dP_dq=float(P_q),
        d2P_dt2=float((lam_tt + 2.0 * cross[0, 0]) / lam - P_t * P_t),
        d2P_dtdq=float((lam_tq + cross[0, 1] + cross[1, 0]) / lam - P_t * P_q),
        d2P_dq2=float((lam_qq + 2.0 * cross[1, 1]) / lam - P_q * P_q),
        eigenfunction_values=h,
        left_eigen_weights=nu,
        tail_error_bound=tail_bound,
        disc=disc,
    )


def pressure(params: PressureParams, alphabet: Alphabet | None = None,
             disc: Discretization | None = None) -> PressureResult:
    """P(t, q) as the log of the Perron collocation eigenvalue, with P_t and P_q."""
    return _solve(params, alphabet or Alphabet.full(), disc or Discretization.chebyshev())


def pressure_1d(t: float, alphabet: Alphabet | None = None,
                disc: Discretization | None = None) -> PressureResult:
    """The one-parameter pressure P(t) = P(t, 0)."""
    return pressure(PressureParams(t, 0.0), alphabet, disc)


def apply_operator(params: PressureParams, alphabet: Alphabet | None,
                   disc: Discretization | None, g: Sequence[float]) -> np.ndarray:
    """One application of the operator to node values g, returned at the nodes."""
    alphabet = alphabet or Alphabet.full()
    disc = disc or Discretization.chebyshev()
    check_domain(params, alphabet)
    g = np.asarray(g, dtype=float)
    if g.shape != disc.nodes.shape or not np.all(np.isfinite(g)):
        raise ValueError("g must be finite node values matching the discretization")
    return _assemble(params, alphabet, disc)[0][0] @ g


def _derivative(which: str, params: PressureParams, alphabet: Alphabet | None,
                disc: Discretization | None, check: bool, fd_step: float,
                check_tol: float) -> float:
    """P_t or P_q at params, optionally checked by a central difference of P."""
    alphabet = alphabet or Alphabet.full()
    disc = disc or Discretization.chebyshev()
    res = _solve(params, alphabet, disc)
    val = res.dP_dt if which == "t" else res.dP_dq
    if check:
        dt, dq = (fd_step, 0.0) if which == "t" else (0.0, fd_step)
        t, q = params.t, params.q
        fd = (_solve(PressureParams(t + dt, q + dq), alphabet, disc).value
              - _solve(PressureParams(t - dt, q - dq), alphabet, disc).value) / (2 * fd_step)
        if abs(fd - val) > check_tol:
            raise ConsistencyError(
                f"dP/d{which} mismatch at {params}: gibbs {val}, finite difference {fd}")
    return val


def dP_dq(params: PressureParams, alphabet: Alphabet | None = None,
          disc: Discretization | None = None, check: bool = False,
          fd_step: float = 1e-5, check_tol: float = 1e-4) -> float:
    """Gibbs average of log a_1, i.e. the exact q-derivative of the pressure."""
    return _derivative("q", params, alphabet, disc, check, fd_step, check_tol)


def dP_dt(params: PressureParams, alphabet: Alphabet | None = None,
          disc: Discretization | None = None, check: bool = False,
          fd_step: float = 1e-5, check_tol: float = 1e-4) -> float:
    """Gibbs average of -log|T'|, i.e. the exact t-derivative of the pressure."""
    return _derivative("t", params, alphabet, disc, check, fd_step, check_tol)


class PressureProvider:
    """Caches one PressureResult per parameter point of one (alphabet, grid).

    Results are keyed by the exact float pair (t, q); warm-started solvers
    re-query identical points constantly.  Individual instances are not
    thread-safe for writes, but distinct instances are independent.
    """

    def __init__(self, alphabet: Alphabet | None = None,
                 disc: Discretization | None = None):
        self.alphabet = alphabet or Alphabet.full()
        self.disc = disc or Discretization.chebyshev()
        self._cache: dict[tuple[float, float], PressureResult] = {}

    def _lookup(self, t: float, q: float) -> PressureResult:
        res = self._cache.get((t, q))
        if res is None:
            res = self._cache[(t, q)] = _solve(PressureParams(t, q), self.alphabet, self.disc)
        return res

    def result(self, t: float, q: float) -> PressureResult:
        return self._lookup(t, q)

    def pressure(self, t: float, q: float) -> float:
        return self._lookup(t, q).value

    def dP_dq(self, t: float, q: float) -> float:
        return self._lookup(t, q).dP_dq

    def dP_dt(self, t: float, q: float) -> float:
        return self._lookup(t, q).dP_dt


@dataclass(frozen=True)
class GibbsApprox:
    """Sampling-ready eigendata of the operator at one parameter point.

    The digit law at position x is

        p(i | x) = e^(-P) i^q (i + x)^(-2t) h(1/(i+x)) / h(x),

    which sums to 1 over all digits up to the eigen-solve residual.
    """

    params: PressureParams
    alphabet: Alphabet
    disc: Discretization
    pressure: float
    h_values: np.ndarray = field(repr=False)

    def eigenfunction(self, y):
        return self.disc.interpolate(self.h_values, y)

    def _explicit_probs(self, x: float) -> np.ndarray:
        d = self.alphabet.digit_values()
        y = 1.0 / (d + x)
        w = d ** self.params.q * (d + x) ** (-2.0 * self.params.t)
        hx = float(self.disc.interpolate(self.h_values, np.asarray([x]))[0])
        return math.exp(-self.pressure) * w * self.disc.interpolate(self.h_values, y) / hx

    def digit_probabilities(self, x: float) -> tuple[np.ndarray, float]:
        """Explicit digit probabilities and the analytic mass of the tail."""
        probs = self._explicit_probs(x)
        tail_mass = 0.0
        if self.alphabet.has_tail:
            S = _tail_moments(self.params.t, self.params.q, np.asarray([x]),
                              self.alphabet.cutoff)[0]
            jets = self.disc.jet_rows @ self.h_values
            tail = float(jets @ S[0, :, 0])
            hx = float(self.disc.interpolate(self.h_values, np.asarray([x]))[0])
            tail_mass = math.exp(-self.pressure) * tail / hx
        return probs, tail_mass


def gibbs(params: PressureParams, alphabet: Alphabet | None = None,
          disc: Discretization | None = None) -> GibbsApprox:
    """Eigendata packaged for digit sampling at (t, q)."""
    alphabet = alphabet or Alphabet.full()
    res = pressure(params, alphabet, disc)
    return GibbsApprox(
        params=params,
        alphabet=alphabet,
        disc=res.disc,
        pressure=res.value,
        h_values=res.eigenfunction_values,
    )


def sample_digits(g: GibbsApprox, length: int, seed: int,
                  burn_in: int = 64) -> PartialQuotients:
    """Digit sequence of the Gibbs chain x_{k+1} = 1/(i_k + x_k).

    Deterministic for a fixed seed.  Digits up to the cutoff follow the
    conditional law p(i | x); the sliver of mass beyond the cutoff (the
    complement of the explicit probabilities, a percent or so) is drawn
    from the i^(q-2t) power-law approximation.

    The eigenfunction is read off a dense lookup table inside the loop;
    the induced relative error in the digit law is ~1e-7, far below the
    sampling noise of any realistic chain length.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    params = g.params
    d = g.alphabet.digit_values()
    log_d = np.log(d)
    m_top = float(d[-1])
    s = 2.0 * params.t - params.q
    scale = math.exp(-g.pressure)
    restricted = not g.alphabet.has_tail
    full_kind = g.alphabet.kind == "full"
    d_int = d.astype(np.int64)

    grid = np.linspace(0.0, 1.0, 4001)
    h_grid = g.disc.interpolate(g.h_values, grid)

    x = 0.5
    out = np.empty(length, dtype=np.int64)
    pos = -burn_in
    t2, q = 2.0 * params.t, params.q
    while pos < length:
        z = d + x
        probs = (scale / np.interp(x, grid, h_grid)) * np.exp(q * log_d - t2 * np.log(z))
        probs *= np.interp(1.0 / z, grid, h_grid)
        cum = np.cumsum(probs)
        u = rng.random()
        if u < cum[-1]:
            k = int(np.searchsorted(cum, u))
            digit = k + 1 if full_kind else int(d_int[k])
        elif restricted:
            digit = int(d_int[-1])  # renormalization slack lands on the last digit
        else:
            v = (u - cum[-1]) / max(1.0 - cum[-1], 1e-300)
            v = min(max(v, 1e-16), 1.0 - 1e-16)
            digit = max(int(m_top) + 1, math.floor((m_top + 0.5) * v ** (-1.0 / (s - 1.0))))
        if pos >= 0:
            out[pos] = digit
        x = 1.0 / (digit + x)
        pos += 1
    return PartialQuotients(tuple(int(a) for a in out))


@dataclass(frozen=True)
class CylinderSumEstimate:
    """Depth-n estimate of the pressure from the defining cylinder sums."""

    value: float          # log S_n - log S_{n-1}
    raw_mean: float       # (1/n) log S_n
    log_sums: tuple[float, ...]


def cylinder_sum_estimate(params: PressureParams, depth: int = 12,
                          digit_cutoff: int = 64, grid_points: int = 4001,
                          x_eval: float = 0.0) -> CylinderSumEstimate:
    """Pressure estimate straight from the n-fold cylinder sums.

    Iterates g -> sum_{i<=cutoff} i^q (i+x)^(-2t) g(1/(i+x)) on a uniform
    grid with piecewise-linear interpolation, which is an implementation of
    the defining sums over digit blocks |omega| = n (evaluated at x_eval)
    that shares nothing with the spectral collocation route.  ``value`` is
    the successive-ratio form log(S_n/S_{n-1}); ``raw_mean`` is (1/n) log S_n,
    which carries an O(log C / n) offset from the same limit.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    t, q = params.t, params.q
    xs = np.linspace(0.0, 1.0, grid_points)
    digits = np.arange(1, digit_cutoff + 1, dtype=float)
    y = 1.0 / (digits[:, None] + xs[None, :])               # (M, G)
    w = digits[:, None] ** q * (digits[:, None] + xs[None, :]) ** (-2.0 * t)
    g = np.ones_like(xs)
    log_scale = 0.0
    idx = float(x_eval)
    log_sums = []
    for _ in range(depth):
        new = np.zeros_like(xs)
        for i in range(digit_cutoff):
            new += w[i] * np.interp(y[i], xs, g)
        peak = float(new.max())
        log_scale += math.log(peak)
        g = new / peak
        log_sums.append(log_scale + math.log(float(np.interp(idx, xs, g))))
    return CylinderSumEstimate(
        value=log_sums[-1] - log_sums[-2],
        raw_mean=log_sums[-1] / depth,
        log_sums=tuple(log_sums),
    )
