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
moment sum_{i>M} i^q (i+x)^(-rho) is expanded binomially into Hurwitz zeta
values at M+1+x.  This keeps the cutoff error orders of magnitude below
the collocation error instead of the ~1/M^2 a crude integral bound leaves.

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

from .cf import PartialQuotients
from .zeta import hurwitz_zeta

DOMAIN_MARGIN = 0.01  # reject 2t - q below 1 + this; the pressure diverges at 1
JET_ORDER = 6         # Taylor orders of g kept in the tail
LOG_EXTRA = 8         # extra moment orders for the log-digit tail
BINOM_TERMS = 40      # binomial expansion length; terms shrink like (x/M)^j

POWER_TOL = 1e-13
POWER_MAX_ITER = 10_000


class DomainError(ValueError):
    """Parameters outside the convergence region of the operator."""


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge or produced a non-positive mode."""


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
        diff = np.zeros((order, order))
        for i in range(order):
            for j in range(order):
                if i != j:
                    diff[i, j] = (weights[j] / weights[i]) / (nodes[i] - nodes[j])
            diff[i, i] = -np.sum(diff[i, np.arange(order) != i])

        jet_max = JET_ORDER + LOG_EXTRA
        rows = np.zeros((jet_max + 1, order))
        rows[0, 0] = 1.0
        for r in range(1, jet_max + 1):
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
        """coefficients of g(1/(i + node)) as C[i, j, m], cached per alphabet."""
        key = (alphabet.kind, alphabet.cutoff, alphabet.digits)
        tensor = self._tensor_cache.get(key)
        if tensor is None:
            d = alphabet.digit_values()
            y = 1.0 / (d[:, None] + self.nodes[None, :])
            tensor = self.coefficients(y)
            self._tensor_cache[key] = tensor
        return tensor


@dataclass(frozen=True)
class PressureResult:
    """Pressure value with its eigendata and tail diagnostics.

    ``disc`` is the discretization the eigendata lives on; it is finer than
    the requested one when the eigenfunction's dynamic range forced a
    higher collocation order (large t).
    """

    params: PressureParams
    value: float
    eigenfunction_values: np.ndarray
    left_eigen_weights: np.ndarray
    tail_error_bound: float
    iterations: int
    disc: "Discretization"


def check_domain(params: PressureParams, alphabet: Alphabet) -> None:
    if alphabet.kind == "full" and params.gap() < DOMAIN_MARGIN:
        raise DomainError(
            f"(t, q) = ({params.t}, {params.q}) has 2t - q = "
            f"{2 * params.t - params.q:.6f} <= {1 + DOMAIN_MARGIN}; "
            "the full-alphabet pressure diverges as 2t - q -> 1"
        )


def _binom_coeffs(q: float, count: int) -> np.ndarray:
    b = np.empty(count)
    b[0] = 1.0
    for j in range(count - 1):
        b[j + 1] = b[j] * (q - j) / (j + 1)
    return b


class _TailMoments:
    """Closed-form digit-tail moments above the cutoff.

    S[r, k]    = sum_{i>M} i^q (i + x_k)^(-(2t+r))
    S_dq[r, k] = sum_{i>M} log(i) i^q (i + x_k)^(-(2t+r))
    S_dt[r, k] = -2 sum_{i>M} log(i + x_k) i^q (i + x_k)^(-(2t+r))

    via i^q (i+x)^(-rho) = sum_j C(q, j) (-x)^j (i+x)^(q-rho-j) and Hurwitz
    zeta sums at a = M + 1 + x.
    """

    def __init__(self, t: float, q: float, nodes: np.ndarray, cutoff: int,
                 r_max: int, want_deriv: bool):
        self.x = nodes
        a = cutoff + 1.0 + nodes
        s0 = 2.0 * t - q
        n_offsets = np.arange(r_max + BINOM_TERMS + 1, dtype=float)
        s_grid = s0 + n_offsets
        if want_deriv:
            Z, Zp = hurwitz_zeta(s_grid[:, None], a[None, :], derivative=True)
        else:
            Z = hurwitz_zeta(s_grid[:, None], a[None, :])
            Zp = None
        b = _binom_coeffs(q, BINOM_TERMS + 1)
        xpow = (-nodes[None, :]) ** np.arange(BINOM_TERMS + 1)[:, None]
        self._bx = b[:, None] * xpow          # (J+1, K)
        self._Z = Z
        self._Zp = Zp
        self._r_max = r_max
        # size of the last binomial term at r = 0: truncation proxy
        self.binom_trunc = float(np.max(np.abs(self._bx[-1] * Z[BINOM_TERMS])))

    def S(self, r: int) -> np.ndarray:
        return np.einsum("jk,jk->k", self._bx, self._Z[r:r + BINOM_TERMS + 1])

    def S_dt(self, r: int) -> np.ndarray:
        return 2.0 * np.einsum("jk,jk->k", self._bx, self._Zp[r:r + BINOM_TERMS + 1])

    def S_dq(self, r: int) -> np.ndarray:
        # log i = log(i+x) - sum_{k>=1} x^k / (k (i+x)^k)
        out = -np.einsum("jk,jk->k", self._bx, self._Zp[r:r + BINOM_TERMS + 1])
        for k in range(1, LOG_EXTRA + 1):
            out -= (self.x ** k / k) * self.S(r + k)
        return out


class _Pieces:
    """Assembled collocation matrix and (lazily) its parameter derivatives."""

    def __init__(self, params: PressureParams, alphabet: Alphabet, disc: Discretization):
        self.params = params
        self.alphabet = alphabet
        self.disc = disc
        t, q = params.t, params.q
        d = alphabet.digit_values()
        nodes = disc.nodes
        self._log_d = np.log(d)[:, None]                      # (M, 1)
        self._log_dx = np.log(d[:, None] + nodes[None, :])    # (M, K)
        self._W = np.exp(q * self._log_d - 2.0 * t * self._log_dx)
        self._C = disc.digit_tensor(alphabet)
        self.A = np.einsum("ij,ijm->jm", self._W, self._C)
        self._moments: _TailMoments | None = None
        self._moments_deriv = False
        self.binom_trunc = 0.0
        if alphabet.has_tail:
            m = self._get_moments(False)
            jr = disc.jet_rows
            for r in range(JET_ORDER + 1):
                self.A += np.outer(m.S(r), jr[r])
            self.binom_trunc = m.binom_trunc
        self._dA: dict[str, np.ndarray] = {}

    def _get_moments(self, deriv: bool) -> _TailMoments:
        if self._moments is None or (deriv and not self._moments_deriv):
            self._moments = _TailMoments(
                self.params.t, self.params.q, self.disc.nodes,
                self.alphabet.cutoff, JET_ORDER + LOG_EXTRA, deriv,
            )
            self._moments_deriv = deriv
        return self._moments

    def derivative_matrix(self, which: str) -> np.ndarray:
        """d A / dt or d A / dq, including the tail."""
        got = self._dA.get(which)
        if got is not None:
            return got
        if which == "t":
            dA = np.einsum("ij,ijm->jm", -2.0 * self._log_dx * self._W, self._C)
        elif which == "q":
            dA = np.einsum("ij,ijm->jm", self._log_d * self._W, self._C)
        else:
            raise ValueError(which)
        if self.alphabet.has_tail:
            m = self._get_moments(True)
            jr = self.disc.jet_rows
            for r in range(JET_ORDER + 1):
                s_row = m.S_dt(r) if which == "t" else m.S_dq(r)
                dA += np.outer(s_row, jr[r])
        self._dA[which] = dA
        return dA


def _power_iterate(A: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray, int]:
    n = A.shape[0]
    v = np.ones(n)
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = A @ v
        idx = int(np.argmax(np.abs(w)))
        lam_new = float(w[idx]) if v[idx] == 0 else float(w[idx] / v[idx])
        norm = float(np.abs(w[idx]))
        if norm == 0.0 or not math.isfinite(norm):
            raise ConvergenceError("power iteration collapsed to zero / overflow")
        v_new = w / norm * (1.0 if w[idx] > 0 else -1.0)
        if it >= 3 and abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new, v_new, it
        lam, v = lam_new, v_new
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def _dense_positive_pair(A: np.ndarray) -> tuple[float, np.ndarray] | None:
    """The Perron pair of A: largest real positive eigenvalue whose eigenvector
    is strictly positive.  Used when spurious collocation modes outgrow it."""
    w, V = np.linalg.eig(A)
    order = np.argsort(-w.real)
    for k in order:
        lam = w[k]
        if lam.real <= 0.0 or abs(lam.imag) > 1e-9 * (1.0 + abs(lam.real)):
            continue
        v = V[:, k].real
        v = v / v[np.argmax(np.abs(v))]
        if np.all(v > 0.0):
            return float(lam.real), v
    return None


def _solve_eigen(pieces: _Pieces, tol: float, max_iter: int):
    A = pieces.A
    iters = 0
    try:
        lam, h, it_r = _power_iterate(A, tol, max_iter)
        iters += it_r
        if lam <= 0.0 or np.any(h <= 0.0):
            raise ConvergenceError("power iteration found a non-Perron mode")
    except ConvergenceError:
        got = _dense_positive_pair(A)
        if got is None:
            raise ConvergenceError(
                f"no positive dominant eigenpair at {pieces.params} "
                f"(order {pieces.disc.order}); spurious modes dominate")
        lam, h = got

    try:
        lam_l, nu, it_l = _power_iterate(A.T, tol, max_iter)
        iters += it_l
        if abs(lam_l - lam) > 1e-6 * abs(lam):
            raise ConvergenceError("left iteration found a different mode")
    except ConvergenceError:
        w, V = np.linalg.eig(A.T)
        k = int(np.argmin(np.abs(w - lam)))
        nu = V[:, k].real
    if np.sum(nu) < 0:
        nu = -nu
    nu = nu / np.sum(nu)
    # one two-sided Rayleigh quotient sharpens the eigenvalue estimate
    denom = float(nu @ h)
    if denom != 0.0:
        lam_rq = float(nu @ (A @ h)) / denom
        if lam_rq > 0.0 and abs(lam_rq - lam) < 1e-6 * abs(lam):
            lam = lam_rq
    return lam, h, nu, iters


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


def _tail_error_bound(pieces: _Pieces, h: np.ndarray, lam: float) -> float:
    if not pieces.alphabet.has_tail:
        return 0.0
    m = pieces._get_moments(False)
    jets = pieces.disc.jet_rows[: JET_ORDER + 1] @ h
    jet_term = float(abs(jets[-1])) * float(np.max(np.abs(m.S(JET_ORDER))))
    binom_term = float(abs(jets[0])) * pieces.binom_trunc
    return float((jet_term + binom_term) / lam)


def pressure(params: PressureParams, alphabet: Alphabet | None = None,
             disc: Discretization | None = None, tol: float = POWER_TOL,
             max_iter: int = POWER_MAX_ITER) -> PressureResult:
    """P(t, q) as the log of the dominant collocation eigenvalue."""
    alphabet = alphabet or Alphabet.full()
    disc = _effective_disc(params, disc or Discretization.chebyshev())
    check_domain(params, alphabet)
    pieces = _Pieces(params, alphabet, disc)
    lam, h, nu, iters = _solve_eigen(pieces, tol, max_iter)
    return PressureResult(
        params=params,
        value=math.log(lam),
        eigenfunction_values=h,
        left_eigen_weights=nu,
        tail_error_bound=_tail_error_bound(pieces, h, lam),
        iterations=iters,
        disc=disc,
    )


def pressure_1d(t: float, alphabet: Alphabet | None = None,
                disc: Discretization | None = None, **kw) -> PressureResult:
    """The one-parameter pressure P(t) = P(t, 0)."""
    return pressure(PressureParams(t, 0.0), alphabet, disc, **kw)


def apply_operator(params: PressureParams, alphabet: Alphabet | None,
                   disc: Discretization | None, g: Sequence[float]) -> np.ndarray:
    """One application of the operator to node values g, returned at the nodes."""
    alphabet = alphabet or Alphabet.full()
    disc = disc or Discretization.chebyshev()
    check_domain(params, alphabet)
    g = np.asarray(g, dtype=float)
    if g.shape != disc.nodes.shape or not np.all(np.isfinite(g)):
        raise ValueError("g must be finite node values matching the discretization")
    return _Pieces(params, alphabet, disc).A @ g


def _eigen_derivative(pieces: _Pieces, which: str, lam: float,
                      h: np.ndarray, nu: np.ndarray) -> float:
    dA = pieces.derivative_matrix(which)
    return float(nu @ (dA @ h)) / (lam * float(nu @ h))


def dP_dq(params: PressureParams, alphabet: Alphabet | None = None,
          disc: Discretization | None = None, check: bool = False,
          fd_step: float = 1e-5, check_tol: float = 1e-4) -> float:
    """Gibbs average of log a_1, i.e. the exact q-derivative of the pressure."""
    alphabet = alphabet or Alphabet.full()
    disc = _effective_disc(params, disc or Discretization.chebyshev())
    check_domain(params, alphabet)
    pieces = _Pieces(params, alphabet, disc)
    lam, h, nu, _ = _solve_eigen(pieces, POWER_TOL, POWER_MAX_ITER)
    val = _eigen_derivative(pieces, "q", lam, h, nu)
    if check:
        t, q = params.t, params.q
        fd = (pressure(PressureParams(t, q + fd_step), alphabet, disc).value
              - pressure(PressureParams(t, q - fd_step), alphabet, disc).value) / (2 * fd_step)
        if abs(fd - val) > check_tol:
            raise ConsistencyError(
                f"dP/dq mismatch at {params}: gibbs {val}, finite difference {fd}")
    return val


def dP_dt(params: PressureParams, alphabet: Alphabet | None = None,
          disc: Discretization | None = None, check: bool = False,
          fd_step: float = 1e-5, check_tol: float = 1e-4) -> float:
    """Gibbs average of -log|T'|, i.e. the exact t-derivative of the pressure."""
    alphabet = alphabet or Alphabet.full()
    disc = _effective_disc(params, disc or Discretization.chebyshev())
    check_domain(params, alphabet)
    pieces = _Pieces(params, alphabet, disc)
    lam, h, nu, _ = _solve_eigen(pieces, POWER_TOL, POWER_MAX_ITER)
    val = _eigen_derivative(pieces, "t", lam, h, nu)
    if check:
        t, q = params.t, params.q
        fd = (pressure(PressureParams(t + fd_step, q), alphabet, disc).value
              - pressure(PressureParams(t - fd_step, q), alphabet, disc).value) / (2 * fd_step)
        if abs(fd - val) > check_tol:
            raise ConsistencyError(
                f"dP/dt mismatch at {params}: gibbs {val}, finite difference {fd}")
    return val


class PressureProvider:
    """Caches eigen-solves so spectrum solvers can hammer one (alphabet, grid).

    Results are keyed by the exact float pair (t, q); warm-started solvers
    re-query identical points constantly.  Individual instances are not
    thread-safe for writes, but distinct instances are independent.
    """

    def __init__(self, alphabet: Alphabet | None = None,
                 disc: Discretization | None = None,
                 tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER):
        self.alphabet = alphabet or Alphabet.full()
        self.disc = disc or Discretization.chebyshev()
        self.tol = tol
        self.max_iter = max_iter
        self._cache: dict[tuple[float, float], dict] = {}

    def _entry(self, t: float, q: float) -> dict:
        key = (t, q)
        e = self._cache.get(key)
        if e is None:
            params = PressureParams(t, q)
            check_domain(params, self.alphabet)
            use_disc = _effective_disc(params, self.disc)
            pieces = _Pieces(params, self.alphabet, use_disc)
            lam, h, nu, iters = _solve_eigen(pieces, self.tol, self.max_iter)
            e = {"pieces": pieces, "lam": lam, "h": h, "nu": nu,
                 "iters": iters, "disc": use_disc}
            self._cache[key] = e
        return e

    def result(self, t: float, q: float) -> PressureResult:
        e = self._entry(t, q)
        return PressureResult(
            params=PressureParams(t, q),
            value=math.log(e["lam"]),
            eigenfunction_values=e["h"],
            left_eigen_weights=e["nu"],
            tail_error_bound=_tail_error_bound(e["pieces"], e["h"], e["lam"]),
            iterations=e["iters"],
            disc=e["disc"],
        )

    def pressure(self, t: float, q: float) -> float:
        return math.log(self._entry(t, q)["lam"])

    def dP_dq(self, t: float, q: float) -> float:
        e = self._entry(t, q)
        return _eigen_derivative(e["pieces"], "q", e["lam"], e["h"], e["nu"])

    def dP_dt(self, t: float, q: float) -> float:
        e = self._entry(t, q)
        return _eigen_derivative(e["pieces"], "t", e["lam"], e["h"], e["nu"])


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
            moments = _TailMoments(
                self.params.t, self.params.q, np.asarray([x]),
                self.alphabet.cutoff, JET_ORDER, False,
            )
            jets = self.disc.jet_rows[: JET_ORDER + 1] @ self.h_values
            tail = sum(jets[r] * moments.S(r)[0] for r in range(JET_ORDER + 1))
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
