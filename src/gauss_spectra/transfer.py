"""Collocation approximation of the weighted Gauss transfer operator.

The operator acting on functions over [0, 1] is

    (L g)(x) = sum_{i in alphabet} i^q (i + x)^(-2t) g(1/(i + x)),

whose dominant eigenvalue exp(P(t, q)) defines the two-parameter pressure
P.  What is collocated is the golden-weighted operator L_w f = w^-1 L(w f)
with w(x) = (x + phi)^(-2t), phi the golden ratio.  w is the exact
eigenfunction of the one-digit branch x -> 1/(1 + x), so the eigenfunction
f = h / w of L_w stays smooth at every t, while h itself falls by a factor
up to e^(2t log phi) across [0, 1]; the kernel of L_w is

    i^q ((1 + psi x) / (i + x + psi))^(2t),   psi = 1/phi,

and its spectrum is that of L.  Functions are represented by their values
on Chebyshev-Lobatto nodes with barycentric interpolation; the image of an
analytic function is analytic on a neighbourhood of [0, 1], so the
collocation eigenvalue converges spectrally in the number of nodes, and one
order serves every t.

For the full alphabet the digits beyond the cutoff M are summed in closed
form: f(1/(i + x)) = F(1/(i + x + psi)) near 0 is replaced by the Taylor
jet F of the interpolant's composition and each moment
sum_{i>M} i^q (i+x+psi)^(-rho) is expanded binomially in (x+psi)/i into
Hurwitz zeta values at the single point M+1, one zeta row for every order
and node.  This keeps the cutoff error orders of magnitude below the
collocation error instead of the ~1/M^2 a crude integral bound leaves.

Every value comes from one path: the collocation matrix A is assembled
together with its first and second (t, q)-derivatives; everything that does
not depend on (t, q) (the interpolation tensor, the stacked log-weights of
the digit weights, the node powers and jet rows of the tail expansion and
the per-node mixing of its tables) is built once per discretization and
alphabet, so an assembly is one exp, one product and two batched matrix
products.  The Perron eigenvalue is strictly dominant, so it is the largest
real eigenvalue from numpy's eigenvalues-only LAPACK call, and one inverse
of the bordered matrix [lambda I - A, 1; 1^T, 0] gives its right and left
eigenvectors as its last column and row; the solve fails with
ConvergenceError unless lambda > 0 and the right eigenvector is positive
at every node.  Pressure derivatives are exact derivatives of the
discretized eigenvalue (left/right eigenvector contraction of the
differentiated matrix), which is precisely the node-weighted Gibbs average
of log a_1 resp. -log|T'|; the second derivatives take the eigenvector
derivatives from the same inverse, so a solve factorizes once.  The
inverse gets one step of iterative refinement.  All linear algebra is
numpy's own LAPACK.  Eigendata handed out (eigenfunction values, the
Gibbs eigenfunction) are those of L: h = w f.

``pressure`` and the caching ``PressureProvider`` are the two ways to ask
for a pressure; the gradient, Hessian, eigendata and tail bound are fields
of the one ``PressureResult`` either returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .cf import PartialQuotients
from .zeta import hurwitz_zeta

DOMAIN_MARGIN = 0.01  # reject 2t - q below 1 + this; the pressure diverges at 1
JET_ORDER = 6         # Taylor orders of the eigenfunction kept in the tail
BINOM_TERMS = 20      # binomial expansion length; terms shrink like ((x+psi)/(M+1))^j
PSI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi: the weight is (x + phi)^(-2t) ~ (1 + PSI x)^(-2t)
BURN_IN = 64          # Gibbs-chain steps sample_digits discards before recording
CACHED_GRIDS = 8      # Discretization.chebyshev keeps the grids of the last 8 orders used
CACHED_ALPHABETS = 8  # a grid keeps the DigitTables of the last 8 alphabets built


class DomainError(ValueError):
    """Parameters outside the convergence region of the operator."""


class ConvergenceError(RuntimeError):
    """No result could be computed: the largest real eigenvalue of the
    collocation matrix is not positive or its eigenvector is not positive at
    every node (no Perron pair), or a spectrum solver's Newton iteration did
    not converge."""


@dataclass(frozen=True)
class Alphabet:
    """Digit set of the iterated system: all of N up to a cutoff, or a finite set."""

    kind: str                       # "full" | "restricted"
    cutoff: int | None = None
    digits: tuple[int, ...] | None = None

    @classmethod
    def full(cls, cutoff: int = 64) -> "Alphabet":
        if cutoff < 8:
            raise ValueError("full-alphabet cutoff must be >= 8")
        return cls(kind="full", cutoff=cutoff)

    @classmethod
    def restricted(cls, digits) -> "Alphabet":
        ds = tuple(sorted(set(int(d) for d in digits)))
        if not ds or ds[0] < 1:
            raise ValueError("restricted alphabet needs a nonempty set of digits >= 1")
        return cls(kind="restricted", digits=ds)

    @property
    def has_tail(self) -> bool:
        """Digits above the cutoff are summed in closed form (full alphabet)."""
        return self.kind == "full"

    def digit_values(self) -> np.ndarray:
        if self.kind == "full":
            return np.arange(1, self.cutoff + 1, dtype=float)
        return np.asarray(self.digits, dtype=float)


class DigitTables(NamedTuple):
    """The parameter-free tables of one (discretization, alphabet) pair.

    ``tensor[j, i, m]`` is the barycentric coefficient of node m in
    f(1/(i + x_j)); ``log_weights[j, :, i]`` stacks the log-derivatives
    (1, l_t, l_q, l_t^2, l_t l_q, l_q^2) of the golden-weighted digit weight
    i^q ((1 + psi x_j) / (i + x_j + psi))^(2t), with
    l_t = a_j - 2 log(i + x_j + psi), a_j = 2 log(1 + psi x_j) and
    l_q = log i.  For the digit tail, ``golden_log[j]`` is a_j;
    ``node_powers[j, m]`` is (x_m + psi)^j for the binomial expansion;
    ``tail_rows`` maps node values of f to the Taylor jet F of
    f(u / (1 - psi u)), so f(1/(i + x)) = F(1/(i + x + psi)); and
    ``tail_mix[j]`` turns the six moment tables (S, S_t, S_q, S_tt, S_tq,
    S_qq) into those of e^(t a_j) S divided by e^(t a_j).
    """

    tensor: np.ndarray
    log_weights: np.ndarray
    golden_log: np.ndarray
    node_powers: np.ndarray
    tail_rows: np.ndarray
    tail_mix: np.ndarray


def _golden_shift() -> np.ndarray:
    """G[n, r] = C(n - 1, r - 1) psi^(n - r) (G[0, 0] = 1): the Taylor
    coefficients of f(u / (1 - psi u)) are G times those of f."""
    shift = np.zeros((JET_ORDER + 1, JET_ORDER + 1))
    shift[0, 0] = 1.0
    for n in range(1, JET_ORDER + 1):
        for r in range(1, n + 1):
            shift[n, r] = math.comb(n - 1, r - 1) * PSI ** (n - r)
    return shift


def _tail_mix(a: np.ndarray) -> np.ndarray:
    """Per-node (6, 6) matrices taking (S, S_t, S_q, S_tt, S_tq, S_qq) to
    (S, S_t + aS, S_q, S_tt + 2aS_t + a^2 S, S_tq + aS_q, S_qq), the
    tables of e^(t a) S over e^(t a)."""
    mix = np.zeros((len(a), 6, 6))
    mix[:, range(6), range(6)] = 1.0
    mix[:, 1, 0] = a
    mix[:, 3, 0] = a * a
    mix[:, 3, 1] = 2.0 * a
    mix[:, 4, 2] = a
    return mix


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
        """The grid of ``order`` nodes, one shared instance per order (of the
        CACHED_GRIDS orders used last), so every caller shares its digit
        tables."""
        if order < 4:
            raise ValueError("collocation order must be >= 4")
        return _grid(int(order))

    @classmethod
    def _build(cls, order: int) -> "Discretization":
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

    def digit_tables(self, alphabet: Alphabet) -> DigitTables:
        """The ``DigitTables`` of this grid and ``alphabet``, kept for the
        CACHED_ALPHABETS alphabets built last."""
        tables = self._tensor_cache.get(alphabet)
        if tables is None:
            tables = self._tensor_cache[alphabet] = self._build_tables(alphabet)
            if len(self._tensor_cache) > CACHED_ALPHABETS:
                self._tensor_cache.pop(next(iter(self._tensor_cache)), None)
        return tables

    def _build_tables(self, alphabet: Alphabet) -> DigitTables:
        d = alphabet.digit_values()
        a = 2.0 * np.log1p(PSI * self.nodes)
        lt = a[:, None] - 2.0 * np.log(d + self.nodes[:, None] + PSI)     # (K, M)
        lq = np.broadcast_to(np.log(d), lt.shape)
        return DigitTables(
            tensor=self.coefficients(1.0 / (d + self.nodes[:, None])),
            log_weights=np.stack([np.ones_like(lt), lt, lq, lt * lt, lt * lq, lq * lq],
                                 axis=1),
            golden_log=a,
            node_powers=_node_powers(self.nodes + PSI),
            tail_rows=_golden_shift() @ self.jet_rows,
            tail_mix=_tail_mix(a))


@functools.lru_cache(maxsize=CACHED_GRIDS)
def _grid(order: int) -> Discretization:
    return Discretization._build(order)


@dataclass(frozen=True)
class PressureResult:
    """Pressure value with its exact gradient and Hessian, eigenfunction and
    tail diagnostics.

    ``eigenfunction_values`` are the node values, on the requested
    discretization, of the eigenfunction h of the unweighted operator
    (largest 1).
    """

    value: float
    dP_dt: float
    dP_dq: float
    d2P_dt2: float
    d2P_dtdq: float
    d2P_dq2: float
    eigenfunction_values: np.ndarray
    tail_error_bound: float


def check_domain(t: float, q: float, alphabet: Alphabet) -> None:
    if alphabet.kind == "full" and 2.0 * t - q - 1.0 < DOMAIN_MARGIN:
        raise DomainError(
            f"(t, q) = ({t}, {q}) has 2t - q = "
            f"{2 * t - q:.6f} <= {1 + DOMAIN_MARGIN}; "
            "the full-alphabet pressure diverges as 2t - q -> 1"
        )


def _binomial_polys(count: int) -> np.ndarray:
    """C(-rho, j) = (-1)^j (rho)_j / j! for j < count and its first two
    t-derivatives (rho = 2t + r, drho/dt = 2) as polynomials in rho.

    Entry [d, k, j] is the coefficient of rho^k in d^d C(-rho, j) / dt^d,
    so a row of powers of rho times the table gives all three at once.  They
    come from the rising-factorial recurrence
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
    return np.stack([poly, poly @ d_dt, poly @ d_dt @ d_dt]).transpose(0, 2, 1)


_BINOM_POLYS = _binomial_polys(BINOM_TERMS + 1)
_POWERS = np.arange(BINOM_TERMS + 1, dtype=float)
_ORDERS = np.arange(JET_ORDER + 1, dtype=float)
_S_OFFSETS = np.arange(JET_ORDER + BINOM_TERMS + 1, dtype=float)
# zeta row index of term j at Taylor order r
_ZETA_WINDOW = np.arange(JET_ORDER + 1)[:, None] + np.arange(BINOM_TERMS + 1)
# the six tables as combinations of the products C_a Z_b (column 3a + b) of
# the binomial coefficients C, C_t, C_tt and the zeta values Z, Z', Z''
_TAIL_MIX = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],     # C Z
    [0, 2, 0, 1, 0, 0, 0, 0, 0],     # C_t Z + 2 C Z'
    [0, -1, 0, 0, 0, 0, 0, 0, 0],    # -C Z'
    [0, 0, 4, 0, 4, 0, 1, 0, 0],     # C_tt Z + 4 C_t Z' + 4 C Z''
    [0, 0, -2, 0, -1, 0, 0, 0, 0],   # -C_t Z' - 2 C Z''
    [0, 0, 1, 0, 0, 0, 0, 0, 0],     # C Z''
], dtype=float)


def _node_powers(x: np.ndarray) -> np.ndarray:
    """x_k^j for the binomial terms j <= BINOM_TERMS, as [j, k]."""
    return np.asarray(x, dtype=float) ** _POWERS[:, None]


def _tail_moments(t: float, q: float, node_powers: np.ndarray, cutoff: int):
    """Closed-form digit-tail moments above the cutoff and their (t, q)-derivatives.

    ``node_powers`` is ``_node_powers(x)`` of the points x_k.  Returns
    (moments, binom_trunc).  moments[p, r, k] for r <= JET_ORDER is

        sum_{i>M} f_p(i, x_k) i^q (i + x_k)^(-(2t+r)),

    f_p = 1, -2 log(i+x), log i, 4 log^2(i+x), -2 log i log(i+x), log^2 i for
    p = 0..5: the moment and its t, q, tt, tq and qq derivatives.  Expanding
    (i+x)^(-rho) = sum_j C(-rho, j) x^j i^(-rho-j) in x/i gives

        sum_{i>M} i^q (i+x)^(-rho) = sum_j C(-rho, j) x^j zeta(rho + j - q, M + 1),

    so every zeta value sits at the one point a = M + 1 and one Hurwitz zeta
    row, with two s-derivatives, serves all orders r and nodes x.  With
    rho = 2t + r the coefficients depend on t alone and s = rho + j - q has
    ds/dt = 2, ds/dq = -1, so the derivative tables follow by the chain rule:
    the six coefficient tables are one constant mixing matrix times the
    products of (C, C_t, C_tt) with (Z, Z', Z'').  ``binom_trunc`` is the
    size of the last binomial term at r = 0, a truncation proxy.  The
    assembly passes the shifted nodes x + psi <= 1 + psi, so the ratio x/i
    is at most 0.025 and BINOM_TERMS = 20 terms reach 1e-32.
    """
    s_grid = 2.0 * t - q + _S_OFFSETS
    zeta = np.array(hurwitz_zeta(s_grid, cutoff + 1.0, derivative=2))[:, _ZETA_WINDOW]
    rho = 2.0 * t + _ORDERS
    binom = rho[:, None] ** _POWERS @ _BINOM_POLYS                  # (3, R, J+1)
    products = binom.reshape(3, 1, -1) * zeta.reshape(1, 3, -1)     # C_a Z_b at [a, b]
    coefs = (_TAIL_MIX @ products.reshape(9, -1)).reshape(6 * (JET_ORDER + 1), -1)
    moments = (coefs @ node_powers).reshape(6, JET_ORDER + 1, -1)
    binom_trunc = abs(float(coefs[0, -1])) * float(node_powers[-1].max())
    return moments, binom_trunc


def _assemble(t: float, q: float, alphabet: Alphabet, disc: Discretization):
    """The golden-weighted A and its derivatives d/dt, d/dq, d2/dt2, d2/dtdq,
    d2/dq2 stacked as (6, K, K), the tail moments (or None) and the node
    weights e^(t a_j) = w(0) / w(x_j)."""
    tables = disc.digit_tables(alphabet)
    weight = np.exp(t * tables.golden_log)
    W = np.exp(q * tables.log_weights[:, 2] + t * tables.log_weights[:, 1])    # (K, M)
    # mats[j, p, m] = sum_i log_weights[j, p, i] W[j, i] C[j, i, m], batched over j
    mats = np.matmul(tables.log_weights * W[:, None], tables.tensor)
    moments = None
    if alphabet.has_tail:
        moments = _tail_moments(t, q, tables.node_powers, alphabet.cutoff)
        tail = tables.tail_mix @ moments[0].transpose(2, 0, 1)                # (K, 6, R)
        mats += (weight[:, None, None] * tail) @ tables.tail_rows
    return mats.transpose(1, 0, 2), moments, weight


def _perron_pair(A: np.ndarray, t: float, q: float, disc: Discretization):
    """(f, nu, inverse): the right and left eigenvectors of the Perron
    eigenvalue of A, each with entries summing to 1, and the inverse of the
    bordered matrix they come from.

    The Perron eigenvalue lambda is the largest real eigenvalue of A, from
    numpy's eigenvalues-only LAPACK call.  The bordered matrix

        B = [lambda I - A, 1; 1^T, 0]

    is nonsingular when 1^T f and nu 1 are nonzero, which a positive Perron
    pair guarantees, and one inverse gives both eigenvectors: the last
    column of B^-1 is (f; 0) with 1^T f = 1, its last row (nu; 0) with
    nu 1 = 1.  The inverse X takes one step of iterative refinement,
    X + X (I - B X), which refines every column and row at once: without
    it, the gradient and Hessian next to the divergence line at large t are
    up to 1e-11 off a 40-digit eigen-solve of the same matrix, with it
    2e-12.  ``pressure`` solves with the same inverse for the eigenvector
    derivatives.  A failed eigenvalue iteration, a singular B, no positive
    real eigenvalue or a right eigenvector that is not positive raise
    ``ConvergenceError``.
    """
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            f"eigenvalues did not converge at (t, q) = ({t}, {q}) (order {disc.order})") from None
    real = eig.real[eig.imag == 0.0]
    lam = float(real.max()) if real.size else math.nan
    if not lam > 0.0:
        raise ConvergenceError(
            f"no positive real eigenvalue at (t, q) = ({t}, {q}) (order {disc.order})")
    n = len(A)
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = -A
    bordered.flat[:n * (n + 2):n + 2] += lam
    bordered[n, n] = 0.0
    try:
        inverse = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            f"singular bordered matrix at (t, q) = ({t}, {q}) (order {disc.order})") from None
    inverse += inverse @ (np.eye(n + 1) - bordered @ inverse)
    f = inverse[:n, n]
    if not (f > 0.0).all():
        raise ConvergenceError(
            "the eigenvector of the largest real eigenvalue is not positive at "
            f"(t, q) = ({t}, {q}) (order {disc.order})")
    return f, inverse[n, :n], inverse


def required_order(t: float, base_order: int) -> int:
    """The collocation order of a solve at parameter t: ``base_order``.

    The golden weight keeps the collocated eigenfunction smooth at every t,
    so the requested order serves every t and is never raised.  The
    function stays because the benchmark's tracer
    (``spectra_bench/tracing.py``) reports the order of each solve with it.
    """
    return base_order


def pressure(t: float, q: float, alphabet: Alphabet | None = None,
             disc: Discretization | None = None) -> PressureResult:
    """P(t, q) as the log of the Perron collocation eigenvalue, with its exact
    gradient and Hessian: the eigen-solve behind every pressure value.

    The alphabet defaults to the full one (cutoff 64) and the grid to order
    16.  Checks the domain, assembles the golden-weighted A with its first and
    second derivatives once and takes the Perron pair (f, nu) from
    ``_perron_pair``.  The derivatives are the exact ones of the discretized
    eigenvalue: with nu f = 1,

        lambda_i  = nu A_i f,
        lambda_ij = nu A_ij f + nu A_i f_j + nu A_j f_i,

    where the eigenvector derivative f_i solves (lambda - A) f_i =
    (A_i - lambda_i) f with nu f_i = 0.  The right-hand sides are
    annihilated by nu, so the bordered system [lambda - A, 1; 1^T, 0]
    [f_i; 0] = [(A_i - lambda_i) f; 0] holds, and the Perron pair's refined
    inverse of it solves both columns at once; the Perron direction is then
    projected out.  The
    eigenfunction returned is that of the unweighted operator, h = w f up
    to normalization.
    """
    alphabet = alphabet or Alphabet.full()
    disc = disc or Discretization.chebyshev()
    check_domain(t, q, alphabet)
    mats, moments, weight = _assemble(t, q, alphabet, disc)
    f, nu, inverse = _perron_pair(mats[0], t, q, disc)
    # nu (A, A_t, A_q, A_tt, A_tq, A_qq) f with nu f = 1; the two-sided
    # quotient is second-order accurate in the eigenvectors
    nu_f = nu / float(nu @ f)
    nu_mats = nu_f @ mats
    lam, lam_t, lam_q, lam_tt, lam_tq, lam_qq = nu_mats @ f
    rhs = (mats[1:3] @ f).T - f[:, None] * (lam_t, lam_q)
    df = inverse[:-1, :-1] @ rhs                   # the border row of the rhs is 0
    df -= f[:, None] * (nu_f @ df)                 # columns f_t, f_q with nu f_i = 0
    cross = nu_mats[1:3] @ df                      # cross[i, j] = nu A_i f_j
    P_t, P_q = lam_t / lam, lam_q / lam
    tail_bound = 0.0
    if moments is not None:
        S, binom_trunc = moments
        # the bound is linear in f: take f at largest node value 1, not sum 1
        jets = disc.digit_tables(alphabet).tail_rows @ (f / f.max())
        tail_bound = float((abs(jets[-1]) * (weight * np.abs(S[0, JET_ORDER])).max()
                            + abs(jets[0]) * binom_trunc * weight.max()) / lam)
    eigenfunction = f / weight
    return PressureResult(
        value=math.log(lam),
        dP_dt=float(P_t),
        dP_dq=float(P_q),
        d2P_dt2=float((lam_tt + 2.0 * cross[0, 0]) / lam - P_t * P_t),
        d2P_dtdq=float((lam_tq + cross[0, 1] + cross[1, 0]) / lam - P_t * P_q),
        d2P_dq2=float((lam_qq + 2.0 * cross[1, 1]) / lam - P_q * P_q),
        eigenfunction_values=eigenfunction / eigenfunction.max(),
        tail_error_bound=tail_bound,
    )


def apply_operator(t: float, q: float, alphabet: Alphabet | None,
                   disc: Discretization | None, g: Sequence[float]) -> np.ndarray:
    """One application of the operator to node values g, returned at the nodes."""
    alphabet = alphabet or Alphabet.full()
    disc = disc or Discretization.chebyshev()
    check_domain(t, q, alphabet)
    g = np.asarray(g, dtype=float)
    if g.shape != disc.nodes.shape or not np.all(np.isfinite(g)):
        raise ValueError("g must be finite node values matching the discretization")
    mats, _, weight = _assemble(t, q, alphabet, disc)
    return (mats[0] @ (weight * g)) / weight


class PressureProvider:
    """Caches one PressureResult per parameter point of one (alphabet, grid).

    Results are keyed by the exact float pair (t, q); warm-started solvers
    re-query identical points constantly.  Instances are not thread-safe
    for writes; distinct instances share only the grid of their order and
    its digit tables.
    """

    def __init__(self, alphabet: Alphabet | None = None,
                 disc: Discretization | None = None):
        self.alphabet = alphabet or Alphabet.full()
        self.disc = disc or Discretization.chebyshev()
        self._cache: dict[tuple[float, float], PressureResult] = {}

    def _lookup(self, t: float, q: float) -> PressureResult:
        res = self._cache.get((t, q))
        if res is None:
            res = self._cache[(t, q)] = pressure(t, q, self.alphabet, self.disc)
        return res

    @property
    def solves(self) -> int:
        """Eigen-solves made so far: one per cached parameter point."""
        return len(self._cache)

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

    which sums to 1 over all digits up to the eigen-solve residual.  The
    eigenfunction is h(y) = (1 + psi y)^(-2t) f(y), with f, the smooth
    eigenfunction of the golden-weighted operator, interpolated from its
    node values ``f_values``.
    """

    t: float
    q: float
    alphabet: Alphabet
    disc: Discretization
    pressure: float
    f_values: np.ndarray = field(repr=False)

    def eigenfunction(self, y):
        y = np.asarray(y, dtype=float)
        f = self.disc.coefficients(y) @ self.f_values
        return (1.0 + PSI * y) ** (-2.0 * self.t) * f

    def digit_probabilities(self, x: float) -> tuple[np.ndarray, float]:
        """Explicit digit probabilities and the analytic mass of the tail."""
        t, q = self.t, self.q
        d = self.alphabet.digit_values()
        scale = math.exp(-self.pressure) / float(self.eigenfunction(x))
        probs = scale * d ** q * (d + x) ** (-2.0 * t) * self.eigenfunction(1.0 / (d + x))
        tail_mass = 0.0
        if self.alphabet.has_tail:
            # as in the assembly: the jets F of f against the moments at x + psi
            S = _tail_moments(t, q, _node_powers([x + PSI]), self.alphabet.cutoff)[0]
            jets = self.disc.digit_tables(self.alphabet).tail_rows @ self.f_values
            tail_mass = scale * float(jets @ S[0, :, 0])
        return probs, tail_mass


def gibbs(t: float, q: float, alphabet: Alphabet | None = None,
          disc: Discretization | None = None) -> GibbsApprox:
    """Eigendata packaged for digit sampling at (t, q)."""
    alphabet = alphabet or Alphabet.full()
    disc = disc or Discretization.chebyshev()
    res = pressure(t, q, alphabet, disc)
    f = res.eigenfunction_values * (1.0 + PSI * disc.nodes) ** (2.0 * t)
    return GibbsApprox(
        t=t,
        q=q,
        alphabet=alphabet,
        disc=disc,
        pressure=res.value,
        f_values=f / f.max(),
    )


def sample_digits(g: GibbsApprox, length: int, seed: int) -> PartialQuotients:
    """Digit sequence of the Gibbs chain x_{k+1} = 1/(i_k + x_k).

    Deterministic for a fixed seed; the first BURN_IN steps are discarded.
    Digits up to the cutoff follow the conditional law p(i | x); the sliver
    of mass beyond the cutoff (the complement of the explicit probabilities,
    a percent or so) is drawn from the i^(q-2t) power-law approximation.

    The eigenfunction is read off a dense lookup table inside the loop;
    the induced relative error in the digit law is ~1e-7, far below the
    sampling noise of any realistic chain length.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    d = g.alphabet.digit_values()
    log_d = np.log(d)
    m_top = float(d[-1])
    s = 2.0 * g.t - g.q
    scale = math.exp(-g.pressure)
    has_tail = g.alphabet.has_tail
    d_int = d.astype(np.int64)

    grid = np.linspace(0.0, 1.0, 4001)
    h_grid = g.eigenfunction(grid)

    x = 0.5
    out = np.empty(length, dtype=np.int64)
    pos = -BURN_IN
    t2, q = 2.0 * g.t, g.q
    while pos < length:
        z = d + x
        probs = (scale / np.interp(x, grid, h_grid)) * np.exp(q * log_d - t2 * np.log(z))
        probs *= np.interp(1.0 / z, grid, h_grid)
        cum = np.cumsum(probs)
        u = rng.random()
        if u < cum[-1]:
            k = int(np.searchsorted(cum, u))
            digit = int(d_int[k])
        elif not has_tail:
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


def cylinder_sum_estimate(t: float, q: float, depth: int = 12,
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
    )
