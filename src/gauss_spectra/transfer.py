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
together with its first and second (t, q)-derivatives and its third
t-derivative (the stack DERIVATIVES); the mixed third derivatives of a
solve contract A_ttq, A_tqq and A_qqq with its eigenvectors without
forming them.  Everything that does
not depend on (t, q) (the interpolation tensor, the stacked log-weights of
the digit weights, the node powers and jet rows of the tail expansion and
the per-node mixing of its tables) is built once per discretization and
alphabet, so an assembly is one exp, one product and two batched matrix
products.  The Perron eigenvalue is strictly dominant, so it is the largest
real eigenvalue from LAPACK's eigenvalues-only call, and one inverse of the
bordered matrix [lambda I - A, 1; 1^T, 0] gives its right and left
eigenvectors as its last column and row; the solve fails with
ConvergenceError unless A is finite, lambda > 0 and the right eigenvector
is positive at every node.  Pressure derivatives are exact derivatives of
the discretized eigenvalue (left/right eigenvector contraction of the
differentiated matrix), which is precisely the node-weighted Gibbs average
of log a_1 resp. -log|T'|; the second and third derivatives take the
eigenvector derivatives from the same inverse, so a solve factorizes once.
The inverse gets one step of iterative refinement.  All linear algebra is
numpy's own LAPACK: the eigenvalues and the inverse come from the gufuncs
behind ``np.linalg.eigvals`` and ``np.linalg.inv``, called directly with
the wrappers' own arguments, so the numbers are the wrappers' and only
their checks and conversions are skipped.  Eigendata handed out
(eigenfunction values, the Gibbs eigenfunction) are those of L: h = w f.

``pressure`` and the caching ``PressureProvider`` are the two ways to ask
for a pressure; the gradient, Hessian, eigendata and tail bound are read
off the one ``PressureResult`` either returns, the last two computed on
first read.  The third derivatives are computed on request from the
arrays of a provider's latest solve, each by the solver that reads it:
P_ttt (``PressureProvider.d3P_dt3``) and P_ttq, P_tqq, P_qqq
(``PressureProvider.mixed_thirds``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .zeta import hurwitz_zeta

if TYPE_CHECKING:
    from .cf import PartialQuotients

DOMAIN_MARGIN = 0.01  # reject 2t - q below 1 + this; the pressure diverges at 1
JET_ORDER = 6         # Taylor orders of the eigenfunction kept in the tail
BINOM_TERMS = 20      # binomial expansion length; terms shrink like ((x+psi)/(M+1))^j
PSI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi: the weight is (x + phi)^(-2t) ~ (1 + PSI x)^(-2t)
BURN_IN = 64          # Gibbs-chain steps sample_digits discards before recording
CACHED_GRIDS = 8      # Discretization.chebyshev keeps the grids of the last 8 orders used
CACHED_ALPHABETS = 8  # a grid keeps the DigitTables of the last 8 alphabets built
# (t-order, q-order) of the derivatives of A stacked by one assembly:
# A, A_t, A_q, A_tt, A_tq, A_qq, A_ttt
DERIVATIVES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0))
# A_ttq, A_tqq, A_qqq: contracted with a solve's eigenvectors on request
MIXED_THIRDS = ((2, 1), (1, 2), (0, 3))
MAX_T_ORDER = 3


class DomainError(ValueError):
    """Parameters outside the convergence region of the operator."""


class ConvergenceError(RuntimeError):
    """No result could be computed: the largest real eigenvalue of the
    collocation matrix is not positive or its eigenvector is not positive at
    every node (no Perron pair), or a spectrum solver's Newton iteration did
    not converge."""


def _integer(value, what: str) -> int:
    """``value`` as an int: a float, even an integral one, is refused rather than cut."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Alphabet:
    """Digit set of the iterated system: all of N up to a cutoff, or a finite set."""

    kind: str                       # "full" | "restricted"
    cutoff: int | None = None
    digits: tuple[int, ...] | None = None

    @classmethod
    def full(cls, cutoff: int = 64) -> "Alphabet":
        cutoff = _integer(cutoff, "full-alphabet cutoff")
        if cutoff < 8:
            raise ValueError("full-alphabet cutoff must be >= 8")
        return cls(kind="full", cutoff=cutoff)

    @classmethod
    def restricted(cls, digits) -> "Alphabet":
        ds = tuple(sorted({_integer(d, "restricted-alphabet digit") for d in digits}))
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
    (1, l_t, l_q, l_t^2, l_t l_q, l_q^2, l_t^3), one per entry of
    DERIVATIVES, of the golden-weighted digit weight
    i^q ((1 + psi x_j) / (i + x_j + psi))^(2t), with
    l_t = a_j - 2 log(i + x_j + psi), a_j = 2 log(1 + psi x_j) and
    l_q = log i; ``l_t`` and ``l_q`` are also kept on their own as
    contiguous (K, M) arrays for the exponent of the weights.  For the
    digit tail, ``golden_log[j]`` is a_j;
    ``node_powers[j, m]`` is (x_m + psi)^j for the binomial expansion;
    ``tail_rows`` maps node values of f to the Taylor jet F of
    f(u / (1 - psi u)), so f(1/(i + x)) = F(1/(i + x + psi)); and
    ``tail_mix[j]`` turns the seven moment tables (S and its derivatives in
    DERIVATIVES) into those of e^(t a_j) S divided by e^(t a_j).
    ``mixed_log_weights`` (l_t^2 l_q, l_t l_q^2, l_q^3) and ``mixed_tail_mix``
    (the golden mix times ``_MOMENT_MIX``, so from the ten tail products)
    serve MIXED_THIRDS, flattened to (3, K M) and (3, 10 K).
    """

    tensor: np.ndarray
    log_weights: np.ndarray
    l_t: np.ndarray
    l_q: np.ndarray
    golden_log: np.ndarray
    node_powers: np.ndarray
    tail_rows: np.ndarray
    tail_mix: np.ndarray
    mixed_log_weights: np.ndarray
    mixed_tail_mix: np.ndarray


def _golden_shift() -> np.ndarray:
    """G[n, r] = C(n - 1, r - 1) psi^(n - r) (G[0, 0] = 1): the Taylor
    coefficients of f(u / (1 - psi u)) are G times those of f."""
    shift = np.zeros((JET_ORDER + 1, JET_ORDER + 1))
    shift[0, 0] = 1.0
    for n in range(1, JET_ORDER + 1):
        for r in range(1, n + 1):
            shift[n, r] = math.comb(n - 1, r - 1) * PSI ** (n - r)
    return shift


def _leibniz_terms(rows=DERIVATIVES):
    """(row, k, n, C(m, k), m - k) for every term of the Leibniz rule
    d^m/dt^m (g h) = sum_k C(m, k) g^(m-k) h^(k) on the stacked derivative
    d^m/dt^m d^n/dq^n of row ``row`` of ``rows``, where g depends on t
    alone."""
    for row, (m, n) in enumerate(rows):
        for k in range(m + 1):
            yield row, k, n, math.comb(m, k), m - k


def _golden_mix(a: np.ndarray, rows=DERIVATIVES, columns=DERIVATIVES) -> np.ndarray:
    """Per-node (len(rows), len(columns)) matrices taking the tables of S and
    its derivatives ``columns`` to the derivatives ``rows`` of e^(t a) S over
    e^(t a): d^m/dt^m d^n/dq^n (e^(t a) S) over e^(t a) is
    sum_k C(m, k) a^(m-k) S_(k, n)."""
    mix = np.zeros((len(a), len(rows), len(columns)))
    for row, k, n, binom, power in _leibniz_terms(rows):
        mix[:, row, columns.index((k, n))] += binom * a ** power
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
        lq = np.broadcast_to(np.log(d), lt.shape).copy()
        lt2, lq2 = lt * lt, lq * lq
        return DigitTables(
            tensor=_aligned(self.coefficients(1.0 / (d + self.nodes[:, None]))),
            log_weights=np.stack([np.ones_like(lt), lt, lq, lt2, lt * lq, lq2, lt2 * lt], axis=1),
            l_t=lt,
            l_q=lq,
            golden_log=a,
            node_powers=_node_powers(self.nodes + PSI),
            tail_rows=_golden_shift() @ self.jet_rows,
            tail_mix=_golden_mix(a),
            mixed_log_weights=np.stack([lt2 * lq, lt * lq2, lq2 * lq]).reshape(3, -1),
            mixed_tail_mix=np.einsum("jmc,cp->mpj", _golden_mix(
                a, MIXED_THIRDS, DERIVATIVES + MIXED_THIRDS), _MOMENT_MIX).reshape(
                    len(MIXED_THIRDS), -1))


@functools.lru_cache(maxsize=CACHED_GRIDS)
def _grid(order: int) -> Discretization:
    return Discretization._build(order)


@dataclass(frozen=True)
class PressureResult:
    """Pressure value with its exact gradient and Hessian, eigenfunction and
    tail diagnostics.

    ``eigenfunction_values`` are the node values, on the requested
    discretization, of the eigenfunction h of the unweighted operator
    (largest 1).  It and ``tail_error_bound`` are computed on first read
    from the eigenvector the solve keeps; the spectrum solvers read neither.
    """

    value: float
    dP_dt: float
    dP_dq: float
    d2P_dt2: float
    d2P_dtdq: float
    d2P_dq2: float
    _f: np.ndarray = field(repr=False)        # golden-weighted eigenvector, entries sum 1
    _weight: np.ndarray = field(repr=False)   # node weights e^(t a_j)
    # (lambda, tail_rows, |S| at Taylor order JET_ORDER, binom_trunc) with a digit tail
    _tail: tuple | None = field(repr=False)

    @functools.cached_property
    def eigenfunction_values(self) -> np.ndarray:
        h = self._f / self._weight
        return h / h.max()

    @functools.cached_property
    def tail_error_bound(self) -> float:
        """Size of the neglected terms of the digit tail's Taylor and
        binomial expansions, relative to lambda (0 without a tail)."""
        if self._tail is None:
            return 0.0
        lam, tail_rows, top, binom_trunc = self._tail
        # the bound is linear in f: take f at largest node value 1, not sum 1
        jets = tail_rows @ (self._f / self._f.max())
        weight = self._weight
        return float((abs(jets[-1]) * (weight * top).max()
                      + abs(jets[0]) * binom_trunc * weight.max()) / lam)


def check_domain(t: float, q: float, alphabet: Alphabet) -> None:
    if alphabet.kind == "full" and 2.0 * t - q - 1.0 < DOMAIN_MARGIN:
        raise DomainError(
            f"(t, q) = ({t}, {q}) has 2t - q = "
            f"{2 * t - q:.6f} <= {1 + DOMAIN_MARGIN}; "
            "the full-alphabet pressure diverges as 2t - q -> 1"
        )


def _binomial_polys(count: int) -> np.ndarray:
    """C(-rho, j) = (-1)^j (rho)_j / j! for j < count and its first three
    t-derivatives (rho = 2t + r, drho/dt = 2) as polynomials in rho.

    Entry [k, d count + j] is the coefficient of rho^k in d^d C(-rho, j) / dt^d,
    so a row of powers of rho times the table gives all four at once.  They
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
    tables = [poly]
    for _ in range(MAX_T_ORDER):
        tables.append(tables[-1] @ d_dt)
    return np.stack(tables).transpose(2, 0, 1).reshape(count, -1)


_BINOM_POLYS = _binomial_polys(BINOM_TERMS + 1)
_POWERS = np.arange(BINOM_TERMS + 1, dtype=float)
_ORDERS = np.arange(JET_ORDER + 1, dtype=float)
_S_OFFSETS = np.arange(JET_ORDER + BINOM_TERMS + 1, dtype=float)


def _moment_mix():
    """(mix, binom_index, zeta_index) for the ten tables of C Z in
    DERIVATIVES + MIXED_THIRDS, where C = C(-rho, j) at rho = 2t + r and
    Z = zeta(s, M + 1) at s = rho + j - q.

    With ds/dt = 2 and ds/dq = -1, d^m/dt^m d^n/dq^n (C Z) is
    sum_k C(m, k) C^(k) 2^(m-k) (-1)^n Z^(m-k+n): a combination, row by row
    of ``mix``, of the ten products C^(k) Z^(p) that occur, t-derivatives
    of C times s-derivatives of Z; MIXED_THIRDS adds no product.  Product c
    at Taylor order r and term j is
    binom.flat[binom_index[c, r, j]] * zeta.flat[zeta_index[c, r, j]]
    for binom[r, (k, j)] of ``_BINOM_POLYS`` and the zeta row zeta[p, r + j].
    """
    pairs, terms = [], []
    for row, k, n, binom, power in _leibniz_terms(DERIVATIVES + MIXED_THIRDS):
        if (k, power + n) not in pairs:
            pairs.append((k, power + n))
        terms.append((row, pairs.index((k, power + n)), binom * 2.0 ** power * (-1.0) ** n))
    mix = np.zeros((len(DERIVATIVES) + len(MIXED_THIRDS), len(pairs)))
    for row, col, coef in terms:
        mix[row, col] += coef
    k, p = np.array(pairs).T[:, :, None, None]
    r, j = np.arange(JET_ORDER + 1)[:, None], np.arange(BINOM_TERMS + 1)
    binom_index = r * _BINOM_POLYS.shape[1] + k * (BINOM_TERMS + 1) + j
    zeta_index = p * len(_S_OFFSETS) + r + j
    return mix, binom_index, zeta_index


_MOMENT_MIX, _BINOM_INDEX, _ZETA_INDEX = _moment_mix()
_TAIL_MIX = _MOMENT_MIX[:len(DERIVATIVES)]


def _mixed_sums():
    """(indices, sums): the (t, q) indices (0 for t, 1 for q) of each of
    MIXED_THIRDS, and the rows that add up its 2n + 1 terms out of
    ``_mixed_third_derivatives``' products left_u B_b right_c at 9b + 3u + c."""
    indices = [(0,) * m + (1,) * n for m, n in MIXED_THIRDS]
    sums = np.zeros((len(indices), 45))
    for row, (i, j, k) in enumerate(indices):
        for a, b, c in ((k, i, j), (i, j, k), (j, i, k)):            # the splits (a; bc)
            sums[row, 9 * (2 + b + c) + 3 * (1 + a)] += 1.0          # nu_a A_bc f
            sums[row, 9 * (2 + b + c) + 1 + a] += 1.0                # nu A_bc f_a
        for a, b, c in itertools.permutations((i, j, k)):
            sums[row, 9 * b + 3 * (1 + a) + 1 + c] += 1.0            # nu_a (A_b - lambda_b) f_c
    return indices, sums


_MIXED_INDICES, _MIXED_SUMS = _mixed_sums()


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` whose data starts on a 64-byte boundary.  With the
    interpolation tensor so aligned a solve takes about 5% less time than
    at the 16- or 48-byte offsets the heap gives it, which move with every
    allocation made before it."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _node_powers(x: np.ndarray) -> np.ndarray:
    """x_k^j for the binomial terms j <= BINOM_TERMS, as [j, k]."""
    return np.asarray(x, dtype=float) ** _POWERS[:, None]


def _tail_moments(t: float, q: float, node_powers: np.ndarray, cutoff: int):
    """Closed-form digit-tail moments above the cutoff and their (t, q)-derivatives.

    ``node_powers`` is ``_node_powers(x)`` of the points x_k.  Returns
    (moments, binom_trunc, products).  moments[p, r, k] for r <= JET_ORDER is

        sum_{i>M} f_p(i, x_k) i^q (i + x_k)^(-(2t+r)),

    f_p = 1, -2 log(i+x), log i, 4 log^2(i+x), -2 log i log(i+x), log^2 i,
    -8 log^3(i+x) for p = 0..6: the moment and its derivatives in
    DERIVATIVES.  Expanding
    (i+x)^(-rho) = sum_j C(-rho, j) x^j i^(-rho-j) in x/i gives

        sum_{i>M} i^q (i+x)^(-rho) = sum_j C(-rho, j) x^j zeta(rho + j - q, M + 1),

    so every zeta value sits at the one point a = M + 1 and one Hurwitz zeta
    row, with three s-derivatives, serves all orders r and nodes x.  With
    rho = 2t + r the coefficients depend on t alone and s = rho + j - q has
    ds/dt = 2, ds/dq = -1, so the derivative tables follow by the chain rule:
    the seven coefficient tables are one constant mixing matrix (``_moment_mix``)
    times the products of C and its t-derivatives with Z and its
    s-derivatives.  ``binom_trunc`` is the
    size of the last binomial term at r = 0, a truncation proxy.  The
    assembly passes the shifted nodes x + psi <= 1 + psi, so the ratio x/i
    is at most 0.025 and BINOM_TERMS = 20 terms reach 1e-32.
    """
    s_grid = 2.0 * t - q + _S_OFFSETS
    zeta = hurwitz_zeta(s_grid, cutoff + 1.0, derivative=MAX_T_ORDER)
    binom = (2.0 * t + _ORDERS)[:, None] ** _POWERS @ _BINOM_POLYS  # [r, (k, j)]
    products = binom.take(_BINOM_INDEX) * zeta.take(_ZETA_INDEX)     # C^(k) Z^(p) at [c, r, j]
    coefs = (_TAIL_MIX @ products.reshape(len(_TAIL_MIX[0]), -1)).reshape(
        len(DERIVATIVES) * (JET_ORDER + 1), -1)
    moments = (coefs @ node_powers).reshape(len(DERIVATIVES), JET_ORDER + 1, -1)
    binom_trunc = abs(coefs[0, -1].item()) * node_powers[-1].max().item()
    return moments, binom_trunc, products


def _assemble(t: float, q: float, alphabet: Alphabet, disc: Discretization):
    """The golden-weighted A and its derivatives in DERIVATIVES stacked as
    (7, K, K), the tail moments (or None), the node weights
    e^(t a_j) = w(0) / w(x_j) and the digit weights W[j, i]."""
    tables = disc.digit_tables(alphabet)
    weight = np.exp(t * tables.golden_log)
    W = np.exp(q * tables.l_q + t * tables.l_t)                                # (K, M)
    # mats[j, p, m] = sum_i log_weights[j, p, i] W[j, i] C[j, i, m], batched over j
    mats = np.matmul(tables.log_weights * W[:, None], tables.tensor)
    moments = None
    if alphabet.has_tail:
        moments = _tail_moments(t, q, tables.node_powers, alphabet.cutoff)
        tail = tables.tail_mix @ moments[0].transpose(2, 0, 1)                # (K, 7, R)
        mats += (weight[:, None, None] * tail) @ tables.tail_rows
    return mats.transpose(1, 0, 2), moments, weight, W


class _SolveArrays(NamedTuple):
    """What a solve leaves for its third derivatives (see ``_solve``)."""

    tables: DigitTables
    W: np.ndarray               # digit weights
    weight: np.ndarray          # node weights
    products: np.ndarray | None  # tail products of _tail_moments
    mats: np.ndarray            # A and its DERIVATIVES
    mats_f: np.ndarray          # A_t f, A_q f, A_tt f
    f: np.ndarray
    nu: np.ndarray              # with nu f = 1
    nu_mats: np.ndarray         # nu A and nu times its DERIVATIVES
    df: np.ndarray              # columns f_t, f_q
    solve: np.ndarray           # the refined bordered inverse less its border
    lams: tuple                 # lambda, lambda_t, lambda_q, lambda_tt, nu A_ttt f
    lam_grad: np.ndarray        # lambda_t, lambda_q
    grad: tuple                 # P_t, P_q
    hess: tuple                 # ((P_tt, P_tq), (P_tq, P_qq))


def _third_t_derivative(s: _SolveArrays) -> float:
    """P_ttt of one solve: lambda_ttt = nu A_ttt f + 3 nu A_tt f_t + 3 nu A_t f_tt,
    where f_tt solves (lambda - A) f_tt = 2 (A_t - lambda_t) f_t +
    (A_tt - lambda_tt) f with nu f_tt = 0, by the bordered inverse as f_t
    is (``pressure``); P = log lambda, so
    P_ttt = lambda_ttt/lambda - 3 lambda_tt lambda_t/lambda^2 + 2 (lambda_t/lambda)^3."""
    lam, lam_t, _, d2_lam, lam_ttt = s.lams
    f, f_t, nu_mats = s.f, s.df[:, 0], s.nu_mats
    f_tt = s.solve @ (2.0 * (s.mats[1] @ f_t - lam_t * f_t) + (s.mats_f[2] - d2_lam * f))
    f_tt -= f * (s.nu @ f_tt)
    d3_lam = lam_ttt + 3.0 * (nu_mats[3] @ f_t).item() + 3.0 * (nu_mats[1] @ f_tt).item()
    P_t = s.grad[0]
    return d3_lam / lam - 3.0 * (d2_lam / lam) * P_t + 2.0 * P_t ** 3


def _mixed_third_derivatives(s: _SolveArrays) -> tuple:
    """(P_ttq, P_tqq, P_qqq) of one solve by Wigner's 2n + 1 rule: the
    first-order right and left eigenvector derivatives fix the eigenvalue
    through third order.  With nu f = 1, nu f_a = 0 and nu_a f = 0,

        lambda_ijk = nu A_ijk f + sum over the three splits (a; bc) of
                     (nu_a A_bc f + nu A_bc f_a)
                   + sum over the six orderings (a, b, c) of (i, j, k) of
                     nu_a (A_b - lambda_b) f_c,

    where nu_a solves nu_a (lambda - A) = nu (A_a - lambda_a) with the
    solve's bordered inverse; then
    P_ijk = lambda_ijk / lambda - (P_ij P_k + P_ik P_j + P_jk P_i) - P_i P_j P_k.
    A_ttq, A_tqq, A_qqq enter only as nu A f: digit weights W and C f over
    nodes and digits, and the tail ``products`` of ``_tail_moments`` at the
    jets of f.
    """
    tables, f, nu, nu_mats, df, lam_grad, grad, hess = (
        s.tables, s.f, s.nu, s.nu_mats, s.df, s.lam_grad, s.grad, s.hess)
    n = len(f)
    third = tables.mixed_log_weights @ ((nu[:, None] * s.W).ravel()
                                        * (tables.tensor.reshape(-1, n) @ f))
    if s.products is not None:
        Z = (tables.tail_rows @ f) @ s.products @ tables.node_powers      # (10, K)
        third += tables.mixed_tail_mix @ (Z * (nu * s.weight)).ravel()
    right = np.concatenate((f[:, None], df), axis=1)                  # f, f_t, f_q
    left = np.empty((3, n))                                           # nu, nu_t, nu_q
    left[0] = nu
    left[1:] = (nu_mats[1:3] - np.multiply.outer(lam_grad, nu)) @ s.solve
    left[1:] -= np.multiply.outer(left[1:] @ f, nu)                   # nu_a f = 0
    # left_u B_b right_c, B_b = A_t - lambda_t, A_q - lambda_q, A_tt, A_tq, A_qq
    applied = s.mats[1:6] @ right
    applied[:2] -= np.multiply.outer(lam_grad, right)
    lam_3 = (third + _MIXED_SUMS @ (left @ applied).ravel()).tolist()
    return tuple([lam_3[m] / s.lams[0] - hess[i][j] * grad[k] - hess[i][k] * grad[j]
                  - hess[j][k] * grad[i] - grad[i] * grad[j] * grad[k]
                  for m, (i, j, k) in enumerate(_MIXED_INDICES)])


@functools.lru_cache(maxsize=CACHED_GRIDS)
def _border(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(template, identity) of the bordered matrix of order n + 1: ones with
    a zero corner, and the identity, both read-only."""
    template = np.ones((n + 1, n + 1))
    template[n, n] = 0.0
    identity = np.eye(n + 1)
    template.flags.writeable = identity.flags.writeable = False
    return template, identity


def _perron_pair(A: np.ndarray, t: float, q: float, disc: Discretization):
    """(f, nu, inverse): the right and left eigenvectors of the Perron
    eigenvalue of A, each with entries summing to 1, and the inverse of the
    bordered matrix they come from.

    The Perron eigenvalue lambda is the largest real eigenvalue of A, from
    LAPACK's eigenvalues-only call.  The bordered matrix

        B = [lambda I - A, 1; 1^T, 0]

    is nonsingular when 1^T f and nu 1 are nonzero, which a positive Perron
    pair guarantees, and one inverse gives both eigenvectors: the last
    column of B^-1 is (f; 0) with 1^T f = 1, its last row (nu; 0) with
    nu 1 = 1.  The inverse X takes one step of iterative refinement,
    X + X (I - B X), which refines every column and row at once: without
    it, the gradient and Hessian next to the divergence line at large t are
    up to 1e-11 off a 40-digit eigen-solve of the same matrix, with it
    2e-12.  ``pressure`` solves with the same inverse for the eigenvector
    derivatives.  A non-finite A, a failed eigenvalue iteration, a singular
    B, no positive real eigenvalue or a right eigenvector that is not
    positive raise ``ConvergenceError``.

    Both LAPACK calls are the gufuncs behind ``np.linalg.eigvals`` and
    ``np.linalg.inv``, called as those wrappers call them (so the numbers
    are theirs) without the wrappers' checks and conversions: a LAPACK
    failure sets the invalid flag, which the ``errstate`` turns into an
    exception.
    """
    def failure(what: str) -> ConvergenceError:
        return ConvergenceError(f"{what} at (t, q) = ({t}, {q}) (order {disc.order})")

    if not np.isfinite(A).all():
        raise failure("non-finite collocation matrix")
    n = len(A)
    template, identity = _border(n)
    with np.errstate(invalid="raise"):
        try:
            eig = _umath_linalg.eigvals(A, signature="d->D")
        except FloatingPointError:
            raise failure("eigenvalues did not converge") from None
        lam = eig.real.max(where=eig.imag == 0.0, initial=-math.inf)
        if not lam > 0.0:
            raise failure("no positive real eigenvalue")
        bordered = template.copy()
        bordered[:n, :n] = -A
        bordered.flat[:n * (n + 2):n + 2] += lam
        try:
            inverse = _umath_linalg.inv(bordered, signature="d->d")
        except FloatingPointError:
            raise failure("singular bordered matrix") from None
    inverse += inverse @ (identity - bordered @ inverse)
    f = inverse[:n, n]
    if not f.min() > 0.0:
        raise failure("the eigenvector of the largest real eigenvalue is not positive")
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
    16.  Checks the domain, assembles the golden-weighted A with its
    derivatives in DERIVATIVES once and takes the Perron pair (f, nu) from
    ``_perron_pair``.  The derivatives are the exact ones of the discretized
    eigenvalue: with nu f = 1,

        lambda_i   = nu A_i f,
        lambda_ij  = nu A_ij f + nu A_i f_j + nu A_j f_i,

    where the eigenvector derivative f_i solves (lambda - A) f_i =
    (A_i - lambda_i) f with nu f_i = 0.  The right-hand side is annihilated
    by nu, so the bordered system [lambda - A, 1; 1^T, 0] [f_i; 0] =
    [rhs; 0] holds, and the Perron pair's refined inverse of it solves them
    all; the Perron direction is then projected out.  The eigenfunction and
    the tail bound are computed from f on first read; the third derivatives
    come from a ``PressureProvider``.
    """
    return _solve(t, q, alphabet or Alphabet.full(), disc or Discretization.chebyshev())[0]


def _solve(t: float, q: float, alphabet: Alphabet, disc: Discretization):
    """(``pressure``'s result, the solve's ``_SolveArrays``)."""
    check_domain(t, q, alphabet)
    tables = disc.digit_tables(alphabet)
    mats, moments, weight, W = _assemble(t, q, alphabet, disc)
    f, nu, inverse = _perron_pair(mats[0], t, q, disc)
    # nu (A, A_t, A_q, A_tt, A_tq, A_qq, A_ttt) f with nu f = 1; the
    # two-sided quotient is second-order accurate in the eigenvectors
    nu_f = nu / (nu @ f)
    nu_mats = nu_f @ mats
    lams = nu_mats @ f
    lam, lam_t, lam_q, lam_tt, lam_tq, lam_qq, lam_ttt = lams.tolist()
    mats_f = mats[1:4] @ f                         # A_t f, A_q f, A_tt f
    solve = inverse[:-1, :-1]                      # the border row of every rhs is 0
    df = solve @ (mats_f[:2].T - f[:, None] * lams[1:3])
    df -= f[:, None] * (nu_f @ df)                 # columns f_t, f_q with nu f_i = 0
    (cross_tt, cross_tq), (cross_qt, cross_qq) = (nu_mats[1:3] @ df).tolist()
    d2_lam = lam_tt + 2.0 * cross_tt               # lambda_tt
    P_t, P_q = lam_t / lam, lam_q / lam
    P_tt = d2_lam / lam - P_t * P_t
    P_tq = (lam_tq + cross_tq + cross_qt) / lam - P_t * P_q
    P_qq = (lam_qq + 2.0 * cross_qq) / lam - P_q * P_q
    tail = products = None
    if moments is not None:
        S, binom_trunc, products = moments
        tail = (lam, tables.tail_rows, np.abs(S[0, JET_ORDER]), binom_trunc)
    return PressureResult(
        value=math.log(lam),
        dP_dt=P_t,
        dP_dq=P_q,
        d2P_dt2=P_tt,
        d2P_dtdq=P_tq,
        d2P_dq2=P_qq,
        _f=f.copy(),                               # f is a view of the inverse
        _weight=weight,
        _tail=tail,
    ), _SolveArrays(tables, W, weight, products, mats, mats_f, f, nu_f, nu_mats, df, solve,
                    (lam, lam_t, lam_q, d2_lam, lam_ttt), lams[1:3], (P_t, P_q),
                    ((P_tt, P_tq), (P_tq, P_qq)))


class PressureProvider:
    """Caches one PressureResult per parameter point of one (alphabet, grid).

    Results are keyed by the exact float pair (t, q); warm-started solvers
    re-query identical points constantly.  ``d3P_dt3`` and ``mixed_thirds``
    compute third derivatives of the latest solve on request and keep them,
    so a solver that repeats its queries repeats its steps.  Instances are
    not thread-safe for writes; distinct instances share only the grid of
    their order and its digit tables.
    """

    def __init__(self, alphabet: Alphabet | None = None,
                 disc: Discretization | None = None):
        self.alphabet = alphabet or Alphabet.full()
        self.disc = disc or Discretization.chebyshev()
        self._cache: dict[tuple[float, float], PressureResult] = {}
        self._latest = (None, None)          # ((t, q), _SolveArrays) of the latest solve
        self._third_t: dict[tuple[float, float], float] = {}
        self._mixed: dict[tuple[float, float], tuple[float, float, float]] = {}

    def _lookup(self, t: float, q: float) -> PressureResult:
        res = self._cache.get((t, q))
        if res is None:
            self._latest = (None, None)     # free the last solve's arrays first
            res, arrays = _solve(t, q, self.alphabet, self.disc)
            self._cache[(t, q)] = res
            self._latest = ((t, q), arrays)
        return res

    @property
    def solves(self) -> int:
        """Eigen-solves made so far: one per cached parameter point."""
        return len(self._cache)

    def result(self, t: float, q: float) -> PressureResult:
        return self._lookup(t, q)

    def _from_latest(self, kept: dict, compute, t: float, q: float):
        """``compute`` of the latest solve's arrays if (t, q) is that solve's
        point, kept in ``kept``; what ``kept`` holds at (t, q) otherwise, or
        None.  No solve is made here, and only the latest solve's arrays are
        kept: arrays kept with every cached result slowed the later solves
        of a curve."""
        value = kept.get((t, q))
        if value is None:
            where, arrays = self._latest
            if where != (t, q):
                return None
            value = kept[(t, q)] = compute(arrays)
        return value

    def d3P_dt3(self, t: float, q: float) -> float | None:
        """P_ttt at (t, q) (``_third_t_derivative``): computed on the first
        request while (t, q) is the point this provider solved last, and
        kept; None at a point solved earlier and not asked about then."""
        return self._from_latest(self._third_t, _third_t_derivative, t, q)

    def mixed_thirds(self, t: float, q: float) -> tuple[float, float, float] | None:
        """(P_ttq, P_tqq, P_qqq) at (t, q) (``_mixed_third_derivatives``),
        on request as ``d3P_dt3``."""
        return self._from_latest(self._mixed, _mixed_third_derivatives, t, q)

    # pressure, dP_dq and dP_dt stay only for spectra_bench's checks and tracer
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
    from .cf import PartialQuotients  # only sampling needs cf (and fractions)
    return PartialQuotients(tuple(int(a) for a in out))


def cylinder_sum_estimate(t: float, q: float, digit_cutoff: int = 64) -> float:
    """Pressure estimate log(S_12 / S_11) straight from the cylinder sums.

    S_n sums the weights of the digit blocks |omega| = n with digits up to
    the cutoff (at x = 0).  Iterates g -> sum_{i<=cutoff} i^q (i+x)^(-2t)
    g(1/(i+x)) twelve times on a uniform 4001-point grid with
    piecewise-linear interpolation, an implementation of those sums that
    shares nothing with the spectral collocation route.  The successive
    ratio avoids the O(log C / n) offset that (1/n) log S_n carries.
    """
    xs = np.linspace(0.0, 1.0, 4001)
    digits = np.arange(1, digit_cutoff + 1, dtype=float)
    y = 1.0 / (digits[:, None] + xs[None, :])               # (M, G)
    w = digits[:, None] ** q * (digits[:, None] + xs[None, :]) ** (-2.0 * t)
    g = np.ones_like(xs)
    log_scale = 0.0
    log_sums = []
    for _ in range(12):
        new = np.zeros_like(xs)
        for i in range(digit_cutoff):
            new += w[i] * np.interp(y[i], xs, g)
        peak = float(new.max())
        log_scale += math.log(peak)
        g = new / peak
        log_sums.append(log_scale + math.log(float(g[0])))
    return log_sums[-1] - log_sums[-2]
