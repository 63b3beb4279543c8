"""Distributed computation of the nearest-plane point, one coordinate per node.

Centralized model: node m observes x_m and sends its rounded coefficient
plus a bounded side-information integer s(m); a fusion center recovers the
exact nearest-plane coefficient vector. The side information per node is at
most log2(q_m) bits, where q_m is the least common denominator of the ratios
r_ml / r_mm along row m of the triangular generator, so the scheme only
exists for generators with rational row ratios.

Interactive model: nodes broadcast quantized coefficients in sequence
(m = n..1) and every node ends up holding the identical coefficient vector;
the rate is measured empirically from plug-in conditional entropies.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .babai import nearest_plane
from .core import as_basis, checked_int64, qr_upper, round_half_up


class IrrationalRatioError(ValueError):
    """A row ratio r_ml / r_mm has no small-denominator rational fit.

    The fusion decode rule is exact integer arithmetic on the numerators
    and denominators; a wrong q_m silently breaks it, so we refuse rather
    than approximate.
    """


@dataclass(frozen=True)
class RationalProfile:
    """Coprime fractions p_ml / q_ml = r_ml / r_mm and row lcm denominators.

    q[m] = lcm of the q_ml over l > m (1 for the last row), and
    q_hat[(m, l)] = q[m] // q_ml, the factor that rescales each fraction to
    the common denominator q[m].
    """

    n: int
    p: Dict[Tuple[int, int], int]
    den: Dict[Tuple[int, int], int]
    q: Tuple[int, ...]
    q_hat: Dict[Tuple[int, int], int]

    def __post_init__(self):
        for (m, l), num in self.p.items():
            d = self.den[(m, l)]
            if d <= 0 or math.gcd(num, d) != 1:
                raise ValueError(f"fraction for ({m},{l}) not in lowest terms")
            if self.q[m] % d != 0:
                raise ValueError(f"denominator {d} does not divide q[{m}]")
        if self.q[self.n - 1] != 1:
            raise ValueError("last row has no ratios; q must be 1 there")

    @property
    def rate_bound_bits(self) -> float:
        return float(sum(math.log2(qm) for qm in self.q))

    def ratio(self, m: int, l: int) -> Fraction:
        return Fraction(self.p[(m, l)], self.den[(m, l)])


def rationalize(upper, max_den: int = 10**6, tol: float = 1e-9) -> RationalProfile:
    """Fit every above-diagonal ratio r_ml / r_mm by continued fractions.

    Raises IrrationalRatioError when the best fraction with denominator at
    most max_den misses the ratio by more than tol.
    """
    R = np.asarray(upper, dtype=float)
    n = R.shape[0]
    p: Dict[Tuple[int, int], int] = {}
    den: Dict[Tuple[int, int], int] = {}
    q: List[int] = []
    for m in range(n):
        row_dens = []
        for l in range(m + 1, n):
            ratio = R[m, l] / R[m, m]
            frac = Fraction(ratio).limit_denominator(max_den)
            if abs(float(frac) - ratio) > tol:
                raise IrrationalRatioError(
                    f"ratio r[{m},{l}]/r[{m},{m}] = {ratio!r} has no rational "
                    f"fit with denominator <= {max_den}"
                )
            p[(m, l)] = frac.numerator
            den[(m, l)] = frac.denominator
            row_dens.append(frac.denominator)
        q.append(math.lcm(*row_dens) if row_dens else 1)
    q_hat = {(m, l): q[m] // d for (m, l), d in den.items()}
    return RationalProfile(n=n, p=p, den=den, q=tuple(q), q_hat=q_hat)


class NodeMessage(NamedTuple):
    node: int
    b_tilde: int
    s: int


def node_encode(m: int, x_m, upper, profile: RationalProfile) -> NodeMessage:
    """Message of node m: rounded coefficient plus side information.

    s is the largest integer in [0, q_m) with [t - s/q_m] = [t] where
    t = x_m / r_mm. Closed form: rounding absorbs the shift while
    t - s/q >= [t] - 1/2, i.e. s <= q*(frac + 1/2) with frac = t - [t],
    so s = floor(q*(frac + 1/2)); the boundary lands in the absorbed case
    because rounding is half-up. The last node always sends s = 0.
    A scalar x_m gives int fields; an array of samples gives int64 arrays,
    and there a non-finite sample raises ValueError and a coefficient
    outside int64 OverflowError.
    """
    R = np.asarray(upper, dtype=float)
    t = np.asarray(x_m, dtype=float) / R[m, m]
    b_tilde = round_half_up(t)
    b_int = checked_int64(b_tilde, t, "node_encode") if t.ndim else int(b_tilde)
    qm = profile.q[m]
    s = np.minimum(np.maximum(np.floor(qm * (t - b_tilde + 0.5)), 0), qm - 1)
    return NodeMessage(node=m, b_tilde=b_int, s=s.astype(np.int64) if t.ndim else int(s))


def fusion_decode(
    messages: Sequence[NodeMessage], upper, profile: RationalProfile
) -> np.ndarray:
    """Recover the exact nearest-plane coefficients from the node messages.

    Working m = n..1, the running correction sum_{l>m} b_l r_ml / r_mm equals
    N_m / q_m with N_m = sum b_l p_ml q_hat_ml computed in exact integers, so

        b_m = b_tilde_m - floor(N_m / q_m) - (1 if N_m mod q_m > s(m) else 0).

    The comparison against s(m) decides whether the fractional part of the
    correction pushes x_m / r_mm across its rounding boundary. Messages carry
    one sample (int fields, result (n,)) or k samples (array fields, result
    (k, n)); the sums run in Python integers, and a coefficient outside int64
    raises OverflowError instead of wrapping.
    """
    n = profile.n
    by_node = {}
    for msg in messages:
        if msg.node in by_node:
            raise ValueError(f"duplicate message for node {msg.node}")
        by_node[msg.node] = msg
    missing = [m for m in range(n) if m not in by_node]
    if missing:
        raise ValueError(f"missing message for node(s) {missing}")

    b = [0] * n
    b[n - 1] = _exact(by_node[n - 1].b_tilde)
    for m in range(n - 2, -1, -1):
        qm = profile.q[m]
        N = sum(b[l] * profile.p[(m, l)] * profile.q_hat[(m, l)] for l in range(m + 1, n))
        s = N % qm
        b[m] = _exact(by_node[m].b_tilde) - (N // qm) - (s > _exact(by_node[m].s))
    return np.asarray(b, dtype=np.int64).T


def _exact(v):
    """Python int, or an object array of Python ints, so integer sums cannot wrap."""
    return int(v) if isinstance(v, (int, np.integer)) else np.asarray(v).astype(object)


def centralized_rate_bound(profile: RationalProfile) -> float:
    """Side-information bits of the centralized protocol: sum of log2 q_m."""
    return profile.rate_bound_bits


# --- source models and rate accounting ---------------------------------------


@dataclass(frozen=True)
class SourceModel:
    """Scalar source with known differential entropy and a sampler."""

    name: str
    params: Tuple[float, ...]

    @property
    def differential_entropy_bits(self) -> float:
        if self.name == "uniform":
            lo, hi = self.params
            return math.log2(hi - lo)
        if self.name == "gauss":
            _, sigma = self.params
            return 0.5 * math.log2(2.0 * math.pi * math.e * sigma * sigma)
        raise ValueError(f"unknown source {self.name!r}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.name == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size)
        if self.name == "gauss":
            mean, sigma = self.params
            return rng.normal(mean, sigma, size)
        raise ValueError(f"unknown source {self.name!r}")


def uniform_source(lo: float = 0.0, hi: float = 1.0) -> SourceModel:
    if not hi > lo:
        raise ValueError("need hi > lo")
    return SourceModel(name="uniform", params=(float(lo), float(hi)))


def gaussian_source(sigma: float = 1.0, mean: float = 0.0) -> SourceModel:
    if sigma <= 0:
        raise ValueError("need sigma > 0")
    return SourceModel(name="gauss", params=(float(mean), float(sigma)))


class ProtocolModel(Enum):
    CENTRALIZED = "centralized"
    INTERACTIVE = "interactive"


@dataclass(frozen=True)
class ProtocolTrace:
    messages: Tuple[NodeMessage, ...]
    decoded: np.ndarray
    bits_integer_part: float
    bits_side_info: float
    model: ProtocolModel
    scale: float


def _varint_bits(k: int) -> int:
    # zigzag then 7-bit groups with a continuation bit, as on the wire
    z = 2 * k if k >= 0 else -2 * k - 1
    groups = max(1, -(-z.bit_length() // 7))
    return 8 * groups


def run_centralized(
    basis, x, alpha: float = 1.0, max_den: int = 10**6
) -> ProtocolTrace:
    """One round of the centralized protocol on the lattice alpha * V.

    The input basis is brought to canonical upper triangular form first, so
    the coordinates of x are read in that rotated frame. Integer-part cost
    is the wire size of the rounded coefficients as signed varints; side
    information is budgeted at its log2(q_m) bound.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    V = as_basis(basis)
    _, R = qr_upper(V)
    R = alpha * R
    x = np.asarray(x, dtype=float)
    profile = rationalize(R, max_den=max_den)
    messages = tuple(node_encode(m, x[m], R, profile) for m in range(profile.n))
    decoded = fusion_decode(messages, R, profile)
    wire = float(sum(_varint_bits(msg.b_tilde) for msg in messages))
    return ProtocolTrace(
        messages=messages,
        decoded=decoded,
        bits_integer_part=wire,
        bits_side_info=profile.rate_bound_bits,
        model=ProtocolModel.CENTRALIZED,
        scale=float(alpha),
    )


class TotalRateReport(NamedTuple):
    bound_bits: float
    empirical_bits: Optional[float]
    side_info_bits: float


def centralized_total_rate(
    sources: Sequence[SourceModel],
    basis,
    alpha: float,
    profile: Optional[RationalProfile] = None,
    samples: int = 0,
    seed: Optional[int] = None,
) -> TotalRateReport:
    """Total-rate bound of the centralized protocol, optionally with an
    empirical check.

    bound = sum h_i - log2|det V| - n log2(alpha) + sum log2(q_i); the first
    three terms budget the rounded coefficients (the quantized sources lose
    log2 of their quantizer step alpha * r_mm), the last is the side
    information, which does not depend on alpha. The empirical figure
    replaces the coefficient budget with plug-in entropies of the simulated
    rounded coefficients; samples=0 skips it, and any other count below 100
    raises ValueError, as in interactive_simulate.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if samples:
        _check_entropy_samples(samples)
    V = as_basis(basis)
    n = V.shape[0]
    if len(sources) != n:
        raise ValueError("need one source per node")
    _, R = qr_upper(V)
    if profile is None:
        profile = rationalize(alpha * R)
    side = profile.rate_bound_bits
    h_sum = sum(src.differential_entropy_bits for src in sources)
    det = abs(float(np.linalg.det(V)))
    bound = h_sum - math.log2(det) - n * math.log2(alpha) + side

    empirical = None
    if samples:
        rng = np.random.default_rng(seed)
        Rs = alpha * R
        X = np.column_stack([src.sample(rng, samples) for src in sources])
        bits = 0.0
        for m in range(n):
            # node_encode's rounded coefficient, without the unused side information
            t = X[:, m] / Rs[m, m]
            b_m = checked_int64(round_half_up(t), t, "centralized_total_rate")
            bits += _plugin_entropy_bits(b_m[:, None])
        empirical = bits + side
    return TotalRateReport(bound_bits=float(bound), empirical_bits=empirical, side_info_bits=float(side))


def _check_entropy_samples(samples: int) -> None:
    if samples < 100:
        raise ValueError("refusing an entropy estimate from fewer than 100 samples")


def _plugin_entropy_bits(rows: np.ndarray) -> float:
    """Plug-in entropy of the empirical joint distribution of integer rows.

    Each row becomes one uint64 key, a mixed-radix number over the columns
    shifted by their minimum, first column most significant. Where the radix
    product would reach 2**64, the running key is first replaced by its
    dense rank, and so is a column whose own range does not fit beside it.
    The sorted keys order the rows lexicographically, as
    `np.unique(rows, axis=0)` does, so the counts, and with them the summed
    bits, come in the same order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return 0.0
    rows = rows.reshape(len(rows), -1)
    key = np.zeros(len(rows), dtype=np.uint64)
    radix = 1
    for col in rows.T:
        lo = col.min()
        span = int(col.max()) - int(lo) + 1
        # the difference wraps modulo 2**64 onto the exact offset
        digit = col.view(np.uint64) - np.uint64(lo.view(np.uint64))
        if radix * span >= 1 << 64:
            _, key = np.unique(key, return_inverse=True)
            key = key.astype(np.uint64)
            radix = int(key.max()) + 1
        if radix * span >= 1 << 64:
            _, digit = np.unique(digit, return_inverse=True)
            digit = digit.astype(np.uint64)
            span = int(digit.max()) + 1
        key = key * np.uint64(span) + digit
        radix *= span
    key.sort()
    edges = np.flatnonzero(key[1:] != key[:-1]) + 1
    counts = np.diff(edges, prepend=0, append=len(key))
    freq = counts / counts.sum()
    return float(-(freq * np.log2(freq)).sum())


def interactive_rate_approximation(
    sources: Sequence[SourceModel], basis, alpha: float
) -> float:
    """High-resolution approximation (n-1) * sum_i (h_i - log2(alpha r_ii))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    V = as_basis(basis)
    _, R = qr_upper(V)
    n = V.shape[0]
    total = sum(
        src.differential_entropy_bits - math.log2(alpha * R[i, i])
        for i, src in enumerate(sources)
    )
    return float((n - 1) * total)


def interactive_simulate(
    sources: Sequence[SourceModel],
    basis,
    alpha: float,
    samples: int,
    seed: Optional[int] = None,
) -> Tuple[ProtocolTrace, float]:
    """Simulate the broadcast protocol and estimate its empirical rate.

    Nodes announce, in order i = n..1, the rounded coefficient of their
    residual; each broadcast reaches every node, so after round 1 all nodes
    hold the identical coefficient vector, which equals a local
    nearest-plane run on the scaled generator; that run is what is simulated.
    Rate = (n-1) * sum_i H(U_i | U_{i+1..n}) with plug-in conditional
    entropies; the conditionals telescope, so the sum is evaluated as
    differences of joint entropies of the trailing coefficient blocks.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _check_entropy_samples(samples)
    V = as_basis(basis)
    n = V.shape[0]
    if len(sources) != n:
        raise ValueError("need one source per node")
    _, R = qr_upper(V)
    Rs = alpha * R

    rng = np.random.default_rng(seed)
    X = np.column_stack([src.sample(rng, samples) for src in sources])
    U = nearest_plane(Rs, X)

    # H(U_i | U_{i+1..n}) = H(U_i..U_n) - H(U_{i+1}..U_n), summed over i
    joint_bits = [_plugin_entropy_bits(U[:, i:]) for i in range(n)] + [0.0]
    cond = [joint_bits[i] - joint_bits[i + 1] for i in range(n)]
    empirical_rate = float((n - 1) * sum(cond))

    trace = ProtocolTrace(
        messages=(),
        decoded=U[-1].copy(),
        bits_integer_part=empirical_rate,
        bits_side_info=0.0,
        model=ProtocolModel.INTERACTIVE,
        scale=float(alpha),
    )
    return trace, empirical_rate


__all__ = [
    "IrrationalRatioError",
    "NodeMessage",
    "ProtocolModel",
    "ProtocolTrace",
    "RationalProfile",
    "SourceModel",
    "TotalRateReport",
    "centralized_rate_bound",
    "centralized_total_rate",
    "fusion_decode",
    "gaussian_source",
    "interactive_rate_approximation",
    "interactive_simulate",
    "node_encode",
    "rationalize",
    "run_centralized",
    "uniform_source",
]
