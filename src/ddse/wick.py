"""Pair-partition combinatorics and the moment/cumulant series they generate.

Moments of a centered Gaussian factorize into sums over perfect pairings of
the indices (Isserlis' theorem), so the m-th moment of the noise integral
with variance v is (m-1)!! * v^(m/2) for even m and 0 for odd m.  Moments
and series terms use that closed form; ``enumerate_pairings`` builds the
pairings themselves and serves as the oracle the tests count against.  The
MGF series collects the moments order by order; the CGF keeps only orders
one and two because every higher Gaussian cumulant vanishes.  That vanishing
is structural here: the high orders are emitted as literal zeros, never
computed, so tests can assert bitwise equality with 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integrand import DivergentIntegralError, IntegrandSpec, TimeGrid, quad_var
from .paths import SeedSpec, ito_integral, sample_brownian

#: Enumeration guard: 13!! = 135135 partitions finish in milliseconds,
#: 15!! = 2027025 starts to dominate test runtime.
MAX_ENUM_ORDER = 14

DEFAULT_BETA = 1.0


class CapacityError(ValueError):
    """Pairing enumeration refused because (m-1)!! is too large."""


def pairing_count(m: int) -> int:
    """(m-1)!! for even m, 0 for odd m: the number of perfect pairings.

    Closed form, no guard; usable beyond the enumeration limit.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m % 2:
        return 0
    count = 1
    for k in range(m, 1, -2):
        count *= k - 1
    return count


@dataclass(frozen=True)
class PairPartition:
    """A perfect pairing of {1..m}: disjoint (i, j) pairs with i < j."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(i), int(j)) for i, j in self.pairs))
        if any(i >= j for i, j in self.pairs):
            raise ValueError("each pair must be ordered (i, j) with i < j")
        seen = sorted(idx for pair in self.pairs for idx in pair)
        if seen != list(range(1, 2 * len(self.pairs) + 1)):
            raise ValueError("pairs must cover {1..m} exactly once each")

    @property
    def order(self) -> int:
        return 2 * len(self.pairs)


def _pairings(indices: tuple[int, ...]):
    if not indices:
        yield ()
        return
    first = indices[0]
    rest = indices[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for tail in _pairings(remaining):
            yield ((first, partner),) + tail


def _check_enum_order(m: int):
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_ENUM_ORDER:
        raise CapacityError(
            f"enumerating pairings of {m} elements would produce"
            f" (m-1)!! = {pairing_count(m)} partitions;"
            f" the guard is m <= {MAX_ENUM_ORDER}"
        )


def enumerate_pairings(m: int) -> list[PairPartition]:
    """All perfect pairings of {1..m} in deterministic lexicographic order.

    Empty for odd m; the single empty partition for m = 0.  Orders above
    MAX_ENUM_ORDER are refused with the would-be count.  Used only as the
    oracle that the closed forms are tested against.
    """
    _check_enum_order(m)
    if m % 2:
        return []
    return [PairPartition(pairs) for pairs in _pairings(tuple(range(1, m + 1)))]


def gaussian_moment(variance: float, m: int) -> float:
    """E S^m for S ~ Normal(0, variance), in closed form: (m-1)!! variance^(m/2).

    Every pairing in ``enumerate_pairings(m)`` contributes variance^(m/2), so
    the Isserlis sum collapses to the integer pairing count times that power;
    the arithmetic is exact up to the single float power and multiply.
    Orders above MAX_ENUM_ORDER are refused, as enumeration refuses them.
    A moment beyond float64 range raises DivergentIntegralError.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    _check_enum_order(m)
    try:
        moment = pairing_count(m) * float(variance) ** (m // 2)
    except OverflowError:
        moment = math.inf
    if not math.isfinite(moment):
        raise DivergentIntegralError(f"Gaussian moment of order {m} overflows at variance {variance:g}")
    return moment


@dataclass(frozen=True)
class SeriesTruncation:
    """Partial sum of a moment or cumulant series: (order, term) plus total."""

    beta: float = DEFAULT_BETA
    orders: tuple[tuple[int, float], ...] = field(default_factory=tuple)
    total: float = 0.0

    def to_json_dict(self) -> dict:
        beta = int(self.beta) if self.beta == int(self.beta) else self.beta
        return {
            "beta": beta,
            "orders": [[m, value] for m, value in self.orders],
            "total": self.total,
        }


def _check_truncation(M: int, lowest: int, what: str = "truncation order"):
    if not lowest <= M <= MAX_ENUM_ORDER:
        raise ValueError(f"{what} must lie in [{lowest}, {MAX_ENUM_ORDER}], got {M}")


def _mgf_series(qv: float, M: int) -> SeriesTruncation:
    orders = []
    for m in range(M + 1):
        if m % 2:
            orders.append((m, 0.0))
        else:
            orders.append((m, gaussian_moment(qv, m) / math.factorial(m)))
    total = float(sum(value for _, value in orders))
    return SeriesTruncation(beta=DEFAULT_BETA, orders=tuple(orders), total=total)


def _cgf_series(qv: float, M: int) -> SeriesTruncation:
    half_qv = 0.5 * qv
    orders = [(1, 0.0), (2, half_qv)]
    orders.extend((m, 0.0) for m in range(3, M + 1))
    return SeriesTruncation(beta=DEFAULT_BETA, orders=tuple(orders), total=half_qv)


def mgf_truncated(spec: IntegrandSpec, t: float, M: int) -> SeriesTruncation:
    """Moment series through order M: term m = (pairing count) qv^(m/2) / m!.

    Odd terms are exactly zero.  Totals are nondecreasing in M and converge
    to exp(qv/2) from below; the first omitted even term times exp(qv/2)
    bounds the remainder.
    """
    _check_truncation(M, 0)
    return _mgf_series(quad_var(spec, t), M)


def cgf_truncated(spec: IntegrandSpec, t: float, M: int) -> SeriesTruncation:
    """Cumulant series through order M: [0, qv/2, 0, 0, ...].

    Order one vanishes (zero mean), order two is qv/2, and every order
    three and up is a structural zero: the Gaussian branch never computes
    them, so they compare bitwise equal to 0.0.
    """
    _check_truncation(M, 2, "cumulant truncation order")
    return _cgf_series(quad_var(spec, t), M)


def _even_term(qv: float, m: int) -> float:
    # closed form of the even MGF term, valid past the enumeration guard
    half = m // 2
    return qv**half / (2.0**half * math.factorial(half))


@dataclass(frozen=True)
class LogRelationReport:
    """|log(truncated MGF) - truncated CGF| against its truncation bound."""

    gap: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        # a vacuous (infinite) bound is written as null: JSON has no Infinity
        bound = self.bound if math.isfinite(self.bound) else None
        return {"gap": self.gap, "bound": bound, "pass": self.passed}


def check_log_relation(spec: IntegrandSpec, t: float, M: int) -> LogRelationReport:
    """Check log(MGF total) = CGF total within the series remainder bound.

    The remainder R is the first omitted even MGF term scaled by exp(qv/2);
    the bound log(1 + R/(total - R)) dominates the truncation gap.  When the
    truncation is too coarse to control the mass (R >= total), or R itself
    overflows float64, the bound is infinite and the check is vacuous.
    """
    if M % 2 or M < 2:
        raise ValueError(f"log-relation check needs an even truncation order >= 2, got {M}")
    _check_truncation(M, 0)
    qv = quad_var(spec, t)
    mgf = _mgf_series(qv, M)
    cgf = _cgf_series(qv, M)
    if not mgf.total > 0:
        raise RuntimeError("internal invariant violated: MGF terms are nonnegative")
    gap = abs(math.log(mgf.total) - cgf.total)
    try:
        remainder = _even_term(qv, M + 2) * math.exp(0.5 * qv)
    except OverflowError:
        remainder = math.inf
    if remainder >= mgf.total:
        bound = math.inf
    else:
        bound = math.log1p(remainder / (mgf.total - remainder))
    return LogRelationReport(gap=gap, bound=bound, passed=gap <= bound)


def compensated_series_mean(spec: IntegrandSpec, t: float) -> float:
    """exp(-qv/2) times the exponentiated CGF total, which is exactly one.

    The CGF total is qv/2 at every truncation order, so order two stands
    for all.  Evaluated as a single exponential of (cgf_total - qv/2) so the
    cancellation happens in the exponent, where it is exact, rather than
    between two rounded exponentials.
    """
    qv = quad_var(spec, t)
    return math.exp(_cgf_series(qv, 2).total - 0.5 * qv)


def discrete_moment_oracle(
    spec: IntegrandSpec,
    grid: TimeGrid,
    m: int,
    n_mc: int,
    seed: SeedSpec,
) -> float:
    """Monte Carlo mean of the discrete noise integral's m-th power.

    A simulation-side oracle for gaussian_moment, fed by fresh increments;
    only the variance structure is shared with the pairing engine.
    """
    if m > 8:
        raise ValueError("oracle is limited to m <= 8 (variance of S^m grows too fast)")
    if n_mc < 10_000:
        raise ValueError("oracle needs n_mc >= 10000 for a meaningful mean")
    increments = sample_brownian(grid, n_mc, seed)
    terminal = ito_integral(spec, increments, grid)[:, -1]
    return float(np.mean(terminal**m))
