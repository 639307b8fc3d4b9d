"""Deterministic integrands and their accumulated squared mass.

An integrand f feeds the Ito integral of f against Brownian motion.
Everything downstream keys on the single scalar

    qv(t) = integral_0^t f(u)^2 du

which is at once the variance of the integral, the compensator subtracted
inside the exponential sampler, and the quantity whose finiteness the
Novikov check decides.  Five declarative kinds are supported, and each has
qv in closed form: constant, polynomial and exponential-decay integrands
by their antiderivatives, an inverse-square-root blowup by a logarithm
that diverges at its pole, and a tabulated (piecewise-linear) integrand
exactly, one quadratic piece per knot interval.  A tabulated integrand is
called divergent once its running qv exceeds DIVERGENCE_CAP, and the time
of that crossing is located by bisection of the running qv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("constant", "polynomial", "exponential_decay", "tabulated", "inverse_sqrt_blowup")

#: A running value of qv above this is reported as divergent for tabulated
#: integrands.  exp(qv / 2) overflows float64 near qv ~ 1420, so the verdict
#: is forced long before the cap is reached.
DIVERGENCE_CAP = 1e12


class IntegrandDomainError(ValueError):
    """Evaluation requested at or beyond a singular time."""

    def __init__(self, message: str, singular_time: float):
        super().__init__(message)
        self.singular_time = singular_time


class DivergentIntegralError(ValueError):
    """The accumulated square of the integrand diverges on the interval."""

    def __init__(self, message: str, first_excess_time: float | None = None):
        super().__init__(message)
        self.first_excess_time = first_excess_time


@dataclass(frozen=True)
class IntegrandSpec:
    """Declarative description of a deterministic integrand.

    kind / parameters:

    ==================== =================== ==============================
    constant             params=(c,)         f(u) = c
    polynomial           params=(a0,...,ak)  f(u) = sum_i a_i u^i
    exponential_decay    params=(c, rate)    f(u) = c * exp(-rate * u)
    inverse_sqrt_blowup  params=(c,)         f(u) = c / sqrt(T* - u),
                                             T* = blowup_time
    tabulated            table=((t, v), ...) linear interpolation between
                                             knots, constant past the last
    ==================== =================== ==============================

    Instances are immutable and safe to share across threads.
    """

    kind: str
    params: tuple[float, ...] = ()
    blowup_time: float | None = None
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown integrand kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "constant" and len(self.params) != 1:
            raise ValueError("constant integrand needs exactly one parameter")
        if self.kind == "polynomial" and not self.params:
            raise ValueError("polynomial integrand needs at least one coefficient")
        if self.kind == "exponential_decay" and len(self.params) != 2:
            raise ValueError("exponential_decay integrand needs (amplitude, rate)")
        if self.kind == "inverse_sqrt_blowup":
            if len(self.params) != 1:
                raise ValueError("inverse_sqrt_blowup integrand needs exactly one parameter")
            if self.blowup_time is None or not self.blowup_time > 0:
                raise ValueError("inverse_sqrt_blowup requires blowup_time > 0")
            object.__setattr__(self, "blowup_time", float(self.blowup_time))
        elif self.blowup_time is not None:
            raise ValueError(f"blowup_time is only valid for inverse_sqrt_blowup, not {self.kind!r}")
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated integrand needs at least one knot")
            knots = tuple((float(t), float(v)) for t, v in self.table)
            times = [t for t, _ in knots]
            if times[0] != 0.0:
                raise ValueError("tabulated knot times must start at 0")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("tabulated knot times must be strictly increasing")
            if not all(math.isfinite(t) and math.isfinite(v) for t, v in knots):
                raise ValueError("tabulated knots must be finite")
            object.__setattr__(self, "table", knots)
            # np.interp's arrays, built once; attributes rather than fields,
            # so ==, hash, repr and to_json_dict see only the table
            for name, column in zip(("_knot_times", "_knot_values"), zip(*knots)):
                array = np.array(column, dtype=np.float64)
                array.setflags(write=False)
                object.__setattr__(self, name, array)
        elif self.table is not None:
            raise ValueError(f"table is only valid for tabulated, not {self.kind!r}")

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "IntegrandSpec":
        return cls("constant", (c,))

    @classmethod
    def polynomial(cls, coeffs) -> "IntegrandSpec":
        """Ascending-power coefficients: polynomial([0, 1]) is f(u) = u."""
        return cls("polynomial", tuple(coeffs))

    @classmethod
    def exponential_decay(cls, c: float, rate: float) -> "IntegrandSpec":
        return cls("exponential_decay", (c, rate))

    @classmethod
    def inverse_sqrt_blowup(cls, c: float, blowup_time: float) -> "IntegrandSpec":
        return cls("inverse_sqrt_blowup", (c,), blowup_time=blowup_time)

    @classmethod
    def tabulated(cls, knots) -> "IntegrandSpec":
        return cls("tabulated", (), table=tuple((t, v) for t, v in knots))

    # -- evaluation ----------------------------------------------------

    def values(self, t: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of f at the (nonnegative) times ``t``."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and float(t.min()) < 0.0:
            raise ValueError("integrand evaluation requires t >= 0")
        if self.kind == "constant":
            return np.full_like(t, self.params[0])
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(t, np.asarray(self.params))
        if self.kind == "exponential_decay":
            c, rate = self.params
            return c * np.exp(-rate * t)
        if self.kind == "tabulated":
            return np.interp(t, self._knot_times, self._knot_values)
        # inverse_sqrt_blowup: defined on [0, blowup_time)
        tstar = self.blowup_time
        if t.size and float(t.max()) >= tstar:
            raise IntegrandDomainError(
                f"integrand is singular at t = {tstar:g}; requested evaluation at"
                f" t = {float(t.max()):g}",
                singular_time=tstar,
            )
        return self.params[0] / np.sqrt(tstar - t)

    def value(self, t: float) -> float:
        """Evaluate f at a single time."""
        return float(self.values(np.asarray([t]))[0])

    def square_values(self, t: np.ndarray) -> np.ndarray:
        v = self.values(t)
        return v * v

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "params": list(self.params)}
        if self.blowup_time is not None:
            doc["blowup_time"] = self.blowup_time
        if self.table is not None:
            doc["table"] = [[t, v] for t, v in self.table]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IntegrandSpec":
        if not isinstance(doc, dict):
            raise ValueError("integrand spec must be a JSON object")
        unknown = set(doc) - {"kind", "params", "blowup_time", "table"}
        if unknown:
            raise ValueError(f"unknown integrand field(s): {sorted(unknown)}")
        if "kind" not in doc:
            raise ValueError("integrand spec is missing required field 'kind'")
        table = doc.get("table")
        if table is not None:
            try:
                table = tuple((float(t), float(v)) for t, v in table)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"field 'table' must be a list of [time, value] pairs: {exc}")
        return cls(
            kind=doc["kind"],
            params=tuple(doc.get("params", ())),
            blowup_time=doc.get("blowup_time"),
            table=table,
        )


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times starting at 0; the last entry is the horizon."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two nodes")
        if not np.all(np.isfinite(t)):
            raise ValueError("time grid entries must be finite")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise ValueError("uniform grid needs steps >= 1")
        if not horizon > 0:
            raise ValueError("uniform grid needs horizon > 0")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    @property
    def n_steps(self) -> int:
        return self.t.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.t)


@dataclass(frozen=True)
class NovikovReport:
    """Finiteness verdict for exp(qv(t) / 2), with qv / 2 when finite."""

    verdict: str  # "finite" | "divergent"
    half_qv: float | None = None
    first_excess_time: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "half_qv": self.half_qv,
            "first_excess_time": self.first_excess_time,
        }


# ---------------------------------------------------------------------------
# closed-form antiderivatives of f^2


def _qv_tabulated(spec: IntegrandSpec, t: float) -> float:
    """Exact integral over [0, t] of the piecewise-quadratic f^2.

    The knots before t and the point (t, f(t)) cut [0, t] into pieces on
    which f runs linearly from a to b; a piece of width h contributes
    h (a^2 + ab + b^2) / 3, which past the last knot is h f^2.  The bracket
    is summed as (a^2 + b^2 + (a + b)^2) / 2, whose terms are nonnegative:
    nothing cancels, and a value whose square overflows gives inf, never
    inf - inf.
    """
    times, values = spec._knot_times, spec._knot_values
    before = int(np.searchsorted(times, t))
    ends = np.append(times[:before], t)
    f = np.append(values[:before], np.interp(t, times, values))
    a, b = f[:-1], f[1:]
    s = a + b
    # invalid: an infinite t past a last value of 0 gives inf * 0
    with np.errstate(over="ignore", invalid="ignore"):
        pieces = np.diff(ends) * (a * a + b * b + s * s) / 6.0
    return math.fsum(pieces.tolist())


def _tabulated_excess_time(spec: IntegrandSpec, t: float) -> float:
    # bisect the nondecreasing running qv on [0, t] for its first crossing
    # of the cap; qv(0) = 0 is below it and qv(t) above
    lo, hi = 0.0, t
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _qv_tabulated(spec, mid) <= DIVERGENCE_CAP:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


def _qv_closed(spec: IntegrandSpec, t: float) -> float:
    if spec.kind == "constant":
        return spec.params[0] ** 2 * t
    if spec.kind == "polynomial":
        sq = np.convolve(spec.params, spec.params)
        powers = np.arange(1, sq.size + 1)
        # overflow yields inf or nan, which quad_var_between reports as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(sq / powers * t**powers))
    if spec.kind == "exponential_decay":
        c, rate = spec.params
        y = 2.0 * rate * t
        # below this the bracket (1 - exp(-y))/y is 1.0 in double precision,
        # and the expm1 route would quantize y in the subnormal range (an
        # O(1) relative error when rate itself is subnormal)
        if abs(y) < 1e-290:
            return c * c * t
        return c * c * t * (-math.expm1(-y) / y)
    if spec.kind == "tabulated":
        qv = _qv_tabulated(spec, t)
        if not qv <= DIVERGENCE_CAP:
            first = _tabulated_excess_time(spec, t)
            raise DivergentIntegralError(
                f"running qv exceeded the divergence cap {DIVERGENCE_CAP:g} near t = {first:g}",
                first_excess_time=first,
            )
        return qv
    # inverse_sqrt_blowup: qv(t) = -c^2 * log(1 - t / T*)
    c = spec.params[0]
    tstar = spec.blowup_time
    if c == 0.0:
        return 0.0
    if t >= tstar:
        raise DivergentIntegralError(
            f"qv diverges at t = {tstar:g} (inverse-square-root blowup);"
            f" requested t = {t:g}",
            # the s at which -c^2 * log(1 - s/T*) reaches the cap; dividing
            # by c twice gives inf, not a division by zero, when c^2 underflows
            first_excess_time=tstar * -math.expm1(-DIVERGENCE_CAP / c / c),
        )
    return -c * c * math.log1p(-t / tstar)


def quad_var_between(spec: IntegrandSpec, a: float, b: float) -> float:
    """Integral of f^2 over [a, b], as a difference of closed-form qv values.

    Raises DivergentIntegralError when the integral is infinite: at or past
    the pole of an inverse-square-root integrand, when a closed form
    overflows float64, or, for a tabulated integrand, when the running qv
    from zero exceeds DIVERGENCE_CAP.
    """
    if not 0.0 <= a <= b:
        raise ValueError("quad_var_between requires 0 <= a <= b")
    try:
        value = _qv_closed(spec, b) - _qv_closed(spec, a)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DivergentIntegralError(f"qv on [{a:g}, {b:g}] overflows float64")
    return value


def quad_var(spec: IntegrandSpec, t: float) -> float:
    """qv(t) = integral of f^2 over [0, t]."""
    if t < 0:
        raise ValueError("quad_var requires t >= 0")
    return quad_var_between(spec, 0.0, t)


def novikov_check(spec: IntegrandSpec, t: float) -> NovikovReport:
    """Decide whether exp(qv(t) / 2) is finite.

    A divergent verdict records the first time the running qv crosses
    DIVERGENCE_CAP where that time is known: for an inverse-square-root
    pole and for a tabulated integrand.
    """
    if not t > 0:
        raise ValueError("novikov_check requires t > 0")
    try:
        value = quad_var(spec, t)
    except DivergentIntegralError as exc:
        return NovikovReport(verdict="divergent", first_excess_time=exc.first_excess_time)
    return NovikovReport(verdict="finite", half_qv=0.5 * value)
