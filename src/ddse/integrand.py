"""Deterministic integrands and their accumulated squared mass.

An integrand f feeds the Ito integral of f against Brownian motion.
Everything downstream keys on the single scalar

    qv(t) = integral_0^t f(u)^2 du

which is at once the variance of the integral, the compensator subtracted
inside the exponential sampler, and the quantity whose finiteness the
Novikov check decides.  Five declarative kinds are supported; four carry
closed-form antiderivatives, tabulated ones are integrated numerically by a
knot-aligned composite trapezoid with Richardson refinement.  Adaptive
quadrature (``method="adaptive"``) is an oracle for the tests; it is the
only user of scipy.integrate, which it imports when first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("constant", "polynomial", "exponential_decay", "tabulated", "inverse_sqrt_blowup")
CLOSED_FORM_KINDS = frozenset({"constant", "polynomial", "exponential_decay", "inverse_sqrt_blowup"})
METHODS = ("auto", "closed_form", "trapezoid", "adaptive")

#: Absolute quadrature tolerance used when callers do not override it.
DEFAULT_TOL = 1e-9

#: A running value of qv above this is reported as divergent for tabulated
#: integrands.  exp(qv / 2) overflows float64 near qv ~ 1420, so the verdict
#: is forced long before the cap is reached.
DIVERGENCE_CAP = 1e12

_MAX_REFINEMENTS = 24


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


@dataclass(frozen=True, eq=False)
class QuadVarProfile:
    """Cumulative qv along a grid: values[i] = qv(grid.t[i])."""

    grid: TimeGrid
    values: np.ndarray
    method: str


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
    # inverse_sqrt_blowup: qv(t) = -c^2 * log(1 - t / T*)
    c = spec.params[0]
    tstar = spec.blowup_time
    if c == 0.0:
        return 0.0
    if t >= tstar:
        raise DivergentIntegralError(
            f"qv diverges at t = {tstar:g} (inverse-square-root blowup);"
            f" requested t = {t:g}",
            first_excess_time=_inverse_sqrt_excess_time(c, tstar, DIVERGENCE_CAP),
        )
    return -c * c * math.log1p(-t / tstar)


def _inverse_sqrt_excess_time(c: float, tstar: float, cap: float) -> float:
    # solve -c^2 * log(1 - s/T*) = cap for s
    return tstar * -math.expm1(-cap / (c * c))


# ---------------------------------------------------------------------------
# quadrature


def _trapezoid_refined(sq, a: float, b: float, tol: float) -> float:
    """Composite trapezoid on [a, b] with Richardson refinement to ``tol``.

    ``sq`` must be a vectorised, nonnegative integrand; the refined estimate
    is then nonnegative as well.
    """
    if b == a:
        return 0.0
    width = b - a
    ends = sq(np.asarray([a, b]))
    end_weight = 0.5 * float(ends[0] + ends[1])
    interior = 0.0
    panels = 1
    trap_prev = width * end_weight
    rich_prev = trap_prev
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        step = width / panels
        new_points = a + step * np.arange(1, panels, 2)
        interior += float(np.sum(sq(new_points)))
        trap = step * (end_weight + interior)
        rich = (4.0 * trap - trap_prev) / 3.0
        if abs(rich - rich_prev) <= tol:
            return rich
        trap_prev, rich_prev = trap, rich
    return rich_prev


def _pieces(spec: IntegrandSpec, a: float, b: float):
    """Split [a, b] at interior tabulated knots so each piece is smooth."""
    cuts = [a]
    if spec.kind == "tabulated":
        cuts.extend(t for t, _ in spec.table if a < t < b)
    cuts.append(b)
    return list(zip(cuts, cuts[1:]))


def _qv_trapezoid(spec, a, b, tol, cap, running_from_zero):
    """Knot-aligned trapezoid integration of f^2 over [a, b].

    ``running_from_zero`` is the qv already accumulated on [0, a]; the
    divergence cap applies to the running total, and the first crossing
    time is located by bisection inside the offending piece.
    """
    pieces = _pieces(spec, a, b)
    piece_tol = tol / len(pieces)
    total = 0.0
    for lo, hi in pieces:
        seg = _trapezoid_refined(spec.square_values, lo, hi, piece_tol)
        if running_from_zero + total + seg > cap:
            first = _bisect_excess(spec, lo, hi, cap - running_from_zero - total, piece_tol)
            raise DivergentIntegralError(
                f"running qv exceeded the divergence cap {cap:g} near t = {first:g}",
                first_excess_time=first,
            )
        total += seg
    return total


def _bisect_excess(spec, a, b, budget, tol):
    # locate the first s with integral over [a, s] above budget; the left
    # endpoint of every trial integral stays pinned at a
    lo, hi = a, b
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _trapezoid_refined(spec.square_values, a, mid, tol) > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


def _qv_adaptive(spec: IntegrandSpec, a: float, b: float, tol: float) -> float:
    from scipy.integrate import quad

    if b == a:
        return 0.0
    interior_knots = [t for t, _ in (spec.table or ()) if a < t < b] or None
    value, _err = quad(
        lambda u: spec.value(u) ** 2,
        a,
        b,
        epsabs=tol,
        epsrel=0.0,
        limit=500,
        points=interior_knots,
    )
    return value


def _resolve_method(spec: IntegrandSpec, method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown quadrature method {method!r}; expected one of {METHODS}")
    if method == "auto":
        return "closed_form" if spec.kind in CLOSED_FORM_KINDS else "trapezoid"
    if method == "closed_form" and spec.kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"no closed form for kind {spec.kind!r}")
    return method


def _check_analytic_divergence(spec: IntegrandSpec, b: float, cap: float):
    if spec.kind == "inverse_sqrt_blowup" and spec.params[0] != 0.0 and b >= spec.blowup_time:
        raise DivergentIntegralError(
            f"qv diverges at t = {spec.blowup_time:g} (inverse-square-root blowup);"
            f" requested horizon {b:g}",
            first_excess_time=_inverse_sqrt_excess_time(spec.params[0], spec.blowup_time, cap),
        )


def quad_var_between(
    spec: IntegrandSpec,
    a: float,
    b: float,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    cap: float = DIVERGENCE_CAP,
) -> float:
    """Integral of f^2 over [a, b], to absolute accuracy ``tol``.

    Raises DivergentIntegralError when the integral is infinite (detected
    analytically for the closed-form kinds, or when their closed form
    overflows float64) or when the running total from zero exceeds ``cap``
    (tabulated kinds).
    """
    if not 0.0 <= a <= b:
        raise ValueError("quad_var_between requires 0 <= a <= b")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    _check_analytic_divergence(spec, b, cap)
    resolved = _resolve_method(spec, method)
    if resolved == "closed_form":
        try:
            value = _qv_closed(spec, b) - _qv_closed(spec, a)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DivergentIntegralError(f"qv on [{a:g}, {b:g}] overflows float64")
        return value
    if resolved == "trapezoid":
        base = 0.0
        if spec.kind == "tabulated" and a > 0.0:
            base = _qv_trapezoid(spec, 0.0, a, tol, cap, 0.0)
        return _qv_trapezoid(spec, a, b, tol, cap, base)
    return _qv_adaptive(spec, a, b, tol)


def quad_var(
    spec: IntegrandSpec,
    t: float,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    cap: float = DIVERGENCE_CAP,
) -> float:
    """qv(t) = integral of f^2 over [0, t]."""
    if t < 0:
        raise ValueError("quad_var requires t >= 0")
    return quad_var_between(spec, 0.0, t, method=method, tol=tol, cap=cap)


def novikov_check(
    spec: IntegrandSpec,
    t: float,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    cap: float = DIVERGENCE_CAP,
) -> NovikovReport:
    """Decide whether exp(qv(t) / 2) is finite.

    Divergence is detected analytically for the closed-form kinds and by a
    running-total cap for tabulated ones; a divergent verdict records the
    first time the running integral crossed the cap.
    """
    if not t > 0:
        raise ValueError("novikov_check requires t > 0")
    try:
        value = quad_var(spec, t, method=method, tol=tol, cap=cap)
    except DivergentIntegralError as exc:
        return NovikovReport(verdict="divergent", first_excess_time=exc.first_excess_time)
    return NovikovReport(verdict="finite", half_qv=0.5 * value)


def quad_var_profile(
    spec: IntegrandSpec,
    grid: TimeGrid,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
) -> QuadVarProfile:
    """Cumulative qv at every grid node; panel sums are additive by construction."""
    resolved = _resolve_method(spec, method)
    values = np.empty(grid.t.size)
    values[0] = 0.0
    for i in range(grid.n_steps):
        panel = quad_var_between(spec, float(grid.t[i]), float(grid.t[i + 1]), method=resolved, tol=tol)
        values[i + 1] = values[i] + panel
    values.setflags(write=False)
    return QuadVarProfile(grid=grid, values=values, method=resolved)
