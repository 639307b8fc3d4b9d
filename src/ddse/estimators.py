"""Statistical verdicts on path bundles: means, moments, martingale tests.

Every verdict is a pure function of a PathBundle: sampling happens once,
in ``paths``, and the same bundle can be judged by any number of checks.
Acceptance rules are fixed rather than configurable: point estimates pass
when within 3 jackknife standard errors (plus a few ulps of rounding) of
their closed-form target, and the binned conditional-expectation test uses
a 4-standard-error threshold to absorb the multiplicity across bins.  Every
reduction over paths runs on one thread through fixed-size block sums
combined in index order, so a report does not depend on how many sampler
threads built its bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrand import DivergentIntegralError
from .paths import PathBundle

CONFIDENCE_SIGMAS = 3.0
BIN_GAP_SIGMAS = 4.0

#: Var Z = exp(qv) - 1, so beyond this the estimator tails turn log-normal
#: enough that the quoted standard errors deserve suspicion.
HEAVY_TAIL_QV = 3.0

_EPS = float(np.finfo(np.float64).eps)

# Reduction block: sums are taken over fixed 8192-element slices and the
# per-slice partials combined in index order, which pins the floating-point
# result for a given array.
_SUM_BLOCK = 8192


def det_sum(x) -> float:
    """Blockwise deterministic sum: slice partials combined in index order."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        return 0.0
    partials = [np.sum(x[s : s + _SUM_BLOCK]) for s in range(0, x.size, _SUM_BLOCK)]
    return float(np.sum(np.asarray(partials)))


def jackknife_mean_se(x) -> tuple[float, float]:
    """Sample mean and its leave-one-out jackknife standard error.

    For the mean the jackknife SE is exactly s / sqrt(n), so it is computed
    in closed form from the centred sum of squares (two passes) rather than
    from the n leave-one-out means.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    n = x.size
    if n < 2:
        raise ValueError("jackknife needs at least two observations")
    mean = det_sum(x) / n
    dev = x - mean
    np.multiply(dev, dev, out=dev)
    return mean, math.sqrt(det_sum(dev) / (n * (n - 1.0)))


@dataclass(frozen=True)
class EstimateReport:
    """One point estimate with its 3-sigma interval and optional verdict."""

    quantity: str
    n: int
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    target: float | None = None
    passed: bool | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ValueError("confidence interval must bracket the estimate")
        if (self.target is None) != (self.passed is None):
            raise ValueError("pass verdict is present exactly when a target is")

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "n": self.n,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "target": self.target,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _mean_report(quantity, x, target, notes) -> EstimateReport:
    mean, se = jackknife_mean_se(x)
    passed = None
    if target is not None:
        target = float(target)
        # det_sum adds along a tree about log2 n deep, each add rounding by
        # up to half an ulp, so even a noise-free sample (SE 0) can miss its
        # target by a few ulps; the floor ceil(log2 n) eps |target| allows
        # for that and stays far below any statistical tolerance
        floor = math.ceil(math.log2(x.size)) * _EPS * abs(target)
        passed = bool(abs(mean - target) <= CONFIDENCE_SIGMAS * se + floor)
    return EstimateReport(
        quantity=quantity,
        n=x.size,
        estimate=mean,
        std_error=se,
        ci_low=mean - CONFIDENCE_SIGMAS * se,
        ci_high=mean + CONFIDENCE_SIGMAS * se,
        target=target,
        passed=passed,
        notes=tuple(notes),
    )


def _check_node(bundle: PathBundle, t_index: int):
    if not 0 <= t_index < bundle.n_nodes:
        raise IndexError(f"node index {t_index} out of range for {bundle.n_nodes} nodes")


def _node_column(bundle: PathBundle, t_index: int):
    """(t, qv, z column) at a node of a bundle large enough for an SE."""
    _check_node(bundle, t_index)
    if bundle.n_paths < 100:
        raise ValueError("refusing to estimate from fewer than 100 paths; the standard error would be meaningless")
    t = float(bundle.grid.t[t_index])
    qv = float(bundle.quad_var[t_index])
    return t, qv, np.ascontiguousarray(bundle.z[:, t_index])


def _pair_means(x: np.ndarray, bundle: PathBundle, notes: list):
    # antithetic rows are mirrored pairs (2k, 2k+1); their means are the
    # iid observations the standard error is built from
    if not bundle.antithetic:
        return x
    notes.append(f"antithetic: {x.size // 2} pair means over {x.size} paths")
    return 0.5 * (x[0::2] + x[1::2])


def estimate_mean_z(bundle: PathBundle, t_index: int) -> EstimateReport:
    """Sample mean of z at a node against the martingale target 1."""
    t, qv, z = _node_column(bundle, t_index)
    notes: list[str] = []
    x = _pair_means(z, bundle, notes)
    if qv > HEAVY_TAIL_QV:
        notes.append(
            f"heavy-tail warning: accumulated squared integrand {qv:.6g} > {HEAVY_TAIL_QV:g},"
            f" var z = exp(qv) - 1 makes 3-sigma coverage optimistic"
        )
    return _mean_report(f"mean_z@t={t:g}", x, 1.0, notes)


def p_moment_targets(qv_values, p: float) -> np.ndarray:
    """Closed-form p-th moment exp(p(p-1) qv / 2) at each compensator value.

    A target beyond float64 range raises DivergentIntegralError: no finite
    sample mean can be compared with it.
    """
    with np.errstate(over="ignore"):
        targets = np.exp(0.5 * p * (p - 1.0) * np.asarray(qv_values, dtype=np.float64))
    if not np.all(np.isfinite(targets)):
        raise DivergentIntegralError(f"p-th moment target at p = {p:g} overflows float64")
    return targets


def estimate_p_moment(bundle: PathBundle, t_index: int, p: float) -> EstimateReport:
    """Sample mean of |z|^p against exp(p(p-1) qv_N / 2).

    The target uses the discrete compensator, which is exactly what the
    sampler realizes, so the comparison is statistical rather than a
    discretization check.  For p = 1 on a bundle with no nonpositive
    entries this is the mean-z estimate, field for field.
    """
    if not p > 0:
        raise ValueError("moment order p must be positive")
    if p == 1 and bundle.nonpositive_count == 0:
        return estimate_mean_z(bundle, t_index)
    t, qv, z = _node_column(bundle, t_index)
    notes: list[str] = []
    x = _pair_means(np.abs(z) ** p, bundle, notes)
    target = float(p_moment_targets(qv, p))
    with np.errstate(over="ignore"):
        second, first = np.exp(p * (2.0 * p - 1.0) * qv), np.exp(p * (p - 1.0) * qv)
    # second >= first, so an infinite first term means an infinite variance
    var_cf = float(second - first) if math.isfinite(first) else math.inf
    se_cf = math.sqrt(var_cf / x.size) if math.isfinite(var_cf) else math.inf
    notes.append(
        f"variance oracle exp(p(2p-1)qv) - exp(p(p-1)qv) = {var_cf:.6g}"
        f" gives closed-form SE {se_cf:.6g}"
    )
    return _mean_report(f"pth_moment@p={p:g};t={t:g}", x, target, notes)


@dataclass(frozen=True)
class SubmartingaleScan:
    """Closed-form p-th moment profile vs. its Monte Carlo estimates."""

    p: float
    times: tuple[float, ...]
    targets: tuple[float, ...]
    reports: tuple[EstimateReport, ...]
    monotone_pass: bool
    statistical_pass: bool
    notes: tuple[str, ...] = ()

    @property
    def profile(self) -> tuple[tuple[float, float], ...]:
        return tuple((t, r.estimate) for t, r in zip(self.times, self.reports))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "times": list(self.times),
            "targets": list(self.targets),
            "monotone_pass": self.monotone_pass,
            "statistical_pass": self.statistical_pass,
            "notes": list(self.notes),
            "reports": [r.to_json_dict() for r in self.reports],
        }


def submartingale_scan(bundle: PathBundle, p: float) -> SubmartingaleScan:
    """Verify a bundle's p-th moment profile increases and matches its samples.

    monotone_pass is the exact closed-form check (strict increase of the
    targets across nodes); the per-node statistical consistency is recorded
    separately.  A flat or partially flat target profile is reported in the
    notes instead of raising.
    """
    if not p > 1:
        raise ValueError("submartingale scan requires p > 1")
    grid = bundle.grid
    targets = p_moment_targets(bundle.quad_var, p)
    diffs = np.diff(targets)
    monotone = bool(np.all(diffs > 0.0))
    notes: list[str] = []
    if not monotone:
        if np.all(diffs == 0.0):
            notes.append("constant profile: closed-form targets are flat across all nodes")
        else:
            flat = np.flatnonzero(diffs <= 0.0)
            notes.append(
                "non-strict target profile on steps "
                + ", ".join(f"{grid.t[i]:g}->{grid.t[i + 1]:g}" for i in flat)
            )
    reports = tuple(estimate_p_moment(bundle, j, p) for j in range(grid.t.size))
    return SubmartingaleScan(
        p=float(p),
        times=tuple(float(v) for v in grid.t),
        targets=tuple(float(v) for v in targets),
        reports=reports,
        monotone_pass=monotone,
        statistical_pass=all(r.passed for r in reports),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class MartingaleTestReport:
    """Binned conditional-increment gaps between two nodes."""

    s: float
    t: float
    n_bins: int
    gaps: tuple[float, ...]
    gaps_in_se: tuple[float, ...]
    max_abs_gap_in_se: float
    passed: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "n_bins": self.n_bins,
            "gaps": list(self.gaps),
            "gaps_in_se": list(self.gaps_in_se),
            "max_abs_gap_in_se": self.max_abs_gap_in_se,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def martingale_increment_test(
    bundle: PathBundle,
    s_index: int,
    t_index: int,
    n_bins: int,
) -> MartingaleTestReport:
    """Test E[z(t) - z(s) | z(s)] = 0 by quantile binning on z(s).

    No functional form is assumed: paths are grouped by quantiles of z(s)
    and each group's mean increment is compared to zero in units of its own
    standard error.  Passes when every gap is within 4 SE (Bonferroni slack
    for up to 64 bins).  Bins emptied by ties are merged rightward into
    their neighbour and the merge is noted.
    """
    _check_node(bundle, s_index)
    _check_node(bundle, t_index)
    if s_index >= t_index:
        raise ValueError("increment test needs s_index < t_index")
    if bundle.n_paths < 10_000:
        raise ValueError("increment test needs at least 10000 paths for stable bin errors")
    if not 4 <= n_bins <= 64:
        raise ValueError("n_bins must lie in [4, 64]")
    zs = np.ascontiguousarray(bundle.z[:, s_index])
    zt = np.ascontiguousarray(bundle.z[:, t_index])
    edges = np.quantile(zs, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    idx = np.searchsorted(edges, zs, side="right")
    counts = np.bincount(idx, minlength=n_bins)

    # group consecutive bins until each group holds >= 2 paths
    spans = []
    start, acc = 0, 0
    for b in range(n_bins):
        acc += int(counts[b])
        if acc >= 2:
            spans.append((start, b))
            start, acc = b + 1, 0
    if start < n_bins:
        if not spans:
            raise ValueError("increment test needs at least 2 paths")
        spans[-1] = (spans[-1][0], n_bins - 1)
    n_groups = len(spans)
    notes = []
    if n_groups < n_bins:
        notes.append(f"merged low-occupancy bins: {n_bins} requested -> {n_groups} groups")
    group_of = np.empty(n_bins, dtype=np.intp)
    for g, (a, b) in enumerate(spans):
        group_of[a : b + 1] = g
    gidx = group_of[idx]

    d = zt - zs
    cnt = np.bincount(gidx, minlength=n_groups).astype(np.float64)
    gaps = np.bincount(gidx, weights=d, minlength=n_groups) / cnt
    resid = d - gaps[gidx]
    var = np.bincount(gidx, weights=resid * resid, minlength=n_groups) / (cnt - 1.0)
    se = np.sqrt(var / cnt)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gaps == 0.0, 0.0, np.abs(gaps) / se)
    ratio = np.where(np.isnan(ratio), np.inf, ratio)
    max_abs = float(np.max(ratio))
    return MartingaleTestReport(
        s=float(bundle.grid.t[s_index]),
        t=float(bundle.grid.t[t_index]),
        n_bins=n_bins,
        gaps=tuple(float(v) for v in gaps),
        gaps_in_se=tuple(float(v) for v in ratio),
        max_abs_gap_in_se=max_abs,
        passed=bool(max_abs <= BIN_GAP_SIGMAS),
        notes=tuple(notes),
    )


def drift_expectation_check(bundle: PathBundle, alpha: float, x0: float) -> EstimateReport:
    """Sample mean of x(T) = x0 exp(alpha T) z(T) vs. its target x0 exp(alpha T).

    x is the drifted process dx = alpha x dt + psi x dB built on the bundle's
    z; only its horizon value is formed, scaled by the very float used as
    the target.
    """
    if not x0 > 0:
        raise ValueError("x0 must be positive")
    horizon, _, z = _node_column(bundle, bundle.n_nodes - 1)
    scale = x0 * math.exp(alpha * horizon)
    notes: list[str] = []
    x = _pair_means(scale * z, bundle, notes)
    return _mean_report(f"mean_x@t={horizon:g}", x, scale, notes)


def reports_to_csv(reports) -> str:
    """Flat CSV, one row per estimate, shortest round-trip float text."""
    lines = ["quantity,n,estimate,se,ci_low,ci_high,target,pass"]
    for r in reports:
        target = "" if r.target is None else str(float(r.target))
        verdict = "" if r.passed is None else ("true" if r.passed else "false")
        lines.append(
            f"{r.quantity},{r.n},{float(r.estimate)!s},{float(r.std_error)!s},"
            f"{float(r.ci_low)!s},{float(r.ci_high)!s},{target},{verdict}"
        )
    return "\n".join(lines) + "\n"
