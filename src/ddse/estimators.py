"""Statistical verdicts on simulated paths: means, moments, martingale tests.

Every verdict is a mean, so it needs only per-node sums, never the path
matrix.  Values are cut into fixed 8192-value slices; each slice gives its
count, sum and centred sum of squares (two passes), and slices merge in
index order by the pairwise rule of Chan, Golub & LeVeque ("Algorithms for
computing the sample variance", Amer. Statist. 1983).  ``NodeMoments`` and
``IncrementBins`` fold row blocks this way as ``paths.RowBlocks`` generates
them; the functions that take a PathBundle run the very same fold over the
bundle's rows, so a streamed verdict equals the bundle verdict field for
field.  A mean is the sum of its slice sums, taken in one pairwise pass,
so no result depends on row blocking or on how many threads sampled.

Every check is an ``EstimateReport`` record, and one rule, ``_check``,
passes it when within a fixed number of standard errors (plus a few ulps
of rounding) of its closed-form target: 3 jackknife SEs for a point
estimate, 4 for each group of the binned conditional-expectation test, to
absorb the multiplicity across bins.  A statistic or SE that is not finite
fails; it is written as null and the reason is noted.  An aggregate
verdict is the conjunction of its records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .integrand import DivergentIntegralError, TimeGrid
from .paths import _BLOCK_ROWS, PathBundle, _Scratch

CONFIDENCE_SIGMAS = 3.0
BIN_GAP_SIGMAS = 4.0
_INCREMENT_MIN_PATHS = 10_000  # fewer leave the increment bins too thin for stable errors
_INCREMENT_BINS = 16

#: Var Z = exp(qv) - 1, so beyond this the estimator tails turn log-normal
#: enough that the quoted standard errors deserve suspicion.
HEAVY_TAIL_QV = 3.0

_EPS = float(np.finfo(np.float64).eps)

# Reduction slice: sums are taken over fixed 8192-value slices and the
# per-slice partials combined in index order, which pins the floating-point
# result for a given array.  A row block holds two slices of row values, or
# one of antithetic pair means, so blocks never split a slice.
_SUM_BLOCK = _BLOCK_ROWS // 2


# Arithmetic on values that overflow or are not finite stays silent: the
# verdict built from them fails and says why (see _check).
_NONFINITE_OK = {"over": "ignore", "invalid": "ignore"}


def _moments_of(part: np.ndarray, dev: np.ndarray) -> tuple:
    """(count, sum, centred sum of squares) of one slice along part's last axis.

    The deviations are written into ``dev``, which may be ``part`` itself.
    """
    count = part.shape[-1]
    with np.errstate(**_NONFINITE_OK):
        total = np.sum(part, axis=-1)
        np.subtract(part, (total / count)[..., None], out=dev)
        np.multiply(dev, dev, out=dev)
        return count, total, np.sum(dev, axis=-1)


def _slice_moments(x: np.ndarray) -> list:
    """``_moments_of`` each slice of a 1-D x, in index order."""
    dev = np.empty(min(x.size, _SUM_BLOCK))
    return [
        _moments_of(x[start : start + _SUM_BLOCK], dev[: min(_SUM_BLOCK, x.size - start)])
        for start in range(0, x.size, _SUM_BLOCK)
    ]


class _Moments:
    """Count, sum and centred sum of squares (M2) per entry, merged in order.

    Entries may be scalars or arrays; counts may differ per entry and may be
    zero (an empty bin), in which case that side of a merge contributes
    nothing.  A sum is the pairwise sum of the slice sums, which is what
    det_sum returns, so no mean depends on how the values were blocked.
    """

    def __init__(self, partials=()):
        self.count = 0
        self.m2 = 0.0
        self._total = 0.0
        self._sums: list = []
        self.merge(partials)

    def merge(self, partials):
        for count, total, m2 in partials:
            if self._sums:
                n = self.count + count
                with np.errstate(divide="ignore", **_NONFINITE_OK):
                    delta = total / count - self._total / self.count
                    merged = self.m2 + m2 + delta * delta * (self.count * count / n)
                    self._total = self._total + total
                m2 = np.where(self.count == 0, m2, np.where(count == 0, self.m2, merged))
                self.count = n
            else:
                self.count, self._total = count, total
            self.m2 = m2
            self._sums.append(total)
        return self

    def sums(self):
        with np.errstate(**_NONFINITE_OK):
            return np.sum(np.stack(self._sums, axis=-1), axis=-1)

    def mean_se(self):
        """Mean and standard error of the mean, s / sqrt(n), per entry."""
        n = self.count
        with np.errstate(**_NONFINITE_OK):
            return self.sums() / n, np.sqrt(self.m2 / (n * (n - 1.0)))


def det_sum(x) -> float:
    """Blockwise deterministic sum: slice partials combined in index order."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        return 0.0
    return float(_Moments(_slice_moments(x)).sums())


def jackknife_mean_se(x) -> tuple[float, float]:
    """Sample mean and its leave-one-out jackknife standard error.

    For the mean the jackknife SE is exactly s / sqrt(n), so it is computed
    in closed form from the slice moments rather than from the n
    leave-one-out means.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("jackknife needs at least two observations")
    mean, se = _Moments(_slice_moments(x)).mean_se()
    return float(mean), float(se)


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class EstimateReport:
    """One point estimate with its 3-sigma interval and optional verdict.

    A non-finite estimate or standard error is kept as is and written to
    JSON as null; its verdict is a failure.
    """

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
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.ci_low > self.estimate or self.estimate > self.ci_high:
            raise ValueError("confidence interval must bracket the estimate")
        if (self.target is None) != (self.passed is None):
            raise ValueError("pass verdict is present exactly when a target is")

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "n": self.n,
            "estimate": _finite_or_none(self.estimate),
            "std_error": _finite_or_none(self.std_error),
            "ci_low": _finite_or_none(self.ci_low),
            "ci_high": _finite_or_none(self.ci_high),
            "target": self.target,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _check(quantity, n, estimate, se, target, notes, sigmas) -> EstimateReport:
    """The one pass rule: |estimate - target| <= sigmas * se, up to rounding."""
    estimate, se, target = float(estimate), float(se), float(target)
    if math.isfinite(estimate) and math.isfinite(se):
        # the slice sums add along a tree about log2 n deep, each add
        # rounding by up to half an ulp, so even a noise-free sample (SE 0)
        # can miss its target by a few ulps; the floor ceil(log2 n) eps
        # |target| allows for that and stays far below any statistical
        # tolerance
        floor = math.ceil(math.log2(n)) * _EPS * abs(target)
        passed = bool(abs(estimate - target) <= sigmas * se + floor)
    else:
        passed = False
        notes = [*notes, f"non-finite statistic: estimate {estimate!r}, standard error {se!r}; check failed"]
    low, high = estimate - sigmas * se, estimate + sigmas * se
    return EstimateReport(quantity, n, estimate, se, low, high, target, passed, notes)


def _check_node(n_nodes: int, t_index: int):
    if not 0 <= t_index < n_nodes:
        raise IndexError(f"node index {t_index} out of range for {n_nodes} nodes")


def _check_paths(n_paths: int):
    if n_paths < 100:
        raise ValueError("refusing to estimate from fewer than 100 paths; the standard error would be meaningless")


def _pair_means(x: np.ndarray, antithetic: bool, out=None) -> np.ndarray:
    # antithetic rows are mirrored pairs (2k, 2k+1); their means are the
    # iid observations the standard error is built from, written into
    # ``out`` when given
    if not antithetic:
        return x
    out = np.add(x[..., 0::2], x[..., 1::2], out=out)
    return np.multiply(out, 0.5, out=out)


def _pair_notes(n_paths: int, antithetic: bool) -> list[str]:
    return [f"antithetic: {n_paths // 2} pair means over {n_paths} paths"] if antithetic else []


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


@dataclass(frozen=True)
class SubmartingaleScan:
    """Closed-form p-th moment profile vs. its Monte Carlo estimates."""

    p: float
    times: tuple[float, ...]
    targets: tuple[float, ...]
    reports: tuple[EstimateReport, ...]
    monotone_pass: bool
    notes: tuple[str, ...] = ()

    @property
    def statistical_pass(self) -> bool:
        return all(r.passed for r in self.reports)

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


def _abs_power(rows: np.ndarray, p: float, scratch: _Scratch) -> np.ndarray:
    """|rows|^p, in the slice buffer of ``scratch``."""
    values = scratch.take("slice", rows.shape)
    np.abs(rows, out=values)
    # in place, ``**=`` picks the ufunc ``**`` would (square for p = 2,
    # sqrt for p = 0.5, power otherwise)
    values **= p
    return values


class NodeMoments:
    """Moments of z, and of |z|^p for each p in ``powers``, at every node.

    ``partials(z)`` reduces a block of rows of a node-major z (rows x nodes)
    to slice moments and may run on any thread, in arrays each thread
    reuses from block to block; ``merge`` takes them in row order.  Those
    arrays live in ``scratch``: folds that run one after the other on a
    thread, as an Euler run's folds of its Euler and exact z do, can share
    one.  With ``antithetic`` the observations are the means of mirrored
    row pairs.  ``nonpositive_count`` is the number of entries z <= 0 the
    sampler produced: while it is zero the p = 1 moment is the mean of z.
    """

    def __init__(
        self, grid: TimeGrid, quad_var, n_paths: int, powers=(), antithetic: bool = False, scratch=None
    ):
        _check_paths(n_paths)
        self.grid = grid
        self.quad_var = np.asarray(quad_var, dtype=np.float64)
        self.n_paths = n_paths
        self.powers = tuple(powers)
        self.antithetic = antithetic
        self.nonpositive_count = 0
        self._moments = [_Moments() for _ in range(1 + len(self.powers))]
        self.scratch = _Scratch() if scratch is None else scratch

    @classmethod
    def of_bundle(cls, bundle: PathBundle, powers=()) -> "NodeMoments":
        moments = cls(bundle.grid, bundle.quad_var, bundle.n_paths, powers, bundle.antithetic)
        for start in range(0, bundle.n_paths, _BLOCK_ROWS):
            # a node-major copy of the bundle's row-major z, a block at a time
            rows = np.ascontiguousarray(bundle.z[start : start + _BLOCK_ROWS].T)
            moments.merge(moments.partials(rows.T))
        moments.nonpositive_count = bundle.nonpositive_count
        return moments

    def partials(self, z: np.ndarray) -> list:
        """Slice moments of z and of each |z|^p, per quantity in slice order.

        z must be node-major, as a ``RowBlocks`` block's z is: it is read in
        place through ``np.transpose(z)``, which must be C-contiguous.  The
        rest happens one slice of observations at a time, in a (nodes, 8192)
        buffer of ``scratch`` (and, under ``antithetic``, a second one for
        the pair means).
        """
        scratch = self.scratch
        zt = np.transpose(z)
        if not zt.flags.c_contiguous:
            raise ValueError("partials needs a node-major z, whose transpose is C-contiguous")
        n_nodes, per_obs = zt.shape[0], 2 if self.antithetic else 1
        partials = [[] for _ in range(1 + len(self.powers))]
        for start in range(0, zt.shape[1], per_obs * _SUM_BLOCK):
            rows = zt[:, start : start + per_obs * _SUM_BLOCK]
            count = rows.shape[1] // per_obs
            with np.errstate(**_NONFINITE_OK):
                if self.antithetic:
                    pairs = _pair_means(rows, True, scratch.take("pairs", (n_nodes, count)))
                    partials[0].append(_moments_of(pairs, pairs))
                else:
                    partials[0].append(_moments_of(rows, scratch.take("slice", (n_nodes, count))))
                for moments, p in zip(partials[1:], self.powers):
                    if self.antithetic:
                        # the pair means of |z|^p, from half a slice of rows at a time
                        for half in range(0, rows.shape[1], _SUM_BLOCK):
                            values = _abs_power(rows[:, half : half + _SUM_BLOCK], p, scratch)
                            _pair_means(values, True, pairs[:, half // 2 : (half + values.shape[1]) // 2])
                        values = pairs
                    else:
                        values = _abs_power(rows, p, scratch)
                    moments.append(_moments_of(values, values))
        return partials

    def merge(self, partials):
        for moments, part in zip(self._moments, partials):
            moments.merge(part)

    def _node(self, t_index: int):
        _check_node(self.grid.t.size, t_index)
        return float(self.grid.t[t_index]), float(self.quad_var[t_index])

    def _report(self, quantity_index: int, t_index: int, quantity: str, target: float, notes) -> EstimateReport:
        moments = self._moments[quantity_index]
        means, ses = moments.mean_se()
        return _check(quantity, moments.count, means[t_index], ses[t_index], target, notes, CONFIDENCE_SIGMAS)

    def mean_z(self, t_index: int) -> EstimateReport:
        """Sample mean of z at a node against the martingale target 1."""
        t, qv = self._node(t_index)
        notes = _pair_notes(self.n_paths, self.antithetic)
        if qv > HEAVY_TAIL_QV:
            notes.append(
                f"heavy-tail warning: accumulated squared integrand {qv:.6g} > {HEAVY_TAIL_QV:g},"
                f" var z = exp(qv) - 1 makes 3-sigma coverage optimistic"
            )
        return self._report(0, t_index, f"mean_z@t={t:g}", 1.0, notes)

    def p_moment(self, t_index: int, p: float) -> EstimateReport:
        """Sample mean of |z|^p at a node against exp(p(p-1) qv_N / 2)."""
        if not p > 0:
            raise ValueError("moment order p must be positive")
        if p == 1 and self.nonpositive_count == 0:
            return self.mean_z(t_index)
        t, qv = self._node(t_index)
        n = self.n_paths // 2 if self.antithetic else self.n_paths
        with np.errstate(over="ignore"):
            second, first = np.exp(p * (2.0 * p - 1.0) * qv), np.exp(p * (p - 1.0) * qv)
        # second >= first, so an infinite first term means an infinite variance
        var_cf = float(second - first) if math.isfinite(first) else math.inf
        se_cf = math.sqrt(var_cf / n) if math.isfinite(var_cf) else math.inf
        notes = _pair_notes(self.n_paths, self.antithetic) + [
            f"variance oracle exp(p(2p-1)qv) - exp(p(p-1)qv) = {var_cf:.6g}"
            f" gives closed-form SE {se_cf:.6g}"
        ]
        target = float(p_moment_targets(qv, p))
        return self._report(1 + self.powers.index(p), t_index, f"pth_moment@p={p:g};t={t:g}", target, notes)

    def scan(self, p: float) -> SubmartingaleScan:
        """The p-th moment profile over every node; see ``submartingale_scan``."""
        if not p > 1:
            raise ValueError("submartingale scan requires p > 1")
        t = self.grid.t
        targets = p_moment_targets(self.quad_var, p)
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
                    + ", ".join(f"{t[i]:g}->{t[i + 1]:g}" for i in flat)
                )
        reports = tuple(self.p_moment(j, p) for j in range(t.size))
        return SubmartingaleScan(
            p=float(p),
            times=tuple(float(v) for v in t),
            targets=tuple(float(v) for v in targets),
            reports=reports,
            monotone_pass=monotone,
            notes=tuple(notes),
        )


def estimate_mean_z(bundle: PathBundle, t_index: int) -> EstimateReport:
    """Sample mean of z at a node against the martingale target 1."""
    return NodeMoments.of_bundle(bundle).mean_z(t_index)


def estimate_p_moment(bundle: PathBundle, t_index: int, p: float) -> EstimateReport:
    """Sample mean of |z|^p against exp(p(p-1) qv_N / 2).

    The target uses the discrete compensator, which is exactly what the
    sampler realizes, so the comparison is statistical rather than a
    discretization check.  For p = 1 on a bundle with no nonpositive
    entries this is the mean-z estimate, field for field.
    """
    if not p > 0:
        raise ValueError("moment order p must be positive")
    return NodeMoments.of_bundle(bundle, (p,)).p_moment(t_index, p)


def submartingale_scan(bundle: PathBundle, p: float) -> SubmartingaleScan:
    """Verify a bundle's p-th moment profile increases and matches its samples.

    monotone_pass is the exact closed-form check (strict increase of the
    targets across nodes); the per-node statistical consistency is recorded
    separately.  A flat or partially flat target profile is reported in the
    notes instead of raising.
    """
    if not p > 1:
        raise ValueError("submartingale scan requires p > 1")
    return NodeMoments.of_bundle(bundle, (p,)).scan(p)


@dataclass(frozen=True)
class MartingaleTestReport:
    """Binned conditional-increment gaps between two nodes, one check per bin group."""

    s: float
    t: float
    n_bins: int
    gaps: tuple[float, ...]
    gaps_in_se: tuple[float, ...]
    max_abs_gap_in_se: float
    checks: tuple[EstimateReport, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "n_bins": self.n_bins,
            "gaps": [_finite_or_none(v) for v in self.gaps],
            "gaps_in_se": [_finite_or_none(v) for v in self.gaps_in_se],
            "max_abs_gap_in_se": _finite_or_none(self.max_abs_gap_in_se),
            "pass": self.passed,
            "notes": list(self.notes),
        }


class IncrementBins:
    """Binned moments of z(t) - z(s), grouped by the Ito sum I(s).

    I(s) is Normal(0, qv_N(s)) under both schemes, so the edges of the 16
    bins are its exact quantiles sqrt(qv_N(s)) * Phi^-1(k / 16); for the
    exact scheme that is binning on the quantiles of z(s), with no sort.
    As with ``NodeMoments``, ``partials(ito, z)`` reduces a block of rows on
    any thread and ``merge`` takes the blocks in row order.
    """

    def __init__(self, grid: TimeGrid, quad_var, n_paths: int, s_index: int, t_index: int):
        n_nodes = grid.t.size
        _check_node(n_nodes, s_index)
        _check_node(n_nodes, t_index)
        if s_index >= t_index:
            raise ValueError("increment test needs s_index < t_index")
        if n_paths < _INCREMENT_MIN_PATHS:
            raise ValueError(f"increment test needs at least {_INCREMENT_MIN_PATHS} paths for stable bin errors")
        self.s = float(grid.t[s_index])
        self.t = float(grid.t[t_index])
        self.s_index = s_index
        self.t_index = t_index
        self.n_bins = _INCREMENT_BINS
        self.edges = np.sqrt(float(quad_var[s_index])) * ndtri(np.arange(1, self.n_bins) / self.n_bins)
        self._bins = _Moments()

    @classmethod
    def of_bundle(cls, bundle: PathBundle, s_index: int, t_index: int) -> "IncrementBins":
        bins = cls(bundle.grid, bundle.quad_var, bundle.n_paths, s_index, t_index)
        bins.merge(bins.partials(bundle.ito, bundle.z))
        return bins

    def partials(self, ito: np.ndarray, z: np.ndarray) -> list:
        idx = np.searchsorted(self.edges, ito[:, self.s_index], side="right")
        partials = []
        # only occupied bins are looked up, so empty ones may divide by 0
        with np.errstate(divide="ignore", **_NONFINITE_OK):
            d = z[:, self.t_index] - z[:, self.s_index]
            for start in range(0, d.size, _SUM_BLOCK):
                i, x = idx[start : start + _SUM_BLOCK], d[start : start + _SUM_BLOCK]
                counts = np.bincount(i, minlength=self.n_bins)
                total = np.bincount(i, weights=x, minlength=self.n_bins)
                dev = x - (total / counts)[i]
                partials.append((counts, total, np.bincount(i, weights=dev * dev, minlength=self.n_bins)))
        return partials

    def merge(self, partials):
        self._bins.merge(partials)

    def report(self) -> MartingaleTestReport:
        n_bins = self.n_bins
        counts, sums, m2 = self._bins.count, self._bins.sums(), self._bins.m2
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
        notes = []
        if len(spans) < n_bins:
            notes.append(f"merged low-occupancy bins: {n_bins} requested -> {len(spans)} groups")
        groups = [_Moments((counts[k], sums[k], m2[k]) for k in range(a, b + 1)) for a, b in spans]
        cnt = np.array([g.count for g in groups], dtype=np.float64)
        gaps = np.array([g.sums() for g in groups]) / cnt
        var = np.array([g.m2 for g in groups]) / (cnt - 1.0)
        se = np.sqrt(var / cnt)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gaps == 0.0, 0.0, np.abs(gaps) / se)
        ratio = np.where(np.isnan(ratio), np.inf, ratio)
        bad = np.count_nonzero(~(np.isfinite(gaps) & np.isfinite(se) & np.isfinite(ratio)))
        if bad:
            notes.append(f"non-finite statistic in {bad} of {len(spans)} groups (written as null); check failed")
        name = f"increment_gap@s={self.s:g};t={self.t:g};group="
        checks = tuple(
            _check(f"{name}{k}", int(n), gap, err, 0.0, (), BIN_GAP_SIGMAS)
            for k, (n, gap, err) in enumerate(zip(cnt, gaps, se))
        )
        return MartingaleTestReport(
            s=self.s,
            t=self.t,
            n_bins=n_bins,
            gaps=tuple(float(v) for v in gaps),
            gaps_in_se=tuple(float(v) for v in ratio),
            max_abs_gap_in_se=float(np.max(ratio)),
            checks=checks,
            notes=tuple(notes),
        )


def martingale_increment_test(bundle: PathBundle, s_index: int, t_index: int) -> MartingaleTestReport:
    """Test E[z(t) - z(s) | I(s)] = 0 by binning on the Ito sum I(s).

    No functional form is assumed: paths are grouped by the exact Gaussian
    quantiles of I(s) (equivalently of z(s) for the exact scheme) and each
    group's mean increment is compared to zero in units of its own standard
    error.  Each group is one check, passed when its gap is within 4 SE
    (Bonferroni slack for the 16 bins); the test passes when all do.
    Bins emptied by ties are merged rightward into their neighbour and the
    merge is noted.
    """
    return IncrementBins.of_bundle(bundle, s_index, t_index).report()


def drift_expectation_check(bundle: PathBundle, alpha: float, x0: float) -> EstimateReport:
    """Sample mean of x(T) = x0 exp(alpha T) z(T) vs. its target x0 exp(alpha T).

    x is the drifted process dx = alpha x dt + psi x dB built on the bundle's
    z; only its horizon value is formed, scaled by the very float used as
    the target.
    """
    if not x0 > 0:
        raise ValueError("x0 must be positive")
    _check_paths(bundle.n_paths)
    horizon = float(bundle.grid.horizon)
    scale = x0 * math.exp(alpha * horizon)
    x = _pair_means(scale * bundle.z[:, -1], bundle.antithetic)
    mean, se = jackknife_mean_se(x)
    notes = _pair_notes(bundle.n_paths, bundle.antithetic)
    return _check(f"mean_x@t={horizon:g}", x.size, mean, se, scale, notes, CONFIDENCE_SIGMAS)


def reports_to_csv(reports) -> str:
    """Flat CSV, one row per estimate, shortest round-trip float text.

    A non-finite statistic is left empty, as JSON writes it as null.
    """

    def text(v):
        return str(float(v)) if math.isfinite(v) else ""

    lines = ["quantity,n,estimate,se,ci_low,ci_high,target,pass"]
    for r in reports:
        target = "" if r.target is None else str(float(r.target))
        verdict = "" if r.passed is None else ("true" if r.passed else "false")
        lines.append(
            f"{r.quantity},{r.n},{text(r.estimate)},{text(r.std_error)},"
            f"{text(r.ci_low)},{text(r.ci_high)},{target},{verdict}"
        )
    return "\n".join(lines) + "\n"
