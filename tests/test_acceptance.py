"""Acceptance battery: one test per promised behavior.

Each test prints a single ``criterion NN PASS/FAIL`` line (run with ``-s``
to see them stream) and then asserts, so the suite both documents and
enforces the contract.  Everything runs at desk scale; the whole module
stays well under five minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from ddse.cli import main
from ddse.estimators import (
    drift_expectation_check,
    estimate_mean_z,
    estimate_p_moment,
    martingale_increment_test,
    p_moment_targets,
    submartingale_scan,
)
from ddse.integrand import IntegrandSpec, TimeGrid, novikov_check
from ddse.paths import PathBundle, SeedSpec, discrete_quad_var, stoch_exp_exact
from ddse.wick import (
    cgf_truncated,
    check_log_relation,
    discrete_moment_oracle,
    enumerate_pairings,
    gaussian_moment,
    mgf_truncated,
)

UNIT = IntegrandSpec.constant(1.0)
MAIN_GRID = TimeGrid.uniform(1.0, 16)
MAIN_SEED = SeedSpec(20260814)
N_MAIN = 1_000_000


def verdict(number: int, description: str, ok: bool):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number:02d} failed: {description}"


@pytest.fixture(scope="module")
def main_run():
    start = time.perf_counter()
    bundle = stoch_exp_exact(UNIT, MAIN_GRID, N_MAIN, MAIN_SEED)
    return bundle, time.perf_counter() - start


def test_criterion_01_terminal_mean(main_run):
    bundle, build_seconds = main_run
    start = time.perf_counter()
    report = estimate_mean_z(bundle, 16)
    elapsed = build_seconds + (time.perf_counter() - start)
    se_oracle = math.sqrt(math.e - 1.0) / math.sqrt(N_MAIN)
    ok = (
        report.passed
        and abs(report.std_error - se_oracle) <= 0.15 * se_oracle
        and elapsed <= 10.0
    )
    verdict(1, "terminal mean of the exponential is 1 within 3 SE at a million paths", ok)


def test_criterion_02_power_moments(main_run):
    bundle, _ = main_run
    two = estimate_p_moment(bundle, 16, 2.0)
    se2 = math.sqrt(math.exp(6.0) - math.exp(2.0)) / math.sqrt(N_MAIN)
    ok = two.passed and abs(two.estimate - math.e) <= 3.0 * se2

    # the third moment has variance e^15 - e^6, so ten million paths and a
    # single step (the compensator only depends on the horizon here)
    n3 = 10_000_000
    cube_bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 1), n3, SeedSpec(99))
    three = estimate_p_moment(cube_bundle, 1, 3.0)
    se3 = math.sqrt(math.exp(15.0) - math.exp(6.0)) / math.sqrt(n3)
    ok = ok and three.passed and abs(three.estimate - math.exp(3.0)) <= 3.0 * se3
    verdict(2, "second and third moments match exp(p(p-1)/2 qv) within closed-form SE", ok)


def test_criterion_03_moment_profile_increases():
    qv = discrete_quad_var(UNIT, MAIN_GRID)
    ok = all(
        bool(np.all(np.diff(p_moment_targets(qv, p)) > 0.0)) for p in (1.5, 2.0, 3.0)
    )
    scan = submartingale_scan(stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 2), 200_000, SeedSpec(701)), 2.0)
    ok = ok and scan.monotone_pass and scan.statistical_pass
    verdict(3, "p-th moment target profile strictly increases and the samples agree", ok)


def test_criterion_04_high_cumulants_vanish():
    series = cgf_truncated(UNIT, 1.0, 14)
    high = [term for m, term in series.orders if m >= 3]
    ok = len(high) == 12 and all(
        term == 0.0 and math.copysign(1.0, term) == 1.0 for term in high
    )
    verdict(4, "cumulants of the exponent vanish identically above order two", ok)


def test_criterion_05_series_log_relation():
    total = mgf_truncated(UNIT, 1.0, 14).total
    ok = abs(math.log(total) - 0.5) <= 1e-6 and check_log_relation(UNIT, 1.0, 14).passed
    verdict(5, "log of the truncated moment series matches the cumulant series", ok)


def test_criterion_06_pairing_counts():
    def recursion(m):
        return 1 if m == 0 else (m - 1) * recursion(m - 2)

    expected = (1, 3, 15, 105, 945, 10395, 135135)
    counts = tuple(len(enumerate_pairings(m)) for m in range(2, 15, 2))
    ok = counts == expected == tuple(recursion(m) for m in range(2, 15, 2))
    verdict(6, "pairing enumeration reproduces the double-factorial counts", ok)


def test_criterion_07_fourth_moment_vs_simulation():
    target = gaussian_moment(1.0, 4)
    grid = TimeGrid.uniform(1.0, 8)
    got = discrete_moment_oracle(UNIT, grid, 4, 1_000_000, SeedSpec(41))
    # Var S^4 = E S^8 - (E S^4)^2 = 105 - 9 for a standard normal
    se = math.sqrt(96.0) / 1000.0
    ok = target == 3.0 and abs(got - target) <= 3.0 * se
    verdict(7, "simulated fourth moment of the driving integral hits the pairing value", ok)


def test_criterion_08_finiteness_gate():
    spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0)
    diverged = novikov_check(spec, 1.0)
    finite = novikov_check(spec, 0.5)
    ok = (
        diverged.verdict == "divergent"
        and diverged.first_excess_time is not None
        and finite.verdict == "finite"
        and abs(finite.half_qv - 0.5 * math.log(2.0)) <= 1e-9
    )
    verdict(8, "square-integrability gate splits the blowup integrand at its horizon", ok)


def test_criterion_09_drifted_mean():
    report = drift_expectation_check(stoch_exp_exact(UNIT, MAIN_GRID, N_MAIN, SeedSpec(4242)), 1.0, 1.0)
    ok = report.passed and report.target == pytest.approx(math.e, rel=1e-15)
    verdict(9, "drifted process mean lands on x0 exp(alpha T) within 3 SE", ok)


def test_criterion_10_increment_test_power(main_run):
    bundle, _ = main_run
    clean = martingale_increment_test(bundle, 8, 16, 16)

    # calibrate a multiplicative drift at the later node so the most
    # detectable bin sits at exactly 5 of its own standard errors
    zs = np.ascontiguousarray(bundle.z[:, 8])
    zt = np.ascontiguousarray(bundle.z[:, 16])
    edges = np.quantile(zs, np.linspace(0.0, 1.0, 17)[1:-1])
    idx = np.searchsorted(edges, zs, side="right")
    d = zt - zs
    ratios = []
    for b in range(16):
        inside = idx == b
        db = d[inside]
        se = db.std(ddof=1) / math.sqrt(db.size)
        ratios.append(se / zt[inside].mean())
    z = bundle.z.copy()
    z[:, 16] *= 1.0 + 5.0 * min(ratios)
    biased_bundle = PathBundle(
        grid=bundle.grid,
        n_paths=bundle.n_paths,
        increments=bundle.increments,
        ito=bundle.ito,
        z=z,
        quad_var=bundle.quad_var,
        scheme=bundle.scheme,
        seed=bundle.seed,
        antithetic=bundle.antithetic,
    )
    biased = martingale_increment_test(biased_bundle, 8, 16, 16)
    ok = clean.passed and not biased.passed
    verdict(10, "binned increment test passes clean paths and catches a 5 SE drift", ok)


def test_criterion_11_deterministic_reports(tmp_path):
    config = {
        "psi": {"kind": "constant", "params": [1.0]},
        "horizon": 1.0,
        "steps": 8,
        "n_paths": 20_000,
        "seed": 12,
        "p_values": [2.0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    report_path = tmp_path / "out" / "report.json"

    codes = [main(["estimate", "--config", str(cfg_path), "--workers", "1"])]
    first = report_path.read_bytes()
    codes.append(main(["estimate", "--config", str(cfg_path), "--workers", "1"]))
    second = report_path.read_bytes()
    codes.append(main(["estimate", "--config", str(cfg_path), "--workers", "8"]))
    eight = report_path.read_bytes()

    # 300k rows span two sampler slices, so eight workers run the thread pool
    grid = TimeGrid.uniform(1.0, 2)
    serial, pooled = (stoch_exp_exact(UNIT, grid, 300_000, SeedSpec(12), workers=w) for w in (1, 8))
    api_same = estimate_mean_z(serial, 2) == estimate_mean_z(pooled, 2)
    ok = codes == [0, 0, 0] and first == second == eight and api_same
    verdict(11, "reports are byte-identical across reruns and worker counts", ok)
