"""Sampling contracts: determinism, coupling, marginal laws, export formats."""

import hashlib
import math
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ddse import paths
from ddse.estimators import drift_expectation_check
from ddse.integrand import DivergentIntegralError, IntegrandSpec, TimeGrid
from ddse.paths import (
    PathBundle,
    SeedSpec,
    discrete_quad_var,
    increments_checksum,
    ito_integral,
    read_binary,
    sample_brownian,
    stoch_exp_em,
    stoch_exp_exact,
    write_binary,
    write_csv,
)

UNIT = IntegrandSpec.constant(1.0)
ZERO = IntegrandSpec.constant(0.0)

# 4 sigma / sqrt(n) for the 1e6-draw mean check at dt = 1
MEAN_TOL = 4.0e-3
VAR_RTOL = 0.01

SEED = SeedSpec(1234)


def reference_write_csv(bundle, path):
    """The per-cell writer that write_csv replaced, kept as its byte oracle."""
    b = bundle.brownian()
    t_text = [str(float(v)) for v in bundle.grid.t]
    with open(path, "w", newline="") as fh:
        fh.write("path_id,node_index,t,B,I,Z\n")
        for p in range(bundle.n_paths):
            for j in range(bundle.n_nodes):
                fh.write(f"{p},{j},{t_text[j]},{b[p, j]!s},{bundle.ito[p, j]!s},{bundle.z[p, j]!s}\n")


class TestSeedSpec:
    def test_accepts_u64_range(self):
        SeedSpec(0, 2**64 - 1)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -3), (1.5, 0)])
    def test_rejects_out_of_range(self, seed, stream):
        with pytest.raises(ValueError):
            SeedSpec(seed, stream)


class TestSampleBrownian:
    def test_mean_zero_at_unit_step(self):
        grid = TimeGrid.uniform(1.0, 1)
        draws = sample_brownian(grid, 1_000_000, SEED)
        assert abs(float(draws.mean())) <= MEAN_TOL

    def test_variance_matches_step(self):
        grid = TimeGrid.uniform(0.25, 1)
        draws = sample_brownian(grid, 1_000_000, SEED)
        assert float(draws.var()) == pytest.approx(0.25, rel=VAR_RTOL)

    def test_bit_identical_reruns(self):
        grid = TimeGrid.uniform(1.0, 5)
        a = sample_brownian(grid, 300, SEED)
        b = sample_brownian(grid, 300, SEED)
        assert np.array_equal(a, b)

    def test_worker_count_invisible(self):
        grid = TimeGrid.uniform(1.0, 9)
        base = sample_brownian(grid, 4000, SEED)
        for workers in (2, 3, 8):
            assert np.array_equal(sample_brownian(grid, 4000, SEED, workers=workers), base)
        # above 2^14 rows the sampler splits into row blocks and, with more
        # than one worker, runs them on its thread pool
        grid = TimeGrid.uniform(1.0, 1)
        for antithetic in (False, True):
            one = sample_brownian(grid, 600_000, SEED, antithetic=antithetic, workers=1)
            three = sample_brownian(grid, 600_000, SEED, antithetic=antithetic, workers=3)
            assert one.tobytes() == three.tobytes()

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_row_blocking_invisible(self, monkeypatch, antithetic):
        # blocks of 6 rows give the bytes that 2^14-row blocks give
        grid = TimeGrid.uniform(1.0, 5)
        exact = stoch_exp_exact(UNIT, grid, 100, SEED, antithetic=antithetic)
        euler = stoch_exp_em(UNIT, grid, 100, SEED, antithetic=antithetic)
        monkeypatch.setattr(paths, "_BLOCK_ROWS", 6)
        for sampler, bundle in ((stoch_exp_exact, exact), (stoch_exp_em, euler)):
            for workers in (1, 3):
                small = sampler(UNIT, grid, 100, SEED, antithetic=antithetic, workers=workers)
                for name in ("increments", "ito", "z"):
                    assert getattr(small, name).tobytes() == getattr(bundle, name).tobytes()
                assert small.nonpositive_count == bundle.nonpositive_count
        assert sample_brownian(grid, 100, SEED, antithetic=antithetic).tobytes() == exact.increments.tobytes()

    def test_streams_and_seeds_differ(self):
        grid = TimeGrid.uniform(1.0, 4)
        a = sample_brownian(grid, 50, SeedSpec(1, 0))
        assert not np.array_equal(a, sample_brownian(grid, 50, SeedSpec(1, 1)))
        assert not np.array_equal(a, sample_brownian(grid, 50, SeedSpec(2, 0)))

    def test_prefix_stability_in_n_paths(self):
        # row r depends only on (seed, stream, r), so a taller matrix
        # starts with the shorter one
        grid = TimeGrid.uniform(1.0, 3)
        small = sample_brownian(grid, 10, SEED)
        tall = sample_brownian(grid, 25, SEED)
        assert np.array_equal(tall[:10], small)

    def test_antithetic_mirrors_pairs(self):
        grid = TimeGrid.uniform(1.0, 6)
        draws = sample_brownian(grid, 400, SEED, antithetic=True)
        assert np.array_equal(draws[0::2], -draws[1::2])
        # even rows replay the plain stream
        assert np.array_equal(draws[0::2], sample_brownian(grid, 200, SEED))

    def test_antithetic_needs_even_count(self):
        with pytest.raises(ValueError, match="even"):
            sample_brownian(TimeGrid.uniform(1.0, 2), 5, SEED, antithetic=True)

    def test_argument_validation(self):
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError):
            sample_brownian(grid, 0, SEED)
        with pytest.raises(ValueError):
            sample_brownian(grid, 4, SEED, workers=0)


class TestMapBlocks:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_keeps_a_bounded_window_in_block_order(self, monkeypatch, workers):
        # a slow consumer lets the pool run ahead as far as it may; blocks
        # started but not yet consumed must stay within 2 * workers
        monkeypatch.setattr(paths, "_BLOCK_ROWS", 4)
        lock = threading.Lock()
        started = []

        def task(start, stop):
            with lock:
                started.append(start)
            return start, stop

        seen, peak = [], 0
        for span in paths._map_blocks(task, 4 * 40 + 3, workers):
            seen.append(span)
            time.sleep(0.002)
            with lock:
                peak = max(peak, len(started) - len(seen))
        assert seen == [(s, min(s + 4, 163)) for s in range(0, 163, 4)]
        assert sorted(started) == [s for s, _ in seen]
        assert peak <= 2 * workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spans_are_generated_lazily(self, workers):
        # 2^30 rows are 65,536 blocks; a list of their spans would take
        # several MB before the first block ran, a generator takes none
        tracemalloc.start()
        try:
            blocks = paths._map_blocks(lambda start, stop: None, 2**30, workers)
            before = tracemalloc.get_traced_memory()[0]
            next(blocks)
            grown = tracemalloc.get_traced_memory()[0] - before
            blocks.close()
        finally:
            tracemalloc.stop()
        assert grown < 100_000


class TestRowBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("steps", [5, 8])
    @pytest.mark.parametrize(
        "antithetic,euler", [(False, False), (True, False), (False, True)], ids=["plain", "antithetic", "euler"]
    )
    def test_fold_sees_its_own_block_in_reused_arrays(self, monkeypatch, workers, steps, antithetic, euler):
        # map writes each block into arrays its thread reuses; a fold that
        # dawdles must still see its own rows, not those of a block another
        # thread, or its own thread's next block, wrote into the same arrays.
        # An Euler fold also builds the exact z of its rows, in an array its
        # thread reuses too.  5 steps draw the uniforms through scratch, 8
        # straight into the block
        rows = 8
        monkeypatch.setattr(paths, "_BLOCK_ROWS", rows)
        n_paths = 7 * rows + 2
        grid = TimeGrid.uniform(1.0, steps)
        blocks = paths.RowBlocks(UNIT, grid, n_paths, SEED, antithetic=antithetic, euler=euler)

        def digests(block):
            arrays = [*block, blocks.exact_z(block)] if euler else block
            return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]

        def fold(block):
            time.sleep(0.003)
            return digests(block)

        fresh = []
        for start in range(0, n_paths, rows):
            shape = (min(rows, n_paths - start), steps + 1)
            out = paths.RowBlock(np.empty((shape[0], steps)), np.empty(shape), np.empty(shape))
            fresh.append(digests(blocks._block(start, start + shape[0], out=out)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            folded = list(blocks.map(fold, workers))
        finally:
            sys.setswitchinterval(interval)
        assert folded == fresh
        if euler:
            # the Euler z and the exact z of the same rows differ
            assert all(digest[2] != digest[3] for digest in fresh)

    def test_folded_z_is_node_major(self):
        # a folded block's z, and the exact z an Euler fold builds, keep the
        # (rows, nodes) shape, but each node's values are one contiguous run,
        # so a fold needs no transpose
        grid = TimeGrid.uniform(1.0, 8)
        blocks = paths.RowBlocks(UNIT, grid, 20_000, SEED, euler=True)

        def layout(block):
            return [(z.shape, np.transpose(z).flags.c_contiguous) for z in (block.z, blocks.exact_z(block))]

        rows = [paths._BLOCK_ROWS, 20_000 - paths._BLOCK_ROWS]
        assert list(blocks.map(layout)) == [[((n, 9), True)] * 2 for n in rows]


class TestItoIntegral:
    def test_zero_integrand_zero_integral(self):
        grid = TimeGrid.uniform(1.0, 8)
        ito = ito_integral(ZERO, sample_brownian(grid, 100, SEED), grid)
        assert not ito.any()
        assert ito.shape == (100, 9)

    def test_unit_integrand_variance(self):
        grid = TimeGrid.uniform(1.0, 4)
        ito = ito_integral(UNIT, sample_brownian(grid, 1_000_000, SEED), grid)
        assert float(ito[:, -1].var()) == pytest.approx(1.0, rel=VAR_RTOL)

    def test_identity_integrand_discrete_variance(self):
        # 1e5 paths keep the fine grid inside memory; the variance
        # estimator's own relative error is sqrt(2/n) ~ 0.45%
        n_steps, horizon = 1000, 1.0
        grid = TimeGrid.uniform(horizon, n_steps)
        spec = IntegrandSpec.polynomial([0.0, 1.0])
        ito = ito_integral(spec, sample_brownian(grid, 100_000, SEED), grid)
        # independent left-endpoint oracle, plain python accumulation
        dt = horizon / n_steps
        oracle = sum((j * dt) ** 2 * dt for j in range(n_steps))
        assert float(ito[:, -1].var()) == pytest.approx(oracle, rel=VAR_RTOL)

    def test_starts_at_zero_and_left_endpoints(self):
        grid = TimeGrid.uniform(1.0, 2)
        increments = np.array([[1.0, 1.0]])
        spec = IntegrandSpec.polynomial([0.0, 1.0])
        ito = ito_integral(spec, increments, grid)
        # contributions are f(0)*dB_0 and f(0.5)*dB_1
        assert ito.tolist() == [[0.0, 0.0, 0.5]]

    def test_shape_mismatch_rejected(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="does not match grid"):
            ito_integral(UNIT, np.zeros((5, 3)), grid)

    def test_singular_grid_point_raises_domain_error(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 0.5)
        grid = TimeGrid.uniform(1.0, 2)  # left endpoints 0, 0.5 hit the pole
        increments = np.zeros((3, 2))
        from ddse.integrand import IntegrandDomainError

        with pytest.raises(IntegrandDomainError):
            ito_integral(spec, increments, grid)


class TestDiscreteQuadVar:
    def test_left_endpoint_sums(self):
        grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
        spec = IntegrandSpec.polynomial([0.0, 1.0])
        got = discrete_quad_var(spec, grid)
        assert got.tolist() == [0.0, 0.0, 0.0 + 0.25**2 * 0.75]

    def test_constant_reproduces_nodes(self):
        grid = TimeGrid.uniform(1.0, 16)
        assert discrete_quad_var(UNIT, grid) == pytest.approx(grid.t, abs=1e-15)


class TestStochExpExact:
    def test_zero_integrand_all_ones(self):
        bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(1.0, 4), 50, SEED)
        assert np.array_equal(bundle.z, np.ones((50, 5)))

    def test_initial_node_and_positivity(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), 5000, SEED)
        assert np.array_equal(bundle.z[:, 0], np.ones(5000))
        assert np.array_equal(bundle.ito[:, 0], np.zeros(5000))
        assert np.all(bundle.z > 0.0)
        assert bundle.nonpositive_count == 0

    def test_mean_z_close_to_one(self):
        n = 100_000
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), n, SEED)
        se_oracle = math.sqrt((math.e - 1.0) / n)
        assert abs(float(bundle.z[:, -1].mean()) - 1.0) <= 3.0 * se_oracle

    def test_mean_log_z_is_minus_half_qv(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 16), 1_000_000, SeedSpec(8080))
        assert abs(float(np.log(bundle.z[:, -1]).mean()) + 0.5) <= 3.0e-3

    def test_marginal_law_kolmogorov_smirnov(self):
        # log z + qv/2 must be Normal(0, qv) at every node
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), 100_000, SeedSpec(31337))
        for node in (4, 8):
            qv = float(bundle.quad_var[node])
            sample = np.log(bundle.z[:, node]) + 0.5 * qv
            result = stats.kstest(sample, "norm", args=(0.0, math.sqrt(qv)))
            assert result.pvalue > 1e-3, f"node {node}: KS p-value {result.pvalue}"

    def test_divergent_integrand_refused(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 0.5)
        with pytest.raises(DivergentIntegralError):
            stoch_exp_exact(spec, TimeGrid.uniform(1.0, 4), 10, SEED)

    def test_pure_function_of_inputs(self):
        grid = TimeGrid.uniform(1.0, 6)
        a = stoch_exp_exact(UNIT, grid, 100, SEED)
        b = stoch_exp_exact(UNIT, grid, 100, SEED, workers=4)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.increments, b.increments)

    def test_bundle_arrays_immutable(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 2), 10, SEED)
        with pytest.raises(ValueError):
            bundle.z[0, 0] = 2.0


class TestStochExpEM:
    def test_zero_integrand_all_ones(self):
        bundle = stoch_exp_em(ZERO, TimeGrid.uniform(1.0, 4), 20, SEED)
        assert np.array_equal(bundle.z, np.ones((20, 5)))

    def test_shares_increments_with_exact(self):
        grid = TimeGrid.uniform(1.0, 8)
        exact = stoch_exp_exact(UNIT, grid, 500, SEED)
        euler = stoch_exp_em(UNIT, grid, 500, SEED)
        assert increments_checksum(exact) == increments_checksum(euler)
        assert np.array_equal(exact.increments, euler.increments)

    def test_recursion_definition(self):
        grid = TimeGrid.uniform(1.0, 3)
        bundle = stoch_exp_em(UNIT, grid, 40, SEED)
        z = np.ones(40)
        for j in range(3):
            z = z * (1.0 + bundle.increments[:, j])
            assert np.array_equal(bundle.z[:, j + 1], z)

    def test_unbiased_for_mean_even_on_coarse_grid(self):
        n = 200_000
        bundle = stoch_exp_em(UNIT, TimeGrid.uniform(1.0, 4), n, SeedSpec(2024))
        # E prod(1 + dB_j) = 1; variance of the product is bounded by e - 1 here
        se_bound = math.sqrt((math.e - 1.0) / n)
        assert abs(float(bundle.z[:, -1].mean()) - 1.0) <= 3.0 * se_bound
        # coarse grids really do go nonpositive, and the values stay in z
        assert bundle.nonpositive_count > 0
        assert float(bundle.z.min()) < 0.0

    def test_strong_convergence_toward_exact(self):
        gaps = []
        for n_steps in (16, 64, 256):
            grid = TimeGrid.uniform(1.0, n_steps)
            exact = stoch_exp_exact(UNIT, grid, 20_000, SeedSpec(5150))
            euler = stoch_exp_em(UNIT, grid, 20_000, SeedSpec(5150))
            gaps.append(float(np.mean((euler.z[:, -1] - exact.z[:, -1]) ** 2)))
        assert gaps[0] > gaps[1] > gaps[2], f"mean-square gaps not decreasing: {gaps}"


class TestGbmDrift:
    """The drifted process x(t) = x0 exp(alpha t) z(t) on a noise-free bundle.

    Its horizon value is formed by `drift_expectation_check`; with psi = 0
    every path is the deterministic solution of dx = alpha x dt.
    """

    def test_constant_when_driftless_and_noiseless(self):
        bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(1.0, 4), 300, SEED)
        assert np.array_equal(bundle.z, np.ones((300, 5)))
        report = drift_expectation_check(bundle, 0.0, 2.0)
        assert report.target == 2.0
        assert report.estimate == 2.0
        assert report.std_error == 0.0
        assert report.passed

    def test_deterministic_decay_solution(self):
        bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(2.0, 4), 250, SEED)
        report = drift_expectation_check(bundle, -1.0, 3.0)
        oracle = 3.0 * math.exp(-2.0)
        assert report.target == pytest.approx(oracle, rel=1e-15)
        assert report.estimate == pytest.approx(oracle, rel=1e-15)
        assert report.passed


class TestExport:
    @pytest.fixture()
    def bundle(self):
        return stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 3), 4, SeedSpec(9))

    def test_csv_layout_and_round_trip(self, bundle, tmp_path):
        out = tmp_path / "paths.csv"
        write_csv(bundle, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,node_index,t,B,I,Z"
        assert len(lines) == 1 + 4 * 4
        brownian = bundle.brownian()
        row = lines[1 + 2 * 4 + 3].split(",")  # path 2, node 3
        assert (int(row[0]), int(row[1])) == (2, 3)
        assert float(row[2]) == bundle.grid.t[3]
        assert float(row[3]) == brownian[2, 3]
        assert float(row[4]) == bundle.ito[2, 3]
        assert float(row[5]) == bundle.z[2, 3]

    def test_zero_integrand_csv_unit_column(self, tmp_path):
        bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(1.0, 4), 2, SEED)
        out = tmp_path / "paths.csv"
        write_csv(bundle, out)
        for line in out.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] == "1.0"

    @pytest.mark.parametrize("n_paths", [1, 31, 32, 33, 257])
    @pytest.mark.parametrize(
        "sampler,antithetic", [(stoch_exp_exact, False), (stoch_exp_em, False), (stoch_exp_exact, True)]
    )
    def test_csv_bytes_match_per_cell_writer(self, tmp_path, n_paths, sampler, antithetic):
        # chunk edges fall at multiples of 32 paths
        if antithetic and n_paths % 2:
            n_paths += 1
        spec, grid = IntegrandSpec.exponential_decay(1.0, 0.5), TimeGrid.uniform(1.0, 7)
        bundle = sampler(spec, grid, n_paths, SEED, antithetic)
        write_csv(bundle, tmp_path / "new.csv")
        reference_write_csv(bundle, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize(
        "sampler,spec",
        [
            # z falls far below 1e-4, where its text turns to exponent form
            (stoch_exp_exact, IntegrandSpec.constant(40.0)),
            # coarse Euler steps with a large integrand go nonpositive
            (stoch_exp_em, IntegrandSpec.constant(3.0)),
        ],
    )
    def test_csv_bytes_match_per_cell_writer_at_extremes(self, tmp_path, sampler, spec):
        bundle = sampler(spec, TimeGrid.uniform(1.0, 4), 70, SEED)
        write_csv(bundle, tmp_path / "new.csv")
        reference_write_csv(bundle, tmp_path / "old.csv")
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "old.csv").read_text()
        if sampler is stoch_exp_em:
            assert bundle.nonpositive_count > 0
        else:
            assert any("e-" in line.rsplit(",", 1)[1] for line in text.splitlines())

    @settings(max_examples=2000, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_float_repr_is_numpy_str(self, bits):
        # write_csv formats Python floats; the per-cell writer formatted
        # numpy scalars: every double, NaNs, infinities, signed zeros and
        # subnormals included, must give the same text
        (x,) = struct.unpack("<d", struct.pack("<Q", bits))
        assert repr(x) == str(np.float64(x))

    @pytest.mark.parametrize(
        "x", [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e16, 1e-5]
    )
    def test_float_repr_is_numpy_str_at_special_values(self, x):
        assert repr(float(x)) == str(np.float64(x))

    def test_binary_round_trip(self, bundle, tmp_path):
        out = tmp_path / "paths.bin"
        write_binary(bundle, out)
        again = read_binary(out)
        assert np.array_equal(again.grid.t, bundle.grid.t)
        assert np.array_equal(again.increments, bundle.increments)
        assert np.array_equal(again.ito, bundle.ito)
        assert np.array_equal(again.z, bundle.z)
        assert np.array_equal(again.quad_var, bundle.quad_var)
        assert (again.scheme, again.seed, again.antithetic) == ("exact", bundle.seed, False)

    def test_binary_magic_and_truncation_guarded(self, bundle, tmp_path):
        out = tmp_path / "paths.bin"
        write_binary(bundle, out)
        blob = out.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            read_binary(bad)
        short = tmp_path / "short.bin"
        short.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_binary(short)

    def test_checksum_tracks_increment_stream(self, bundle):
        other_seed = stoch_exp_exact(UNIT, bundle.grid, 4, SeedSpec(10))
        assert increments_checksum(bundle) != increments_checksum(other_seed)
        euler = stoch_exp_em(UNIT, bundle.grid, 4, SeedSpec(9))
        assert increments_checksum(bundle) == increments_checksum(euler)


class TestPathBundleValidation:
    def test_scheme_checked(self):
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError, match="unknown scheme"):
            PathBundle(
                grid=grid,
                n_paths=1,
                increments=np.zeros((1, 2)),
                ito=np.zeros((1, 3)),
                z=np.ones((1, 3)),
                quad_var=np.zeros(3),
                scheme="milstein",
                seed=SEED,
            )
