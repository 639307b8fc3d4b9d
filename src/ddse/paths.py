"""Brownian increment sampling and the exponential sampler built on it.

Randomness contract: a counter-based generator (Philox) keyed by
(seed, stream), with row r of the increment matrix drawn from counter
blocks [r*bpr, (r+1)*bpr) where bpr = ceil(n_cols / 4) and one block
yields four doubles.  A row's values therefore depend only on
(seed, stream, row), never on chunking or worker count, and output is
bit-identical across platforms and thread counts.  Normals come from the
inverse CDF of those uniforms: fixed consumption of one uniform per
normal, unlike rejection samplers whose draw count is data-dependent.
"""

from __future__ import annotations

import hashlib
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .integrand import DivergentIntegralError, IntegrandSpec, TimeGrid, novikov_check

_U64_MAX = 2**64 - 1

# Generator.random can emit exactly 0.0, and ndtri(0) is -inf.  Clamping at
# 2^-54 (half the smallest nonzero output) keeps the normals finite without
# disturbing any other value.
_MIN_UNIFORM = 2.0**-54

# Rows are generated in fixed slices of this size; the slicing only bounds
# peak memory and parallel task grain, it cannot change the output.
_ROW_CHUNK = 1 << 18

SCHEMES = ("exact", "em")
_BINARY_MAGIC = b"DDSE"
_BINARY_VERSION = 1


@dataclass(frozen=True)
class SeedSpec:
    """Root key for path generation: 64-bit seed plus a batch stream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= _U64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")


def _fill_standard_normals(target: np.ndarray, seed: SeedSpec, workers: int):
    """Fill ``target`` (rows x cols, any strides) with standard normals.

    Row i of ``target`` is logical row i of the (seed, stream) stream.
    """
    n_rows, n_cols = target.shape
    blocks_per_row = -(-n_cols // 4)

    def run(start: int, stop: int):
        bitgen = Philox(key=[seed.seed, seed.stream])
        bitgen.advance(start * blocks_per_row)
        u = Generator(bitgen).random((stop - start, 4 * blocks_per_row))[:, :n_cols]
        np.maximum(u, _MIN_UNIFORM, out=u)
        target[start:stop] = ndtri(u)

    spans = [(s, min(s + _ROW_CHUNK, n_rows)) for s in range(0, n_rows, _ROW_CHUNK)]
    if workers <= 1 or len(spans) == 1:
        for start, stop in spans:
            run(start, stop)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda span: run(*span), spans))


def sample_brownian(
    grid: TimeGrid,
    n_paths: int,
    seed: SeedSpec,
    antithetic: bool = False,
    workers: int = 1,
) -> np.ndarray:
    """Matrix of Brownian increments, shape (n_paths, n_steps).

    Entry (p, i) ~ Normal(0, dt_i), rows independent.  With ``antithetic``
    the rows come in mirrored pairs (2k, 2k+1) sharing logical stream row k;
    n_paths must then be even.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    increments = np.empty((n_paths, grid.n_steps))
    if antithetic:
        if n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")
        base = increments[0::2]
        _fill_standard_normals(base, seed, workers)
        np.negative(base, out=increments[1::2])
    else:
        _fill_standard_normals(increments, seed, workers)
    increments *= np.sqrt(grid.dt)
    return increments


def ito_integral(spec: IntegrandSpec, increments: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative left-endpoint sums I(t_j) = sum_{i<j} f(t_i) dB_i.

    Shape (n_paths, n_nodes); column 0 is zero.  Left endpoints keep the
    sums non-anticipating, so I(t_j) is exactly Gaussian with the discrete
    variance sum_{i<j} f(t_i)^2 dt_i.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] != grid.n_steps:
        raise ValueError(
            f"increments shape {increments.shape} does not match grid with {grid.n_steps} steps"
        )
    left_values = spec.values(grid.t[:-1])
    ito = np.empty((increments.shape[0], grid.t.size))
    ito[:, 0] = 0.0
    np.cumsum(increments * left_values, axis=1, out=ito[:, 1:])
    return ito


def discrete_quad_var(spec: IntegrandSpec, grid: TimeGrid) -> np.ndarray:
    """Discrete compensator at each node: qv_N(t_j) = sum_{i<j} f(t_i)^2 dt_i.

    This is the true variance of the discrete Ito sums, which is what makes
    the exact sampler's mean exactly one at every node for any step count.
    """
    qv = np.empty(grid.t.size)
    qv[0] = 0.0
    np.cumsum(spec.square_values(grid.t[:-1]) * grid.dt, out=qv[1:])
    return qv


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated paths on a shared grid, immutable after construction.

    ``increments`` is (n_paths, n_steps); ``ito`` and ``z`` are
    (n_paths, n_nodes) with ito[:, 0] = 0 and z[:, 0] = 1.  ``quad_var``
    is the discrete compensator vector used in the exponent.  The exact
    scheme keeps z strictly positive; the Euler scheme can go nonpositive
    on coarse grids and records how many entries did.
    """

    grid: TimeGrid
    n_paths: int
    increments: np.ndarray
    ito: np.ndarray
    z: np.ndarray
    quad_var: np.ndarray
    scheme: str
    seed: SeedSpec
    antithetic: bool = False
    nonpositive_count: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        for name in ("increments", "ito", "z", "quad_var"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.grid.t.size

    def brownian(self) -> np.ndarray:
        """Cumulative Brownian values B(t_j), shape (n_paths, n_nodes)."""
        b = np.empty((self.n_paths, self.n_nodes))
        b[:, 0] = 0.0
        np.cumsum(self.increments, axis=1, out=b[:, 1:])
        return b


def _require_finite_novikov(spec: IntegrandSpec, grid: TimeGrid):
    report = novikov_check(spec, grid.horizon)
    if report.verdict != "finite":
        where = (
            f" (first cap crossing near t = {report.first_excess_time:g})"
            if report.first_excess_time is not None
            else ""
        )
        raise DivergentIntegralError(
            f"refusing to sample: accumulated squared integrand diverges before the"
            f" horizon {grid.horizon:g}{where}",
            first_excess_time=report.first_excess_time,
        )


def stoch_exp_exact(
    spec: IntegrandSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: SeedSpec,
    antithetic: bool = False,
    workers: int = 1,
) -> PathBundle:
    """Sample z(t_j) = exp(I(t_j) - qv_N(t_j)/2) from the exact marginal law.

    Because the compensator is the discrete variance of I, E z = 1 holds
    exactly at every node and every step count, not just in the fine-grid
    limit.  Refuses divergent integrands up front.
    """
    _require_finite_novikov(spec, grid)
    increments = sample_brownian(grid, n_paths, seed, antithetic=antithetic, workers=workers)
    ito = ito_integral(spec, increments, grid)
    qv = discrete_quad_var(spec, grid)
    z = np.exp(ito - 0.5 * qv)
    return PathBundle(
        grid=grid,
        n_paths=n_paths,
        increments=increments,
        ito=ito,
        z=z,
        quad_var=qv,
        scheme="exact",
        seed=seed,
        antithetic=antithetic,
    )


def stoch_exp_em(
    spec: IntegrandSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: SeedSpec,
    antithetic: bool = False,
    workers: int = 1,
) -> PathBundle:
    """Euler scheme z_{j+1} = z_j (1 + f(t_j) dB_j), coupled to the exact sampler.

    Shares the increment stream with stoch_exp_exact under equal seeds, so
    the two schemes can be compared pathwise.  Negative excursions are the
    scheme's true output and are kept (clamping would bias the mean); the
    bundle records how many entries were nonpositive.
    """
    _require_finite_novikov(spec, grid)
    increments = sample_brownian(grid, n_paths, seed, antithetic=antithetic, workers=workers)
    ito = ito_integral(spec, increments, grid)
    qv = discrete_quad_var(spec, grid)
    z = np.empty((n_paths, grid.t.size))
    z[:, 0] = 1.0
    np.cumprod(1.0 + increments * spec.values(grid.t[:-1]), axis=1, out=z[:, 1:])
    return PathBundle(
        grid=grid,
        n_paths=n_paths,
        increments=increments,
        ito=ito,
        z=z,
        quad_var=qv,
        scheme="em",
        seed=seed,
        antithetic=antithetic,
        nonpositive_count=int(np.count_nonzero(z <= 0.0)),
    )


# ---------------------------------------------------------------------------
# export


def increments_checksum(bundle: PathBundle) -> str:
    """SHA-256 of the increment matrix as row-major little-endian doubles."""
    data = np.ascontiguousarray(bundle.increments, dtype="<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()


def write_csv(bundle: PathBundle, path):
    """Columnar dump, one row per (path, node): path_id,node_index,t,B,I,Z.

    Floats use the shortest round-trip decimal form, so re-reading
    reproduces the doubles bit-for-bit and golden files are stable.
    """
    b = bundle.brownian()
    t_text = [str(float(v)) for v in bundle.grid.t]
    with open(path, "w", newline="") as fh:
        fh.write("path_id,node_index,t,B,I,Z\n")
        for p in range(bundle.n_paths):
            for j in range(bundle.n_nodes):
                fh.write(
                    f"{p},{j},{t_text[j]},{b[p, j]!s},{bundle.ito[p, j]!s},{bundle.z[p, j]!s}\n"
                )


_HEADER = struct.Struct("<4sBBBBQQQQ")


def write_binary(bundle: PathBundle, path):
    """Compact dump: fixed header then grid, quad_var, increments, ito, z.

    All floats little-endian 64-bit, matrices row-major.  CSV remains the
    canonical format; this exists for cheap reloads.
    """
    header = _HEADER.pack(
        _BINARY_MAGIC,
        _BINARY_VERSION,
        SCHEMES.index(bundle.scheme),
        int(bundle.antithetic),
        0,
        bundle.seed.seed,
        bundle.seed.stream,
        bundle.n_paths,
        bundle.n_nodes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (bundle.grid.t, bundle.quad_var, bundle.increments, bundle.ito, bundle.z):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_binary(path) -> PathBundle:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != _BINARY_MAGIC:
        raise ValueError(f"{path}: not a path-bundle binary (bad magic)")
    magic, version, scheme_code, antithetic, _pad, seed, stream, n_paths, n_nodes = _HEADER.unpack_from(blob)
    if version != _BINARY_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if scheme_code >= len(SCHEMES):
        raise ValueError(f"{path}: unknown scheme code {scheme_code}")
    counts = (n_nodes, n_nodes, n_paths * (n_nodes - 1), n_paths * n_nodes, n_paths * n_nodes)
    expected = _HEADER.size + 8 * sum(counts)
    if len(blob) != expected:
        raise ValueError(f"{path}: truncated bundle ({len(blob)} bytes, expected {expected})")
    arrays = []
    offset = _HEADER.size
    for count in counts:
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(np.float64))
        offset += 8 * count
    t, qv, increments, ito, z = arrays
    z = z.reshape(n_paths, n_nodes)
    return PathBundle(
        grid=TimeGrid(t),
        n_paths=n_paths,
        increments=increments.reshape(n_paths, n_nodes - 1),
        ito=ito.reshape(n_paths, n_nodes),
        z=z,
        quad_var=qv,
        scheme=SCHEMES[scheme_code],
        seed=SeedSpec(seed, stream),
        antithetic=bool(antithetic),
        nonpositive_count=int(np.count_nonzero(z <= 0.0)),
    )
