"""Brownian increment sampling and the exponential sampler built on it.

Randomness contract: a counter-based generator (Philox) keyed by
(seed, stream), with row r of the increment matrix drawn from counter
blocks [r*bpr, (r+1)*bpr) where bpr = ceil(n_cols / 4) and one block
yields four doubles.  A row's values therefore depend only on
(seed, stream, row), never on blocking or worker count, and output is
bit-identical across platforms and thread counts.  Normals come from the
inverse CDF of those uniforms: fixed consumption of one uniform per
normal, unlike rejection samplers whose draw count is data-dependent.

There is one sampling pipeline: ``RowBlocks`` generates rows in fixed
2^14-row blocks (increments, Ito sums and the z of the run's scheme),
optionally on a thread pool; ``exact_z`` builds an Euler block's exact z
for the one caller that reads it.  ``stoch_exp_exact`` and ``stoch_exp_em``
write the blocks into a full PathBundle; a caller that only needs sums,
such as ``ddse estimate``, folds each block as it comes and never holds
the matrices.

A folded block lives in arrays that its thread reuses for every block it
generates (one set per thread, freed when the thread ends), and each step
writes into them in place: a block costs no fresh memory, so the pages are
not given back to the system and faulted in again block after block.  The
same operations run on the same operands, so no value changes.

A folded block's z (and ``exact_z``'s) keeps the (rows, nodes) shape of a
full sampler's rows, but its memory is node-major: it is the transpose of a
C-contiguous (nodes, rows) buffer, so a fold reads each node's values as
one contiguous run and needs no transposed copy.  Shapes, ``tobytes()`` and
the fold contract are those of row-major arrays; ``bundle()`` still writes
row-major matrices."""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .integrand import DivergentIntegralError, IntegrandSpec, TimeGrid, novikov_check

_U64_MAX = 2**64 - 1

# Generator.random can emit exactly 0.0, and ndtri(0) is -inf.  Clamping at
# 2^-54 (half the smallest nonzero output) keeps the normals finite without
# disturbing any other value.
_MIN_UNIFORM = 2.0**-54

# Rows are generated in fixed blocks of this many: twice the verdict layer's
# 8192-value reduction slice, so a block holds whole slices of row values
# and of antithetic pair means.  Blocking bounds memory and the grain of
# parallel tasks; it cannot change a row.
_BLOCK_ROWS = 1 << 14

# write_csv formats this many paths at a time.  Larger chunks buy little
# speed and hold more transient text: with 256-path chunks a 5000-path,
# 33-node `simulate` peaked 2.5 MB (4%) higher.
_CSV_CHUNK_PATHS = 32

# Transposed copies go this many rows at a time.  A whole block at once
# strides through memory at a power-of-two pitch when the step count is a
# power of two: 3.7 ms against 1.0 ms for a 2^14 x 32 block on a Xeon.
_TRANSPOSE_ROWS = 1024

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


class _Scratch(threading.local):
    """Float64 arrays that a thread reuses from one block to the next.

    Every thread sees its own buffers, freed when the thread ends.
    ``take(name, shape)`` gives a C-contiguous array of ``shape`` cut from
    the front of the thread's buffer ``name``, which grows when too small;
    it holds whatever the thread last wrote there.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)


def _copy_transposed(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Copy ``src`` (rows x cols) into ``dst`` (cols x rows) as its transpose; return ``dst``."""
    for start in range(0, src.shape[0], _TRANSPOSE_ROWS):
        np.copyto(dst[:, start : start + _TRANSPOSE_ROWS], src[start : start + _TRANSPOSE_ROWS].T)
    return dst


def _standard_normals(seed: SeedSpec, start: int, stop: int, out: np.ndarray, scratch: _Scratch):
    """Write the standard normals of logical stream rows [start, stop) into ``out``.

    The uniforms are drawn straight into ``out`` when its rows are
    contiguous and a whole number of counter blocks wide, else into
    ``scratch``.
    """
    blocks_per_row = -(-out.shape[1] // 4)
    bitgen = Philox(key=[seed.seed, seed.stream])
    bitgen.advance(start * blocks_per_row)
    if 4 * blocks_per_row == out.shape[1] and out.flags.c_contiguous:
        u = out
    else:
        u = scratch.take("uniforms", (stop - start, 4 * blocks_per_row))
    Generator(bitgen).random(out=u)
    u = u[:, : out.shape[1]]
    np.maximum(u, _MIN_UNIFORM, out=u)
    ndtri(u, out=out)


def _increment_rows(
    grid: TimeGrid, seed: SeedSpec, antithetic: bool, start: int, out: np.ndarray, scratch: _Scratch
):
    """Write the Brownian increments of rows [start, start + len(out)) into ``out``.

    Under ``antithetic`` both ends of the row range are even.
    """
    if antithetic:
        _standard_normals(seed, start // 2, (start + len(out)) // 2, out[0::2], scratch)
        np.negative(out[0::2], out=out[1::2])
    else:
        _standard_normals(seed, start, start + len(out), out, scratch)
    out *= np.sqrt(grid.dt)


def _check_rows(n_paths: int, antithetic: bool):
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic sampling needs an even n_paths")


def _map_blocks(task, n_rows: int, workers: int):
    """task(start, stop) for each block of rows, results yielded in block order.

    On a pool at most 2 * workers blocks are submitted and not yet yielded,
    so a slow consumer holds a bounded number of finished results.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    spans = ((s, min(s + _BLOCK_ROWS, n_rows)) for s in range(0, n_rows, _BLOCK_ROWS))
    if workers <= 1 or n_rows <= _BLOCK_ROWS:
        for span in spans:
            yield task(*span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            in_flight = deque()
            for span in spans:
                if len(in_flight) == 2 * workers:
                    yield in_flight.popleft().result()
                in_flight.append(pool.submit(task, *span))
            while in_flight:
                yield in_flight.popleft().result()


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
    _check_rows(n_paths, antithetic)
    increments = np.empty((n_paths, grid.n_steps))
    scratch = _Scratch()

    def fill(start, stop):
        _increment_rows(grid, seed, antithetic, start, increments[start:stop], scratch)

    for _ in _map_blocks(fill, n_paths, workers):
        pass
    return increments


def ito_integral(spec: IntegrandSpec, increments: np.ndarray, grid: TimeGrid, out=None) -> np.ndarray:
    """Cumulative left-endpoint sums I(t_j) = sum_{i<j} f(t_i) dB_i.

    Shape (n_paths, n_nodes); column 0 is zero.  Left endpoints keep the
    sums non-anticipating, so I(t_j) is exactly Gaussian with the discrete
    variance sum_{i<j} f(t_i)^2 dt_i.  Written into ``out`` when given.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] != grid.n_steps:
        raise ValueError(
            f"increments shape {increments.shape} does not match grid with {grid.n_steps} steps"
        )
    left_values = spec.values(grid.t[:-1])
    ito = np.empty((increments.shape[0], grid.t.size)) if out is None else out
    ito[:, 0] = 0.0
    np.multiply(increments, left_values, out=ito[:, 1:])
    np.cumsum(ito[:, 1:], axis=1, out=ito[:, 1:])
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


class RowBlock(NamedTuple):
    """Consecutive rows of a sample: increments, Ito sums and z of the scheme."""

    increments: np.ndarray
    ito: np.ndarray
    z: np.ndarray


class RowBlocks:
    """A sample of the stochastic exponential, generated in fixed row blocks.

    Each block holds the rows [start, stop) of the increment, Ito-sum and
    z matrices a full sampler would build: the exact z, or with ``euler``
    the Euler-scheme z on the same increments.  Rows depend only on
    (seed, stream, row), so a block is the same whichever blocks come
    before it or run beside it.  Refuses divergent integrands up front.
    """

    def __init__(
        self,
        spec: IntegrandSpec,
        grid: TimeGrid,
        n_paths: int,
        seed: SeedSpec,
        antithetic: bool = False,
        euler: bool = False,
    ):
        _require_finite_novikov(spec, grid)
        _check_rows(n_paths, antithetic)
        self.spec = spec
        self.grid = grid
        self.n_paths = n_paths
        self.seed = seed
        self.antithetic = antithetic
        self.euler = euler
        self.quad_var = discrete_quad_var(spec, grid)
        self.quad_var.setflags(write=False)
        self._scratch = _Scratch()

    def _node_major(self, name: str, rows: int) -> np.ndarray:
        """A (rows, nodes) array of the calling thread, node-major in memory."""
        return self._scratch.take(name, (self.grid.t.size, rows)).T

    def _block(self, start: int, stop: int, out: RowBlock | None = None) -> RowBlock:
        """Rows [start, stop), written into the arrays of ``out`` when given.

        Without ``out`` the rows go into the block arrays the calling thread
        reuses (their leading rows for a short block), which the thread's
        next block overwrites: take what is needed from them before the
        thread generates another block, and keep no reference to them.
        Their shapes are those of a full sampler's rows; z is node-major in
        memory (see the module docstring).  Either layout of ``out`` gets
        the same values.
        """
        if out is None:
            take, rows = self._scratch.take, stop - start
            out = RowBlock(
                take("increments", (rows, self.grid.n_steps)),
                take("ito", (rows, self.grid.t.size)),
                self._node_major("z", rows),
            )
        _increment_rows(self.grid, self.seed, self.antithetic, start, out.increments, self._scratch)
        ito_integral(self.spec, out.increments, self.grid, out=out.ito)
        if not self.euler:
            self.exact_z(out, out.z)
            return out
        # the Euler z is computed on its (nodes, rows) transpose, where each
        # node is a contiguous row of a node-major array
        euler = out.z.T
        euler[0] = 1.0
        steps = _copy_transposed(euler[1:], out.increments)
        np.multiply(steps, self.spec.values(self.grid.t[:-1])[:, None], out=steps)
        np.add(steps, 1.0, out=steps)
        # the running product along the nodes, as cumprod takes it
        for j in range(1, len(steps)):
            np.multiply(steps[j - 1], steps[j], out=steps[j])
        return out

    def exact_z(self, block: RowBlock, out: np.ndarray | None = None) -> np.ndarray:
        """The exact z of a block's rows, from its Ito sums; ``out`` when given.

        Otherwise it is node-major in an array of the calling thread, which
        the thread's next call overwrites: keep no reference to it.
        """
        z = self._node_major("exact_z", len(block.ito)) if out is None else out
        # computed on the (nodes, rows) transpose, like the Euler z
        zt = _copy_transposed(z.T, block.ito)
        np.subtract(zt, 0.5 * self.quad_var[:, None], out=zt)
        np.exp(zt, out=zt)
        return z

    def map(self, fold, workers: int = 1):
        """Yield fold(block) for each row block, in block order.

        With more than one worker the blocks are generated and folded on a
        thread pool.  A block's arrays are reused for the next block its
        thread generates, so ``fold`` must not keep them, nor any view of
        them: it should return fresh reductions, and small ones.  The
        block's z is node-major in memory (see ``_block``).
        """
        return _map_blocks(lambda start, stop: fold(self._block(start, stop)), self.n_paths, workers)

    def bundle(self, workers: int = 1) -> PathBundle:
        """All rows as one PathBundle, of the Euler z when ``euler``."""
        n_nodes = self.grid.t.size
        increments = np.empty((self.n_paths, self.grid.n_steps))
        ito = np.empty((self.n_paths, n_nodes))
        z = np.empty((self.n_paths, n_nodes))

        def fill(start, stop):
            # each block writes straight into its rows of the full matrices
            rows = slice(start, stop)
            self._block(start, stop, RowBlock(increments[rows], ito[rows], z[rows]))

        for _ in _map_blocks(fill, self.n_paths, workers):
            pass
        return PathBundle(
            grid=self.grid,
            n_paths=self.n_paths,
            increments=increments,
            ito=ito,
            z=z,
            quad_var=self.quad_var,
            scheme="em" if self.euler else "exact",
            seed=self.seed,
            antithetic=self.antithetic,
            nonpositive_count=int(np.count_nonzero(z <= 0.0)) if self.euler else 0,
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
    return RowBlocks(spec, grid, n_paths, seed, antithetic).bundle(workers)


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
    return RowBlocks(spec, grid, n_paths, seed, antithetic, euler=True).bundle(workers)


# ---------------------------------------------------------------------------
# export


def increments_checksum(bundle: PathBundle) -> str:
    """SHA-256 of the increment matrix as row-major little-endian doubles."""
    return hashlib.sha256(np.ascontiguousarray(bundle.increments, dtype="<f8").data).hexdigest()


def write_csv(bundle: PathBundle, path):
    """Columnar dump, one row per (path, node): path_id,node_index,t,B,I,Z.

    Floats use the shortest round-trip decimal form, so re-reading
    reproduces the doubles bit-for-bit and golden files are stable.  That
    form is Python's float repr, which numpy's float64 str also gives.
    Paths are formatted a few at a time, from one list of floats per
    column, and B is summed from the increments of those paths only.
    """
    n_nodes = bundle.n_nodes
    leads = [f",{j},{t!r}," for j, t in enumerate(bundle.grid.t.tolist())]
    brownian = np.empty((min(_CSV_CHUNK_PATHS, bundle.n_paths), n_nodes))
    brownian[:, 0] = 0.0
    with open(path, "w", newline="") as fh:
        fh.write("path_id,node_index,t,B,I,Z\n")
        for start in range(0, bundle.n_paths, _CSV_CHUNK_PATHS):
            stop = min(start + _CSV_CHUNK_PATHS, bundle.n_paths)
            chunk_b = brownian[: stop - start]
            np.cumsum(bundle.increments[start:stop], axis=1, out=chunk_b[:, 1:])
            heads = [f"{p}{lead}" for p in range(start, stop) for lead in leads]
            b_text, i_text, z_text = (
                map(repr, c.ravel().tolist()) for c in (chunk_b, bundle.ito[start:stop], bundle.z[start:stop])
            )
            fh.write("".join([f"{h}{b},{i},{z}\n" for h, b, i, z in zip(heads, b_text, i_text, z_text)]))


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
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


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
