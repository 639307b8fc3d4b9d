"""Command-line frontend: novikov / simulate / estimate / wick.

Exit codes are a contract: 0 success, 1 a statistical check failed,
2 the integrand fails the finiteness (Novikov) gate, 64 configuration or
usage error.  Nothing else is returned.  Every output file is written
through a temp-file-plus-rename so a crash can never leave a partial or
stray file, and they contain no timestamps or environment detail: re-running an unchanged
config reproduces them byte for byte.  Output is plain text; NO_COLOR
holds trivially because no escape codes are ever emitted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .estimators import _INCREMENT_MIN_PATHS, IncrementBins, NodeMoments, reports_to_csv
from .integrand import DivergentIntegralError, IntegrandSpec, TimeGrid, novikov_check
from .paths import (
    SCHEMES,
    RowBlocks,
    SeedSpec,
    increments_checksum,
    stoch_exp_em,
    stoch_exp_exact,
    write_binary,
    write_csv,
)
from .wick import MAX_ENUM_ORDER, cgf_truncated, check_log_relation, mgf_truncated

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_DIVERGENT = 2
EXIT_CONFIG = 64

FORMATS = ("json", "csv")

_CONFIG_FIELDS = (
    "psi",
    "horizon",
    "steps",
    "n_paths",
    "seed",
    "scheme",
    "antithetic",
    "p_values",
    "output_dir",
    "format",
)


class ConfigError(ValueError):
    """Bad configuration or usage; always maps to exit code 64."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: the integrand plus sampling and output choices."""

    psi: IntegrandSpec = field(default_factory=lambda: IntegrandSpec.constant(1.0))
    horizon: float = 1.0
    steps: int = 32
    n_paths: int = 100_000
    seed: int = 1
    scheme: str = "exact"
    antithetic: bool = False
    p_values: tuple[float, ...] = (2.0,)
    output_dir: str = "."
    format: str = "json"

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        if any(not p > 0 for p in self.p_values):
            raise ConfigError("p_values must all be positive")

    def to_json_dict(self) -> dict:
        return {
            "psi": self.psi.to_json_dict(),
            "horizon": self.horizon,
            "steps": self.steps,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "scheme": self.scheme,
            "antithetic": self.antithetic,
            "p_values": list(self.p_values),
            "output_dir": self.output_dir,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        kwargs = {}
        if "psi" in doc:
            try:
                kwargs["psi"] = IntegrandSpec.from_json_dict(doc["psi"])
            except ValueError as exc:
                raise ConfigError(f"field 'psi': {exc}") from exc
        for name, kind in (
            ("horizon", float),
            ("steps", int),
            ("n_paths", int),
            ("seed", int),
            ("scheme", str),
            ("output_dir", str),
            ("format", str),
        ):
            if name in doc:
                value = doc[name]
                if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
                    kwargs[name] = float(value)
                elif kind is int and isinstance(value, int) and not isinstance(value, bool):
                    kwargs[name] = value
                elif kind is str and isinstance(value, str):
                    kwargs[name] = value
                else:
                    raise ConfigError(f"field {name!r} must be of type {kind.__name__}")
        if "antithetic" in doc:
            if not isinstance(doc["antithetic"], bool):
                raise ConfigError("field 'antithetic' must be a boolean")
            kwargs["antithetic"] = doc["antithetic"]
        if "p_values" in doc:
            values = doc["p_values"]
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError("field 'p_values' must be a non-empty list of reals")
            for v in values:
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ConfigError("field 'p_values' must contain only reals")
            kwargs["p_values"] = tuple(float(v) for v in values)
        return cls(**kwargs)

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.horizon, self.steps)

    @property
    def seed_spec(self) -> SeedSpec:
        return SeedSpec(self.seed, 0)


def _load_config(args) -> RunConfig:
    doc = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {args.config} is not valid JSON: {exc.msg}"
                f" (line {exc.lineno}, column {exc.colno})"
            ) from exc
    config = RunConfig.from_dict(doc)
    # override flags are stored under the RunConfig field they replace
    overrides = {k: getattr(args, k) for k in _CONFIG_FIELDS if getattr(args, k, None) is not None}
    if overrides:
        config = RunConfig.from_dict({**config.to_json_dict(), **overrides})
    return config


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@contextlib.contextmanager
def _atomic_path(path: str):
    """Yield a temp path beside ``path``, renamed over it if the block succeeds.

    If the block raises, the temp file is removed and ``path`` is untouched.
    An OSError on the way is a ConfigError naming ``path``.
    """
    tmp = None
    try:
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
        os.close(fd)
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def _write_atomic(path: str, text: str):
    with _atomic_path(path) as tmp, open(tmp, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_novikov(config: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    report = novikov_check(config.psi, config.horizon)
    out.write(_dump_json(report.to_json_dict()))
    return EXIT_OK if report.verdict == "finite" else EXIT_DIVERGENT


def _build_bundle(config: RunConfig, workers: int):
    sampler = stoch_exp_exact if config.scheme == "exact" else stoch_exp_em
    return sampler(
        config.psi,
        config.grid,
        config.n_paths,
        config.seed_spec,
        antithetic=config.antithetic,
        workers=workers,
    )


def cmd_simulate(config: RunConfig, workers: int = 1, out=None) -> int:
    out = sys.stdout if out is None else out
    bundle = _build_bundle(config, workers)
    with _atomic_path(os.path.join(config.output_dir, "paths.csv")) as tmp:
        write_csv(bundle, tmp)
    with _atomic_path(os.path.join(config.output_dir, "paths.bin")) as tmp:
        write_binary(bundle, tmp)
    manifest = {
        "seed": config.seed,
        "stream": 0,
        "scheme": config.scheme,
        "antithetic": config.antithetic,
        "n_paths": config.n_paths,
        "steps": config.steps,
        "horizon": config.horizon,
        "increments_sha256": increments_checksum(bundle),
        "nonpositive_count": bundle.nonpositive_count,
        "files": {"csv": "paths.csv", "binary": "paths.bin"},
    }
    text = _dump_json(manifest)
    _write_atomic(os.path.join(config.output_dir, "manifest.json"), text)
    out.write(text)
    return EXIT_OK


def _nearest_node(grid: TimeGrid, when: float) -> int:
    return int(np.argmin(np.abs(grid.t - when)))


def cmd_estimate(config: RunConfig, workers: int = 1, out=None) -> int:
    out = sys.stdout if out is None else out
    euler = config.scheme == "em"
    rows = RowBlocks(
        config.psi, config.grid, config.n_paths, config.seed_spec, antithetic=config.antithetic, euler=euler
    )
    grid, qv = rows.grid, rows.quad_var
    horizon_index = grid.t.size - 1
    scan_ps = [p for p in config.p_values if p > 1]
    # every verdict is a mean, so each row block is folded into per-node
    # moments as it is generated and no path matrix is ever held
    moments = NodeMoments(grid, qv, config.n_paths, config.p_values, config.antithetic)
    # the moment profile is a law of the exact exponential: an Euler run
    # that scans also builds and folds the exact z of the same rows, right
    # after its Euler z and so in the same per-thread fold buffers
    fold_exact = euler and bool(scan_ps)
    exact_moments = moments
    if fold_exact:
        exact_moments = NodeMoments(grid, qv, config.n_paths, scan_ps, config.antithetic, moments.scratch)
    bins = None
    if config.n_paths >= _INCREMENT_MIN_PATHS:
        s_index = min(_nearest_node(grid, 0.5 * config.horizon), horizon_index - 1)
        bins = IncrementBins(grid, qv, config.n_paths, s_index, horizon_index)

    def fold(block):
        return (
            moments.partials(block.z),
            exact_moments.partials(rows.exact_z(block)) if fold_exact else None,
            None if bins is None else bins.partials(block.ito, block.z),
            int(np.count_nonzero(block.z <= 0.0)) if euler else 0,
        )

    for node_part, exact_part, bin_part, nonpositive in rows.map(fold, workers):
        moments.merge(node_part)
        moments.nonpositive_count += nonpositive
        if fold_exact:
            exact_moments.merge(exact_part)
        if bins is not None:
            bins.merge(bin_part)

    mean_report = moments.mean_z(horizon_index)
    moment_reports = [moments.p_moment(horizon_index, p) for p in config.p_values]
    # every check of the report, in report order: all_pass, the exit code
    # and the rows of report.csv all come from this one list
    checks = [mean_report, *moment_reports]
    doc: dict = {
        "config": config.to_json_dict(),
        "mean_z": mean_report.to_json_dict(),
        "p_moments": [r.to_json_dict() for r in moment_reports],
        "notes": [],
    }

    if bins is not None:
        increment = bins.report()
        doc["increment_test"] = increment.to_json_dict()
        checks.extend(increment.checks)
    else:
        doc["increment_test"] = None
        doc["notes"].append(f"increment test skipped: needs at least {_INCREMENT_MIN_PATHS} paths")

    scans = [exact_moments.scan(p) for p in scan_ps]
    # exit status tracks the statistical comparisons; a flat closed-form
    # profile (monotone_pass false for psi = 0) is data, not a failure
    for scan in scans:
        checks.extend(scan.reports)
    doc["scans"] = [s.to_json_dict() for s in scans]
    doc["all_pass"] = all(c.passed for c in checks)

    if config.format == "json":
        report_path = os.path.join(config.output_dir, "report.json")
        _write_atomic(report_path, _dump_json(doc))
    else:
        report_path = os.path.join(config.output_dir, "report.csv")
        _write_atomic(report_path, reports_to_csv(checks))
    out.write(f"report written to {report_path}; all_pass={str(doc['all_pass']).lower()}\n")
    return EXIT_OK if doc["all_pass"] else EXIT_STAT_FAIL


def cmd_wick(config: RunConfig, order: int, out=None) -> int:
    out = sys.stdout if out is None else out
    if order % 2 or not 2 <= order <= MAX_ENUM_ORDER:
        raise ConfigError(f"--order must be an even integer in [2, {MAX_ENUM_ORDER}], got {order}")
    t = config.horizon
    doc = {
        "mgf": mgf_truncated(config.psi, t, order).to_json_dict(),
        "cgf": cgf_truncated(config.psi, t, order).to_json_dict(),
        "log_relation": check_log_relation(config.psi, t, order).to_json_dict(),
    }
    out.write(_dump_json(doc))
    return EXIT_OK if doc["log_relation"]["pass"] else EXIT_STAT_FAIL


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # divergence code; route everything through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ddse", description="Stochastic-exponential verification lab")
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override: root seed (u64)")
    common.add_argument("--n-paths", dest="n_paths", type=int, help="override: number of paths")
    common.add_argument("--steps", type=int, help="override: time steps")
    common.add_argument("--horizon", type=float, help="override: terminal time")
    common.add_argument("--scheme", choices=SCHEMES, help="override: sampling scheme")
    common.add_argument("--format", choices=FORMATS, help="override: report format")
    common.add_argument("--out", dest="output_dir", help="override: output directory")
    common.add_argument("--workers", type=int, default=1, help="sampling threads (output-invariant)")

    sub.add_parser("novikov", parents=[common], help="finiteness check of the exponent's variance")
    sub.add_parser("simulate", parents=[common], help="sample paths and write CSV/binary bundles")
    est = sub.add_parser("estimate", parents=[common], help="run the statistical verdict suite")
    est.add_argument(
        "--p", dest="p_values", type=float, action="append", help="override: moment order (repeatable)"
    )
    wick = sub.add_parser("wick", parents=[common], help="moment/cumulant series and log relation")
    wick.add_argument("--order", type=int, default=14, help=f"series truncation order (even, 2..{MAX_ENUM_ORDER})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a subcommand is required: novikov, simulate, estimate, or wick")
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = _load_config(args)
        if args.command == "novikov":
            return cmd_novikov(config)
        if args.command == "simulate":
            return cmd_simulate(config, workers=args.workers)
        if args.command == "estimate":
            return cmd_estimate(config, workers=args.workers)
        return cmd_wick(config, order=args.order)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergentIntegralError as exc:
        print(f"divergent: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
