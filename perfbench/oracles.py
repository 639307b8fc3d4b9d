"""Output oracles, derived here from first principles and the documented formats.

Each check returns a list of problems; an empty list means the output is
correct.  Nothing here imports ddse, numpy or scipy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

#: Absolute quadrature tolerance the program documents for qv (DEFAULT_TOL).
QV_TOL = 1e-9
#: Closed-form targets are recomputed here in another summation order.
REL_TOL = 1e-12

# paths.bin header: magic, version, scheme, antithetic, pad, seed, stream,
# n_paths, n_nodes; then t, qv, increments, ito, z as little-endian doubles.
_BIN_HEADER = struct.Struct("<4sBBBBQQQQ")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """RFC 8259 JSON: NaN and Infinity tokens are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def double_factorial(n: int) -> int:
    return 1 if n <= 0 else n * double_factorial(n - 2)


def left_endpoint_qv(c: float, rate: float, horizon: float, steps: int) -> float:
    """qv_N = sum_{i<N} f(t_i)^2 dt for f(u) = c exp(-rate u) on a uniform grid."""
    dt = horizon / steps
    return math.fsum((c * math.exp(-rate * i * dt)) ** 2 * dt for i in range(steps))


def piecewise_linear_qv(knots) -> float:
    """Exact integral of f^2 for f linear between knots: sum h (a^2 + ab + b^2) / 3."""
    return math.fsum(
        (t1 - t0) * (a * a + a * b + b * b) / 3.0
        for (t0, a), (t1, b) in zip(knots, knots[1:])
    )


def _close(a, b) -> bool:
    return isinstance(a, float) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _parse(text: str, what: str, problems: list):
    try:
        return strict_json(text)
    except ValueError as exc:
        problems.append(f"{what} is not strict JSON: {exc}")
        return None


def check_estimate_report(text, exit_code, psi_params, horizon, steps, p_values) -> list[str]:
    problems: list[str] = []
    doc = _parse(text, "report.json", problems)
    if doc is None:
        return problems
    qv_n = left_endpoint_qv(*psi_params, horizon, steps)
    moments = doc.get("p_moments", [])
    if len(moments) != len(p_values):
        problems.append(f"{len(moments)} p_moments for {len(p_values)} requested orders")
    for p, moment in zip(p_values, moments):
        target = math.exp(0.5 * p * (p - 1.0) * qv_n)
        if not _close(moment.get("target"), target):
            problems.append(f"p={p:g} target {moment.get('target')!r}, oracle {target!r}")
    if doc.get("all_pass") is not (exit_code == 0):
        problems.append(f"all_pass={doc.get('all_pass')!r} disagrees with exit code {exit_code}")
    return problems


def estimate_verdicts(text: str) -> list[bool]:
    """The verdicts that decide estimate's exit code, in report order."""
    doc = strict_json(text)
    verdicts = [doc["mean_z"]["pass"]] + [m["pass"] for m in doc["p_moments"]]
    if doc["increment_test"] is not None:
        verdicts.append(doc["increment_test"]["pass"])
    verdicts += [scan["statistical_pass"] for scan in doc["scans"]]
    return verdicts


def _file_sha256(path: str, chunk: int = 1 << 20):
    """(sha256, newline count) of a file, read in chunks."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(chunk):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def binary_increments_sha256(path: str, n_paths: int, steps: int):
    """(problems, sha256 of the increment block) read straight from paths.bin."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _BIN_HEADER.size:
        return [f"{path}: {len(blob)} bytes, shorter than its header"], None
    magic, version, _scheme, _anti, _pad, _seed, _stream, rows, nodes = _BIN_HEADER.unpack_from(blob)
    problems = []
    if magic != b"DDSE" or version != 1:
        problems.append(f"{path}: header magic {magic!r} version {version}")
    if (rows, nodes) != (n_paths, steps + 1):
        problems.append(f"{path}: header says {rows} paths x {nodes} nodes")
    expected = _BIN_HEADER.size + 8 * (2 * nodes + rows * (nodes - 1) + 2 * rows * nodes)
    if len(blob) != expected:
        problems.append(f"{path}: {len(blob)} bytes, header implies {expected}")
    if problems:
        return problems, None
    start = _BIN_HEADER.size + 16 * nodes
    return [], hashlib.sha256(blob[start : start + 8 * rows * (nodes - 1)]).hexdigest()


def check_simulate_outputs(out_dir: str, n_paths: int, steps: int):
    """(problems, digest of all output bytes) for one simulate call."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        manifest_bytes = fh.read()
    manifest = _parse(manifest_bytes.decode(), "manifest.json", problems) or {}
    bin_problems, increments_sha = binary_increments_sha256(
        os.path.join(out_dir, "paths.bin"), n_paths, steps
    )
    problems += bin_problems
    if increments_sha is not None and manifest.get("increments_sha256") != increments_sha:
        problems.append(
            f"manifest increments_sha256 {manifest.get('increments_sha256')} != {increments_sha}"
            " hashed from paths.bin"
        )
    csv_sha, csv_lines = _file_sha256(os.path.join(out_dir, "paths.csv"))
    if csv_lines != n_paths * (steps + 1) + 1:
        problems.append(f"paths.csv has {csv_lines} lines, expected {n_paths * (steps + 1) + 1}")
    bin_sha, _ = _file_sha256(os.path.join(out_dir, "paths.bin"))
    digest = hashlib.sha256(
        (csv_sha + bin_sha + hashlib.sha256(manifest_bytes).hexdigest()).encode()
    ).hexdigest()
    return problems, digest


def check_novikov(outcome, kind: str, exit_code: int, exact_half_qv) -> list[str]:
    if outcome["exit"] != exit_code:
        return [f"novikov {kind} exited {outcome['exit']}, expected {exit_code}"]
    problems: list[str] = []
    doc = _parse(outcome["stdout"], f"novikov {kind} output", problems)
    if doc is None:
        return problems
    verdict = "finite" if exit_code == 0 else "divergent"
    if doc.get("verdict") != verdict:
        problems.append(f"novikov {kind} verdict {doc.get('verdict')!r}, expected {verdict}")
    half_qv = doc.get("half_qv")
    if exact_half_qv is not None and not (
        isinstance(half_qv, float) and abs(half_qv - exact_half_qv) <= QV_TOL
    ):
        problems.append(f"novikov {kind} half_qv {half_qv!r}, exact {exact_half_qv!r}")
    return problems


def check_wick(outcome, order: int, exact_half_qv: float) -> list[str]:
    if outcome["exit"] != 0:
        return [f"wick exited {outcome['exit']}, expected 0"]
    problems: list[str] = []
    doc = _parse(outcome["stdout"], "wick output", problems)
    if doc is None:
        return problems
    mgf = dict(doc["mgf"]["orders"])
    cgf = dict(doc["cgf"]["orders"])
    if sorted(mgf) != list(range(order + 1)) or sorted(cgf) != list(range(1, order + 1)):
        return [f"wick orders mgf {sorted(mgf)} cgf {sorted(cgf)} for order {order}"]
    half_qv = cgf[2]
    if not (isinstance(half_qv, float) and abs(half_qv - exact_half_qv) <= QV_TOL):
        problems.append(f"wick cgf order 2 {half_qv!r}, exact half qv {exact_half_qv!r}")
        return problems
    qv = 2.0 * half_qv
    for m in range(order + 1):
        expected = double_factorial(m - 1) * qv ** (m // 2) / math.factorial(m) if m % 2 == 0 else 0.0
        if not (mgf[m] == expected == 0.0 or _close(mgf[m], expected)):
            problems.append(f"mgf term {m} is {mgf[m]!r}, expected {expected!r}")
    for m in range(3, order + 1):
        if not (isinstance(cgf[m], float) and cgf[m] == 0.0):
            problems.append(f"cgf order {m} is {cgf[m]!r}, not exactly 0.0")
    if doc["log_relation"]["pass"] is not True:
        problems.append(f"log relation failed: {doc['log_relation']}")
    return problems
