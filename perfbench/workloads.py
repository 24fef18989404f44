"""The operations of one benchmark pass, the inputs they are built from, and
the checks of their outputs.

Every operation is one ``conecond`` command line, run in-process through
``conecond.cli.main``.  Each check compares the command's report with a value
this program does not compute: the analytic conductivity
``sum_l Q_l,jj / (16 sqrt(det Q_l))`` of the model's cones (1/16 per
isotropic cone), the analytic cone count, or a property the method must have
(exit code, convergence flag, the ``verify`` suite's own verdicts).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 20261018

ETA_SEQ = "0.2,0.1,0.05,0.025,0.0125"
CLOSED_TOL = 1e-3          # absolute, the acceptance suite's closed-form gate
HONEYCOMB_KUBO_TOL = 0.02  # relative, acceptance criterion 02
CHECKER_KUBO_TOL = 0.03    # relative, acceptance criterion 03
T2 = 0.1                   # next-nearest hopping of every Haldane model


@dataclass
class Outcome:
    """What one operation gave: whether every check held, the relative
    deviations of the conductivities it computed from their references, and
    why it failed (``error`` names an exception that escaped ``main``)."""

    ok: bool
    deviations: list = field(default_factory=list)
    reason: str = ""
    error: str | None = None


@dataclass
class Operation:
    """One command line and the check of its result.

    ``known_fault`` names the exception type the operation raises today
    because of a documented program fault; that failure still counts as
    failed, but leaves the run's ``correct`` flag true.
    """

    name: str
    argv: list
    check: Callable[[int, dict | None, str], Outcome]
    known_fault: str | None = None


def run_operation(op: Operation, main) -> Outcome:
    """Run one command through ``main`` with its output captured, and check it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except Exception as exc:  # an escaping exception is a failed operation
        return Outcome(False, reason=f"{type(exc).__name__}: {exc}",
                       error=type(exc).__name__)
    text = out.getvalue()
    try:
        report = json.loads(text) if text.strip() else None
    except ValueError:
        return Outcome(False, reason="report is not valid JSON")
    return op.check(code, report, err.getvalue())


def is_expected(op: Operation, outcome: Outcome) -> bool:
    """True when the operation passed, or failed exactly by its known fault."""
    return outcome.ok or (op.known_fault is not None and outcome.error == op.known_fault)


# -- checks ---------------------------------------------------------------------

def _sigma_deviations(report: dict, refs: dict, tol: float, relative: bool):
    """(deviations, failure reason or "") of report["sigma"] against refs."""
    devs, bad = [], []
    sigma = report.get("sigma") or {}
    for key, ref in refs.items():
        value = sigma.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"sigma{key} missing")
            continue
        err = abs(value - ref)
        devs.append(err / ref)
        if not err <= (tol * ref if relative else tol):
            bad.append(f"sigma{key} = {value!r}, reference {ref!r}")
    return devs, "; ".join(bad)


def _common(code: int, report: dict | None, cones: int) -> str:
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report"
    if report.get("cones") != cones:
        return f"{report.get('cones')} cones, expected {cones}"
    return ""


def closed_check(cones: int, refs: dict):
    """``sigma --method closed``: exit 0, the analytic cone count, and every
    sigma within CLOSED_TOL (absolute) of its analytic value."""

    def check(code, report, stderr):
        reason = _common(code, report, cones)
        if reason:
            return Outcome(False, reason=reason)
        devs, reason = _sigma_deviations(report, refs, CLOSED_TOL, relative=False)
        return Outcome(not reason, devs, reason)

    return check


def not_conical_check(code, report, stderr):
    """A critically tilted cone is refused with exit 4 and a typed NotConical."""
    if code == 4 and "NotConical" in stderr:
        return Outcome(True)
    return Outcome(False, reason=f"exit code {code}, stderr {stderr.strip()!r}")


def kubo_check(cones: int, refs: dict, tol: float):
    """``sigma --method kubo``: exit 0, the analytic cone count, every
    direction converged, and every sigma within ``tol`` (relative)."""

    def check(code, report, stderr):
        reason = _common(code, report, cones)
        if reason:
            return Outcome(False, reason=reason)
        converged = report.get("converged") or {}
        if set(converged) != set(refs) or not all(v is True for v in converged.values()):
            return Outcome(False, reason=f"converged: {converged}")
        devs, reason = _sigma_deviations(report, refs, tol, relative=True)
        return Outcome(not reason, devs, reason)

    return check


def verify_check(cones: int):
    """``verify``: exit 0, all_pass, the analytic cone count; the deviation
    is the suite's own closed-form-vs-Kubo discrepancy."""

    def check(code, report, stderr):
        reason = _common(code, report, cones)
        if reason:
            return Outcome(False, reason=reason)
        if report.get("all_pass") is not True:
            return Outcome(False, reason="all_pass is not true")
        by_name = {c.get("name"): c for c in report.get("checks", [])}
        disc = by_name.get("closed_vs_kubo", {}).get("discrepancy")
        if not isinstance(disc, (int, float)) or not math.isfinite(disc):
            return Outcome(False, reason="closed_vs_kubo discrepancy missing")
        return Outcome(True, [disc])

    return check


# -- inputs ---------------------------------------------------------------------

_S0 = ((1, 0), (0, 1))
_S1 = ((0, 1), (1, 0))
_S2 = ((0, -1j), (1j, 0))
_S3 = ((1, 0), (0, -1))


def _combo(*terms):
    """sum of coefficient * Pauli matrix, as the model file's [re, im] pairs"""
    out = []
    for a in range(2):
        row = []
        for b in range(2):
            z = complex(sum(c * m[a][b] for c, m in terms))
            row.append([z.real, z.imag])
        out.append(row)
    return out


def tilted_qwz(u: float, v1: float, v2: float, tau: float) -> dict:
    """``preset_qwz(u, v1, v2)`` plus ``tau sin(k1)`` times the identity, in
    the model-file schema of ``conecond.model_from_dict`` (the partners at
    negative cells are completed by the loader)."""
    return {
        "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
        "orbitals": [[0.0, 0.0], [0.0, 0.0]],
        "fermi_energy": 0.0,
        "hoppings": [
            {"cell": [0, 0], "matrix": _combo((u, _S3))},
            {"cell": [1, 0], "matrix": _combo((0.5, _S3), (-0.5j * v1, _S1),
                                              (-0.5j * tau, _S0))},
            {"cell": [0, 1], "matrix": _combo((0.5, _S3), (-0.5j * v2, _S2))},
        ],
    }


def _params(**kw) -> str:
    return ",".join(f"{k}={v!r}" for k, v in kw.items())


def _velocities(rng: random.Random) -> tuple:
    """(v1, v2) with ratio log-uniform in (1/3, 3) and the smaller one 1."""
    rho = 3.0 ** rng.uniform(-1.0, 1.0)
    return (rho, 1.0) if rho >= 1.0 else (1.0, 1.0 / rho)


def _qwz_refs(v1: float, v2: float, cones: int) -> dict:
    return {"11": cones * v1 / (16.0 * v2), "22": cones * v2 / (16.0 * v1)}


def closed_sweep(seed: int, workdir: str) -> list:
    """17 ``sigma --method closed`` runs: 16 conical models, 11 of them drawn
    from ``seed``, and the exactly critical tilted cone."""
    rng = random.Random(seed)
    ops = []

    def closed(name, model_args, cones, refs, check=None, known_fault=None):
        argv = ["sigma", *model_args, "--method", "closed"]
        ops.append(Operation(name, argv, check or closed_check(cones, refs), known_fault))

    # Haldane critical line M = 3 sqrt(3) t2 sin(phi): one isotropic cone
    for i in range(4):
        phi = rng.choice((-1.0, 1.0)) * rng.uniform(math.pi / 6, 5 * math.pi / 6)
        M = 3.0 * math.sqrt(3.0) * T2 * math.sin(phi)
        closed(f"haldane_line_{i}", ["--preset", "haldane", "--params",
                                     _params(t1=1.0, t2=T2, phi=phi, M=M)],
               1, {"11": 1 / 16, "22": 1 / 16})
    # honeycomb at phi = M = 0: two isotropic cones
    for t2 in (0.0, T2):
        closed(f"honeycomb_t2_{t2:g}", ["--preset", "haldane", "--params",
                                        _params(t1=1.0, t2=t2, phi=0.0, M=0.0)],
               2, {"11": 1 / 8, "22": 1 / 8})
    # QWZ at u = +-2: one anisotropic cone.  The ratio-3 model is fixed: the
    # closed form's error grows with the anisotropy, so the largest deviation
    # of a pass does not depend on the seed.
    qwz = [(-2.0, 1.0, 3.0)] + [(rng.choice((-2.0, 2.0)), *_velocities(rng))
                                for _ in range(3)]
    for i, (u, v1, v2) in enumerate(qwz):
        closed(f"qwz_cone_{i}", ["--preset", "qwz", "--params", _params(u=u, v1=v1, v2=v2)],
               1, _qwz_refs(v1, v2, 1))
    # QWZ at u = 0: two cones
    for i in range(2):
        v1, v2 = _velocities(rng)
        closed(f"qwz_u0_{i}", ["--preset", "qwz", "--params", _params(u=0.0, v1=v1, v2=v2)],
               2, _qwz_refs(v1, v2, 2))

    # tilted QWZ, built from a model file: a subcritical tilt leaves sigma as is
    def model_file(name, data):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return ["--model", path]

    for i in range(4):
        u = rng.choice((-2.0, 2.0))
        v1, v2 = _velocities(rng)
        tau = rng.uniform(0.1, 0.9) * min(v1, v2)
        name = f"qwz_tilt_{i}"
        closed(name, model_file(name, tilted_qwz(u, v1, v2, tau)), 1, _qwz_refs(v1, v2, 1))
    # the exactly critical tilt |tilt| = sqrt(min eig Q) must be refused with
    # exit 4; today FermiPoint raises a bare ValueError that escapes main
    closed("qwz_tilt_critical", model_file("qwz_tilt_critical", tilted_qwz(-2.0, 1.0, 1.0, 1.0)),
           1, None, check=not_conical_check, known_fault="ValueError")
    return ops


def kubo_cones(seed: int, workdir: str) -> list:
    """``sigma --method kubo`` on the critical honeycomb and the anisotropic
    checkerboard (acceptance criteria 02 and 03); fixed models."""
    tail = ["--method", "kubo", "--directions", "11,22", "--eta-seq", ETA_SEQ]
    return [
        Operation("honeycomb_kubo",
                  ["sigma", "--preset", "haldane", "--params",
                   _params(t1=1.0, t2=T2, phi=0.0, M=0.0), *tail],
                  kubo_check(2, {"11": 1 / 8, "22": 1 / 8}, HONEYCOMB_KUBO_TOL)),
        Operation("checkerboard_kubo",
                  ["sigma", "--preset", "qwz", "--params", _params(u=-2.0, v1=2.0, v2=1.0), *tail],
                  kubo_check(1, {"11": 1 / 8, "22": 1 / 32}, CHECKER_KUBO_TOL)),
    ]


def verify_critical(seed: int, workdir: str) -> list:
    """``verify`` on the critical Haldane model with one cone; fixed model."""
    params = _params(t1=1.0, t2=T2, phi=math.pi / 2, M=3.0 * math.sqrt(3.0) * T2)
    return [Operation("haldane_critical_verify",
                      ["verify", "--preset", "haldane", "--params", params,
                       "--eta-seq", ETA_SEQ],
                      verify_check(1))]


BUILDERS = {
    "closed_sweep": closed_sweep,
    "kubo_cones": kubo_cones,
    "verify_critical": verify_critical,
}
