"""Command-line interface: model validation, band structure export,
Fermi-point reports, conductivity runs, and the identity-verification suite.

Output conventions
------------------
* JSON for machine-readable reports, CSV for sequences, SVG for band plots.
* All physical values are in natural units (e = hbar = 1); every JSON
  payload carries a ``units`` note saying so.
* JSON is byte-deterministic for identical configuration: field order is
  fixed by construction order and floats are written with 17 significant
  digits ('%.17g'), so identical runs produce identical bytes.

Exit codes: 0 ok; 1 configuration error; 2 validation/verification failure;
3 conductivity sequence not converged (report still emitted); 4 numerical
error, any bloch.NumericalError (degeneracies, unresolvable grids,
non-conical crossings, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bloch import (
    HoppingConflict,
    HoppingModel,
    ModelFormatError,
    NumericalError,
    _eigvals,
    covariance_defect,
    load_model,
    preset_haldane,
    preset_qwz,
)
from .cones import (
    characterize_cones,
    check_cone_condition,
    find_fermi_points,
    fit_cone,
    is_quantizing,
)
from .kubo import (
    GridPolicy,
    NotConverged,
    _cone_pass,
    _eta_sweep,
    _sweep_etas,
    _unconverged,
    closed_form_report,
    default_eta_sequence,
    sigma_kubo,
)
# verify sums f_jl, ftilde_jj and the Schwinger term in the fine passes of
# check (e)'s eta sweep, kubo._eta_sweep, and f_sing and zeta in one
# kubo._cone_pass; the public wrappers stay importable here because
# perfbench/spans.py wraps them at this module
from .kubo import fjj_sing, fjl_eta, ftilde_jj, schwinger, zeta_jj  # noqa: F401
from .lattice import wrap_fractional

__all__ = ["ConfigParse", "RunConfig", "main"]

UNITS_NOTE = "natural units (e = hbar = 1)"
#: the largest --grid: the Fermi-point scan holds its grid^2 points at once,
#: at a peak of 80 (QWZ) to 136 (Haldane) bytes each, so 4096^2 = 2^24
#: points take 1.3-2.3 GB, and larger sizes must be refused before anything
#: is allocated
_MAX_GRID = 4096
#: the largest --samples: 1e5 per segment of the default path already makes
#: a 27 MB CSV, far more than the 800-pixel-wide SVG can show
_MAX_SAMPLES = 100_000


class ConfigParse(ValueError):
    """Command line / configuration could not be parsed or is out of range."""


# -- deterministic serialization ----------------------------------------------

def _json_value(v, indent: int) -> str:
    pad = "  " * indent
    if isinstance(v, bool):                      # bool before int: bool is int
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not np.isfinite(f):
            raise ValueError("non-finite value in JSON report")
        return "%.17g" % f
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_value(val, indent + 1)}'
            for k, val in v.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not len(v):
            return "[]"
        items = ",\n".join(
            f"{pad}  {_json_value(val, indent + 1)}" for val in v
        )
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def json_report(payload: dict) -> str:
    """Serialize with fixed field order and '%.17g' floats (byte-stable)."""
    return _json_value(payload, 0) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- configuration -------------------------------------------------------------

_PRESETS = {
    "haldane": (preset_haldane, {"t1": 1.0, "t2": 0.1, "phi": 0.0, "M": 0.0}),
    "qwz": (preset_qwz, {"u": -2.0, "v1": 1.0, "v2": 1.0}),
}


@dataclass
class RunConfig:
    """Validated run options shared by the commands."""

    model: HoppingModel
    model_label: str
    grid: int = 96
    eta_seq: list | None = None
    eps: float | None = None
    directions: tuple = ((1, 1), (2, 2))
    method: str = "closed"
    path: list | None = None
    samples: int = 64
    out: str | None = None
    svg: str | None = None
    csv: str | None = None

    def __post_init__(self):
        if not 8 <= self.grid <= _MAX_GRID:
            raise ConfigParse(f"--grid must be between 8 and {_MAX_GRID}")
        if not 2 <= self.samples <= _MAX_SAMPLES:
            raise ConfigParse(f"--samples must be between 2 and {_MAX_SAMPLES}")
        if self.eps is not None and not 0 < self.eps < np.inf:
            raise ConfigParse("--eps must be positive and finite")
        if self.eta_seq is not None:
            try:
                _sweep_etas(self.model, self.eta_seq)
            except ValueError as exc:
                raise ConfigParse(f"--eta-seq: {exc}") from exc
        if self.method == "closed" and any(j != l for j, l in self.directions):
            raise ConfigParse("--method closed covers only the directions 11 and 22")
        if self.method == "closed" and self.csv is not None:
            raise ConfigParse("--csv holds the Kubo sigma_hat sequence; "
                              "--method closed has none")
        if self.method == "kubo" and self.csv is None and self.out:
            # the sigma_hat CSV goes next to the JSON report by default
            self.csv = os.path.splitext(self.out)[0] + ".csv"
        if self.csv is not None and self.csv == self.out:
            raise ConfigParse(f"the sigma_hat CSV would overwrite the JSON report "
                              f"{self.out!r}; give --csv another path")


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigParse(f"--params entry {item!r} is not key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigParse(f"--params value for {key!r} is not a number") from exc
        if not np.isfinite(out[key]):
            raise ConfigParse(f"--params value for {key!r} is not finite")
    return out


def _parse_eta_seq(text: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigParse("--eta-seq must be comma-separated numbers") from exc


def _parse_directions(text: str) -> tuple:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if item not in ("11", "22", "12", "21"):
            raise ConfigParse(
                f"--directions entry {item!r} must be one of 11, 22, 12, 21"
            )
        pairs.append((int(item[0]), int(item[1])))
    return tuple(pairs)


def _parse_path(text: str) -> list:
    waypoints = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigParse(f"--path waypoint {chunk!r} is not 'f1,f2'")
        try:
            waypoints.append(np.array([float(parts[0]), float(parts[1])]))
        except ValueError as exc:
            raise ConfigParse(f"--path waypoint {chunk!r} is not numeric") from exc
    if len(waypoints) < 2:
        raise ConfigParse("--path needs at least two waypoints")
    if not np.isfinite(waypoints).all():
        raise ConfigParse("--path waypoints must be finite")
    if all(np.array_equal(w, waypoints[0]) for w in waypoints):
        raise ConfigParse("--path has zero length")
    return waypoints


def _param_text(value: float) -> str:
    """A preset parameter as it is labelled: the short ``:g`` text when it
    reads back as the same float, else the round-tripping repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _build_model(args) -> tuple:
    if bool(args.model) == bool(args.preset):
        raise ConfigParse("specify exactly one of --model FILE or --preset NAME")
    if args.model:
        return load_model(args.model), f"file:{args.model}"
    name = args.preset.lower()
    if name not in _PRESETS:
        raise ConfigParse(
            f"unknown preset {args.preset!r} (available: {', '.join(sorted(_PRESETS))})"
        )
    factory, defaults = _PRESETS[name]
    params = dict(defaults)
    overrides = _parse_params(args.params)
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigParse(
            f"unknown parameter(s) {sorted(unknown)} for preset {name!r} "
            f"(accepted: {sorted(defaults)})"
        )
    params.update(overrides)
    label = f"preset:{name}(" + ",".join(
        f"{k}={_param_text(params[k])}" for k in defaults
    ) + ")"
    try:
        return factory(**params), label
    except ValueError as exc:
        raise ConfigParse(f"preset {name!r}: {exc}") from exc


def _config_from_args(args) -> RunConfig:
    """RunConfig from parsed arguments.  Options left out take RunConfig's
    own defaults; an option given, even empty, is parsed."""
    model, label = _build_model(args)
    opts = dict(vars(args), model=model, model_label=label)
    for name, parse in (("eta_seq", _parse_eta_seq), ("directions", _parse_directions),
                        ("path", _parse_path)):
        if name in opts:
            opts[name] = parse(opts[name])
    return RunConfig(**{f.name: opts[f.name] for f in fields(RunConfig) if f.name in opts})


# -- validate ------------------------------------------------------------------

def _run_validation_checks(model: HoppingModel) -> list:
    checks = []
    rng = np.random.default_rng(7)
    ks = rng.uniform(-0.5, 0.5, size=(100, 2)) @ model.lattice.dual_matrix.T

    H = model.h_batch(ks)
    herm = float(
        max(np.linalg.norm(h - h.conj().T, 2) / max(np.linalg.norm(h, 2), 1e-300)
            for h in H)
    )
    checks.append(("hermiticity_at_k", herm < 1e-12, herm, 1e-12))

    # the covariance and derivative defects are relative to the scale of H
    scale = max(1.0, float(np.abs(H).max()))
    # one assembly per G: H at the first 5 momenta comes from the batch
    cov = max(covariance_defect(model, ks[:5], m1, m2, H[:5])
              for (m1, m2) in ((1, 0), (0, 1), (1, 1), (2, -1))) / scale
    checks.append(("dual_covariance", cov < 1e-10, cov, 1e-10))

    # derivatives at the first 20 momenta against central differences: one
    # assembly of every derivative there, one of H and J per shifted set
    step, k20 = 1e-6, ks[:20]
    derivs = ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
    D = dict(zip(derivs, model._assemble(k20, derivs)))
    fd_err = fd2_err = 0.0
    for j, e in ((1, np.array([step, 0.0])), (2, np.array([0.0, step]))):
        shifted = (model._assemble(k, ((), (1,), (2,))) for k in (k20 + e, k20 - e))
        (Hp, *Jp), (Hm, *Jm) = shifted
        fd_err = max(fd_err, float(np.abs((Hp - Hm) / (2 * step) - D[(j,)]).max()) / scale)
        for l in (1, 2):
            fd = (Jp[l - 1] - Jm[l - 1]) / (2 * step)
            fd2_err = max(fd2_err, float(np.abs(fd - D[j, l]).max()) / scale)
    sym_err = float(np.abs(D[1, 2] - D[2, 1]).max())
    checks.append(("derivative_consistency", fd_err < 1e-5, fd_err, 1e-5))
    checks.append(("second_derivative_consistency", fd2_err < 1e-5, fd2_err, 1e-5))
    checks.append(("second_derivative_symmetry", sym_err == 0.0, sym_err, 0.0))

    # spectra at k + G against those of the batch at the same 20 momenta
    w = _eigvals(model, model._phases(ks))
    espread = max(1.0, float(np.abs(w).max()))
    per_err = max(float(np.abs(_eigvals(model, model._phases(k20 + G)) - w[:20]).max())
                  for G in (model.lattice.b1, model.lattice.b2)) / espread
    checks.append(("spectrum_periodicity", per_err < 1e-10, per_err, 1e-10))
    return checks


def cmd_validate(cfg: RunConfig) -> int:
    return _validation_report(cfg.model_label, cfg.out, None,
                              _run_validation_checks(cfg.model))


def _validation_report(label: str, out: str | None, pairing_failure: str | None,
                       results) -> int:
    """Write the validate report: the Hermiticity pairing (failed with the
    loader's message ``pairing_failure``, or passed) and then ``results``,
    the (name, ok, measured, tolerance) of the checks that read the model."""
    checks = [
        {
            "name": "hermiticity_pairing",
            "pass": pairing_failure is None,
            "measured": pairing_failure if pairing_failure else "all partners match",
            "tolerance": "1e-12 entrywise",
        }
    ]
    for name, ok, measured, tol in results:
        checks.append(
            {"name": name, "pass": bool(ok), "measured": measured,
             "tolerance": tol}
        )
    all_pass = all(c["pass"] for c in checks)
    report = {
        "command": "validate",
        "model": label,
        "units": UNITS_NOTE,
        "all_pass": all_pass,
        "checks": checks,
    }
    _emit(json_report(report), out)
    return 0 if all_pass else 2


# -- bands ---------------------------------------------------------------------

def _band_path(model: HoppingModel, waypoints_frac, samples: int):
    pts = [model.lattice.from_fractional(w) for w in waypoints_frac]
    t = np.linspace(0.0, 1.0, samples, endpoint=False)
    ks, arcs, arc = [], [], 0.0
    for a, b in zip(pts, pts[1:]):
        length = float(np.linalg.norm(b - a))
        ks.append(a + t[:, None] * (b - a))
        arcs.append(arc + t * length)
        arc += length
    ks = np.vstack(ks + [pts[-1]])
    energies = _eigvals(model, model._phases(ks))
    return np.append(np.concatenate(arcs), arc), ks, energies


def _bands_csv(arcs, ks, energies) -> str:
    n_bands = energies.shape[1]
    header = "arclength,k1,k2," + ",".join(
        f"lambda_{i + 1}" for i in range(n_bands)
    )
    lines = [header]
    for a, k, row in zip(arcs, ks, energies):
        vals = [a, k[0], k[1], *row]
        lines.append(",".join("%.17g" % v for v in vals))
    return "\n".join(lines) + "\n"


def _bands_svg(arcs, energies, mu: float) -> str:
    width, height, ml, mr, mt, mb = 800.0, 500.0, 60.0, 20.0, 20.0, 40.0
    lo = min(float(energies.min()), mu)
    hi = max(float(energies.max()), mu)
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    lo, hi = lo - pad, hi + pad
    x0, x1 = float(arcs[0]), float(arcs[-1])

    def sx(a):
        return ml + (a - x0) / (x1 - x0) * (width - ml - mr)

    def sy(e):
        return mt + (hi - e) / (hi - lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{ml:g}" y1="{sy(lo):.2f}" x2="{ml:g}" y2="{sy(hi):.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(x0):.2f}" y1="{height - mb:g}" x2="{sx(x1):.2f}" '
        f'y2="{height - mb:g}" stroke="black" stroke-width="1"/>',
    ]
    for i in range(energies.shape[1]):
        pts = " ".join(
            f"{sx(a):.2f},{sy(e):.2f}" for a, e in zip(arcs, energies[:, i])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" '
            'stroke-width="1.5"/>'
        )
    parts.append(
        f'<line x1="{ml:g}" y1="{sy(mu):.2f}" x2="{width - mr:g}" y2="{sy(mu):.2f}" '
        'stroke="#c03030" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{width - mr - 4:g}" y="{sy(mu) - 5:.2f}" text-anchor="end" '
        'font-family="monospace" font-size="12" fill="#c03030">mu</text>'
    )
    for e in (lo + pad, hi - pad):
        parts.append(
            f'<text x="{ml - 6:g}" y="{sy(e) + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{e:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_bands(cfg: RunConfig) -> int:
    waypoints = cfg.path
    if waypoints is None:
        waypoints = [np.array([0.0, 0.0]), np.array([0.5, 0.0]),
                     np.array([0.5, 0.5]), np.array([0.0, 0.0])]
    arcs, ks, energies = _band_path(cfg.model, waypoints, cfg.samples)
    _emit(_bands_csv(arcs, ks, energies), cfg.out)
    if cfg.svg:
        _emit(_bands_svg(arcs, energies, cfg.model.fermi_energy), cfg.svg)
    return 0


# -- fermi-points ----------------------------------------------------------------

def cmd_fermi_points(cfg: RunConfig) -> int:
    model = cfg.model
    scan = find_fermi_points(model, coarse=cfg.grid)
    records = []
    for k, gap in zip(scan.locations, scan.gaps):
        Q, tilt, resid = fit_cone(model, k)
        ok, margin = check_cone_condition(Q, tilt)
        frac = wrap_fractional(model.lattice.to_fractional(k))
        records.append(
            {
                "omega_frac": [float(frac[0]), float(frac[1])],
                "omega_cart": [float(k[0]), float(k[1])],
                "Q": [[float(Q[0, 0]), float(Q[0, 1])],
                      [float(Q[1, 0]), float(Q[1, 1])]],
                "tilt": [float(tilt[0]), float(tilt[1])],
                "residual": float(resid),
                "gap_at_omega": float(gap),
                "is_quantizing": bool(is_quantizing(Q)),
                "cone_condition": bool(ok),
                "cone_margin": float(margin),
            }
        )
    report = {
        "command": "fermi-points",
        "model": cfg.model_label,
        "units": UNITS_NOTE,
        "count": len(records),
        "min_gap": float(scan.min_gap),
        "warnings": list(scan.warnings),
        "points": records,
    }
    _emit(json_report(report), cfg.out)
    return 0


# -- sigma -----------------------------------------------------------------------

def _sigma_key(j: int, l: int) -> str:
    return f"{j}{l}"


def _sigma_csv(per_eta: dict) -> str:
    keys = list(per_eta)
    header = "eta," + ",".join(f"sigma_hat_{_sigma_key(*k)}" for k in keys)
    etas = [e for (e, _, _) in per_eta[keys[0]]]
    lines = [header]
    for i, eta in enumerate(etas):
        row = [eta] + [per_eta[k][i][1] for k in keys]
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def cmd_sigma(cfg: RunConfig) -> int:
    model = cfg.model
    cones = characterize_cones(model, coarse=cfg.grid)
    payload = {
        "command": "sigma",
        "model": cfg.model_label,
        "units": UNITS_NOTE,
        "method": None,
        "sigma": {},
    }
    exit_code = 0
    if cfg.method == "closed":
        rep = closed_form_report(cones, cfg.directions)
        payload["per_cone"] = {str(j): list(v) for j, v in rep.per_cone.items()}
        payload["diagnostics"] = rep.diagnostics
    else:
        eta_seq = cfg.eta_seq or default_eta_sequence(model)
        try:
            rep = sigma_kubo(model, directions=cfg.directions, eta_sequence=eta_seq,
                             grid_policy=GridPolicy(base=cfg.grid), cones=cones)
        except NotConverged as exc:
            rep = exc.report
            exit_code = 3
        payload["converged"] = {_sigma_key(*p): v for p, v in rep.converged.items()}
        payload["eta_sequence"] = list(eta_seq)
        payload["sigma_hat"] = {
            _sigma_key(*p): [
                {"eta": e, "sigma_hat": s, "quad_error": q} for (e, s, q) in seq
            ]
            for p, seq in rep.per_eta.items()
        }
        payload["diagnostics"] = {
            _sigma_key(*p): {
                "grid_points": rep.diagnostics["grid_points"],
                "f_values": {"%.17g" % e: v for e, v in f.items()},
            }
            for p, f in rep.diagnostics["f_values"].items()
        }
        if cfg.csv:
            _emit(_sigma_csv(rep.per_eta), cfg.csv)
    # both methods fill the places of "method" and "sigma" held above
    payload["method"] = rep.method
    payload["sigma"] = {_sigma_key(*p): v for p, v in rep.sigma.items()}
    payload["cones"] = len(cones)
    _emit(json_report(payload), cfg.out)
    return exit_code


# -- verify ----------------------------------------------------------------------

def _verify_check(name, status, discrepancy, tolerance, detail) -> dict:
    return {
        "name": name,
        "status": status,
        "discrepancy": discrepancy,
        "tolerance": tolerance,
        "detail": detail,
    }


def cmd_verify(cfg: RunConfig) -> int:
    model = cfg.model
    cones = characterize_cones(model, coarse=cfg.grid)
    eta_seq = cfg.eta_seq or default_eta_sequence(model)
    checks = []

    # Checks (a)-(c) compare values only, so no companion grid is evaluated.
    # Their requests are gathered per grid (the fine grid built for one eta)
    # and ride on the fine pass of check (e)'s sweep over that grid.
    eta_min = eta_seq[-1]
    eta_b = eta_seq[min(2, len(eta_seq) - 1)]
    e2 = eta_b / 2.0
    pairs = ((1, 1), (2, 2), (1, 2))
    requests = {eta_min: [r for p in pairs for r in (
        ("schwinger", 0.0, p), ("f_jl", eta_min, p), ("f_jl", 2.0 * eta_min, p))]}
    requests[eta_b] = requests.get(eta_b, []) + [
        (q, eta_b, (j, j)) for j in (1, 2) for q in ("f_jl", "ftilde_jj")]
    if cones:
        requests[e2] = requests.get(e2, []) + [("ftilde_jj", e2, (j, j)) for j in (1, 2)]
    longitudinal = ((1, 1), (2, 2))
    rep, on_grid, _ = _eta_sweep(model, longitudinal, eta_seq, GridPolicy(base=cfg.grid),
                                 cones, requests)

    # (a) Schwinger term vs the eta -> 0 response: s_jl = -f_jl(0+); the
    # limit is taken by the linear-cancelling combination 2 f(eta) - f(2 eta).
    a = on_grid[eta_min]
    disc_a = max(
        abs(a["schwinger", 0.0, p] + 2.0 * a["f_jl", eta_min, p] - a["f_jl", 2.0 * eta_min, p])
        for p in pairs
    )
    checks.append(_verify_check(
        "schwinger_vs_f0", "pass" if disc_a < 1e-3 else "fail", disc_a, 1e-3,
        "max over (j,l) of |s_jl + lim f_jl(eta)|, limit via 2f(eta)-f(2eta) "
        f"at eta={eta_min:.6g}",
    ))

    # (b) the general pair-sum response equals its even two-band-structured
    # extension at eta > 0 (independent formulas on one grid pass)
    b = on_grid[eta_b]
    disc_b = 0.0
    for j in (1, 2):
        fa, fb = b["f_jl", eta_b, (j, j)], b["ftilde_jj", eta_b, (j, j)]
        disc_b = max(disc_b, abs(fa - fb) / max(abs(fb), 1e-300))
    checks.append(_verify_check(
        "fjl_vs_ftilde", "pass" if disc_b < 1e-8 else "fail", disc_b, 1e-8,
        f"max relative difference over j at eta={eta_b:.6g}",
    ))

    # (c) the response minus its cone-neighborhood singular part is flat in
    # eta (the regular remainder is even with bounded slope); (d) the sigma
    # estimators of the eigenvalue-only zeta and the matrix-element f_sing
    # agree.  Both compare values only, from one fine-rule cone pass.
    if cones:
        eta_d = eta_seq[-1]
        sing, = _cone_pass(model, cones, [
            ("f_sing", e, (j, j)) for j in (1, 2) for e in (eta_b, e2)] + [
            (q, e, (1, 1)) for q in ("f_sing", "zeta") for e in (2.0 * eta_d, eta_d)],
            cfg.eps)
        disc_c = 0.0
        for j in (1, 2):
            rs = [on_grid[e]["ftilde_jj", e, (j, j)] - sing["f_sing", e, (j, j)]
                  for e in (eta_b, e2)]
            disc_c = max(disc_c, abs(rs[0] - rs[1]))
        tol_c = 2e-3 * abs(on_grid[e2]["ftilde_jj", e2, (2, 2)])
        checks.append(_verify_check(
            "singular_regular_flatness", "pass" if disc_c < tol_c else "fail",
            disc_c, tol_c,
            f"|r(eta1)-r(eta2)| for r = ftilde - f_sing at eta1={eta_b:.6g}, "
            f"eta2={e2:.6g}",
        ))
        s_fs, s_zt = (
            (sing[q, 2.0 * eta_d, (1, 1)] - sing[q, eta_d, (1, 1)]) / eta_d
            for q in ("f_sing", "zeta"))
        disc_d = abs(s_fs - s_zt)
        checks.append(_verify_check(
            "zeta_vs_fsing_sigma", "pass" if disc_d < 5e-3 else "fail",
            disc_d, 5e-3,
            f"|sigma_hat(zeta) - sigma_hat(f_sing)| at eta={eta_d:.6g}, j=1",
        ))
    else:
        checks += [_verify_check(name, "skipped", None, None,
                                 "no cones detected (gapped model)")
                   for name in ("singular_regular_flatness", "zeta_vs_fsing_sigma")]

    # (e) closed form vs Kubo extrapolation (gapless), or sigma -> 0 (gapped)
    disc_e = 0.0
    if cones:
        closed = closed_form_report(cones, longitudinal)
        for p in longitudinal:
            ref = closed.sigma[p]
            disc_e = max(disc_e, abs(rep.sigma[p] - ref) / abs(ref))
        # an unconverged eta sequence fails the check whatever the
        # discrepancy; the detail then names the pairs and their last change
        stale = _unconverged(rep)
        detail = "max relative |sigma_kubo - sigma_closed| over j (gapless mode)"
        if stale:
            detail += "; sigma_hat not converged: " + ", ".join(
                f"sigma_{j}{l} ({why})" for (j, l), _, why in stale)
        status = "pass" if not stale and disc_e < 0.03 else "fail"
        checks.append(_verify_check("closed_vs_kubo", status, disc_e, 0.03, detail))
    else:
        disc_e = max(abs(rep.sigma[p]) for p in longitudinal)
        checks.append(_verify_check(
            "closed_vs_kubo", "pass" if disc_e < 1e-3 else "fail", disc_e, 1e-3,
            "|sigma_kubo| (gapped mode: longitudinal response must vanish)",
        ))

    failed = [c for c in checks if c["status"] == "fail"]
    report = {
        "command": "verify",
        "model": cfg.model_label,
        "units": UNITS_NOTE,
        "all_pass": not failed,
        "cones": len(cones),
        "checks": checks,
    }
    _emit(json_report(report), cfg.out)
    return 0 if not failed else 2


# -- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigParse(message)


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    # built once per process: a build costs ~15 parses, and a parse leaves no
    # state in the parser.  Options left out stay out of the namespace:
    # RunConfig holds their defaults
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--model", default=None, help="model JSON file")
    common.add_argument("--preset", default=None, help="preset model name (haldane, qwz)")
    common.add_argument("--params", default=None, help="preset parameters k=v,...")
    common.add_argument("--grid", type=int,
                        help=f"coarse grid subdivision (default {RunConfig.grid})")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    parser = _Parser(prog="conecond",
                     description="Conical Fermi-point conductivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, parents=[common], help=summary,
                              argument_default=argparse.SUPPRESS)

    command("validate", "run model consistency checks")

    bands = command("bands", "band structure along a k-path (CSV/SVG)")
    bands.add_argument("--path",
                       help="waypoints in dual-basis coordinates 'f1,f2;f1,f2;...'")
    bands.add_argument("--samples", type=int,
                       help=f"samples per path segment (default {RunConfig.samples})")
    bands.add_argument("--svg", help="write an SVG band plot to this path")

    command("fermi-points", "locate and characterize conical crossings (JSON)")

    sigma = command("sigma", "longitudinal conductivity (closed form or Kubo)")
    sigma.add_argument("--method", choices=("closed", "kubo"))
    sigma.add_argument("--eta-seq", dest="eta_seq",
                       help="halving eta sequence a,b,c,...")
    sigma.add_argument("--directions", help="direction pairs, e.g. 11,22,12")
    sigma.add_argument("--csv", help="write the Kubo sigma_hat sequence CSV here")

    verify = command("verify", "run the cross-validation identity suite")
    verify.add_argument("--eta-seq", dest="eta_seq",
                        help="halving eta sequence a,b,c,...")
    verify.add_argument("--eps", type=float, help="cone-neighborhood size")

    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "bands": cmd_bands,
    "fermi-points": cmd_fermi_points,
    "sigma": cmd_sigma,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        try:
            cfg = _config_from_args(args)
        except HoppingConflict as exc:
            if args.command == "validate":
                # pairing violations are a validation finding, not a crash
                return _validation_report(f"file:{args.model}", args.out, str(exc), [])
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _COMMANDS[args.command](cfg)
    except (ConfigParse, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
