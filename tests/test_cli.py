"""End-to-end tests of the command-line interface.

Content-heavy checks call the entry function in-process and parse its
stdout; byte-level determinism and the installed console script are
exercised through subprocess runs.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import conecond as cc
from conecond.cli import main as cli_main

from conftest import hex_flat_band_dict, square_model_dict


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(cmd):
    # the child process imports the conecond under test, wherever it was found
    src = os.path.dirname(os.path.dirname(cc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def run_script(*argv):
    exe = shutil.which("conecond")
    return run_child([exe, *argv] if exe else [sys.executable, "-m", "conecond.cli", *argv])


# -- exit codes ---------------------------------------------------------------------

def test_unknown_flag_is_config_error(capsys):
    code, _, err = run_cli(capsys, "sigma", "--preset", "qwz", "--bogus")
    assert code == 1 and "error:" in err


def test_unknown_preset_is_config_error(capsys):
    code, _, err = run_cli(capsys, "validate", "--preset", "nosuch")
    assert code == 1 and "nosuch" in err


def test_grid_below_minimum_is_config_error(capsys):
    code, _, err = run_cli(capsys, "validate", "--preset", "qwz", "--grid", "4")
    assert code == 1


def test_model_source_must_be_exactly_one(capsys, model_file):
    path = model_file(square_model_dict())
    code, _, _ = run_cli(capsys, "validate", "--model", path, "--preset", "qwz")
    assert code == 1
    code, _, _ = run_cli(capsys, "validate")
    assert code == 1


def test_non_halving_eta_sequence_is_config_error(capsys):
    code, _, _ = run_cli(capsys, "sigma", "--preset", "qwz", "--method", "kubo",
                         "--eta-seq", "0.2,0.15")
    assert code == 1


def test_malformed_model_file_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "validate", "--model", str(bad))
    assert code == 1
    # each of these once escaped main() as a TypeError, ValueError or
    # OverflowError traceback
    for field, value in [("hoppings", 5), ("cell", ["a", 0]), ("cell", [np.nan, 0]),
                         ("cell", [np.inf, 0]), ("a1", "xy"), ("a1", [1, 2, 3]),
                         ("orbitals", [["a", 0]]), ("fermi_energy", "abc")]:
        payload = square_model_dict()
        owner = {"cell": payload["hoppings"][0], "a1": payload["lattice"]}
        owner.get(field, payload)[field] = value
        bad.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "validate", "--model", str(bad))
        assert code == 1 and err.startswith("error:"), (field, value, err)


def test_validate_reports_pairing_violation_as_failed_check(capsys, model_file):
    # inconsistent explicit partners: T(-c) must equal T(c)^dagger
    payload = square_model_dict()
    payload["hoppings"].append({"cell": [-1, 0], "matrix": [[[0.5, 0.0]]]})
    path = model_file(payload, "tampered.json")
    code, out, _ = run_cli(capsys, "validate", "--model", path)
    assert code == 2
    report = json.loads(out)
    assert report["all_pass"] is False
    first = report["checks"][0]
    assert first["name"] == "hermiticity_pairing" and first["pass"] is False


def test_validate_assembles_each_momentum_set_once(capsys, monkeypatch):
    # one H batch, one covariance batch per G, one derivative batch, four
    # shifted batches and one spectrum batch per G; the point-by-point checks
    # once made 501 assemblies and 61 eigvalsh calls
    calls = {"assemble": 0, "eigvalsh": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(cc.HoppingModel, "_assemble",
                        counting("assemble", cc.HoppingModel._assemble))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    code, out, _ = run_cli(capsys, "validate", "--preset", "haldane",
                           "--params", "t1=1,t2=0.1,phi=0.3,M=0.2")
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert calls["assemble"] <= 12 and calls["eigvalsh"] <= 3, calls


@pytest.mark.parametrize("argv", [
    ["sigma", "--preset", "qwz", "--params", "u=nan"],
    ["sigma", "--preset", "haldane", "--params", "t2=inf"],
    ["sigma", "--preset", "qwz", "--method", "kubo", "--eta-seq", "nan,nan"],
    ["verify", "--preset", "qwz", "--eps", "inf"],
    ["bands", "--preset", "qwz", "--path", "0,0;nan,0"],
    ["bands", "--preset", "qwz", "--path", "0,0;inf,0"],
])
def test_non_finite_numbers_are_config_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "finite" in err


@pytest.mark.parametrize("argv", [
    ["sigma", "--preset", "qwz", "--method", "kubo", "--eta-seq", "0.1"],
    ["verify", "--preset", "qwz", "--eta-seq", "0.1"],
    ["sigma", "--preset", "qwz", "--method", "closed", "--directions", "12"],
    ["sigma", "--preset", "haldane", "--params", "t1=0"],
    ["sigma", "--preset", "qwz", "--directions", ""],
    ["verify", "--preset", "qwz", "--eta-seq", ""],
    ["bands", "--preset", "qwz", "--path", ""],
    ["bands", "--preset", "qwz", "--path", "0,0;0,0", "--svg", os.devnull],
])
def test_out_of_range_options_are_config_errors(capsys, argv):
    # each of these once escaped main() as a bare ValueError traceback, or
    # (the empty values) was taken as the option's default
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and err.startswith("error:")


def test_eps_is_a_verify_option_only(capsys, monkeypatch):
    # sigma never used a cone-neighborhood size, so it refuses --eps like
    # any unknown option; verify passes it to every B_eps integral, each of
    # which runs in kubo._cone_pass (called by cli itself and by the wrappers)
    code, _, err = run_cli(capsys, "sigma", "--preset", "qwz", "--eps", "0.1")
    assert code == 1 and "--eps" in err
    import conecond.cli as cli
    import conecond.kubo as kubo

    seen = []

    def recording(model, cones, requests, eps, *rest, _f=kubo._cone_pass):
        seen.append(eps)
        return _f(model, cones, requests, eps, *rest)

    for owner in (cli, kubo):
        monkeypatch.setattr(owner, "_cone_pass", recording)
    code, _, _ = run_cli(capsys, "verify", "--preset", "qwz", "--params", "u=-2",
                         "--grid", "16", "--eta-seq", "0.2,0.1,0.05", "--eps", "0.1")
    assert code == 0 and seen and set(seen) == {0.1}


@pytest.mark.parametrize("command",[["sigma", "--method", "closed"], ["fermi-points"]])
def test_third_band_near_cone_is_numerical_error(capsys, model_file, command):
    # the flat band 0.02 above mu sits inside the default fit circles' window;
    # the fit follows the cone's two bands by their states, so the band it
    # names as the third is the flat one, not the cone's own upper band
    # (0.031 from mu on the smallest circle)
    path = model_file(hex_flat_band_dict())
    code, out, err = run_cli(capsys, *command, "--model", path)
    assert code == 4 and out == ""
    assert err.startswith("error: TwoBandIsolationFailed: third band comes "
                          "within 2.000e-02 of the Fermi level")


def test_eps_too_small_for_zeta_step_is_numerical_error(capsys):
    # at eps = 1e-4 the default fd_step is a fifth of the B_eps node scale
    code, out, err = run_cli(capsys, "verify", "--preset", "qwz", "--grid", "16",
                             "--eta-seq", "0.2,0.1", "--eps", "1e-4")
    assert code == 4 and out == ""
    assert err.startswith("error: FdStepTooLarge: fd_step 1e-05 exceeds")


def test_truncated_eta_sequence_exits_3_with_report(capsys):
    code, out, _ = run_cli(
        capsys, "sigma", "--preset", "qwz", "--params", "u=1",
        "--method", "kubo", "--eta-seq", "0.2,0.1", "--grid", "8",
    )
    assert code == 3
    report = json.loads(out)  # the report is still emitted
    assert report["method"] == "kubo_extrapolation"
    assert report["converged"]["11"] is False
    assert np.isfinite(report["sigma"]["11"])


# -- validate -----------------------------------------------------------------------

def test_validate_passes_on_presets(capsys):
    for args in (["--preset", "haldane"],
                 ["--preset", "qwz", "--params", "u=-2,v1=2"]):
        code, out, _ = run_cli(capsys, "validate", *args)
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "hermiticity_pairing", "hermiticity_at_k", "dual_covariance",
            "derivative_consistency", "second_derivative_consistency",
            "second_derivative_symmetry", "spectrum_periodicity",
        ]


# -- bands --------------------------------------------------------------------------

def test_bands_csv_matches_dispersion(capsys, model_file):
    path = model_file(square_model_dict(t=1.0))
    code, out, _ = run_cli(capsys, "bands", "--model", path,
                           "--path", "0,0;0.5,0;0.5,0.5", "--samples", "16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "arclength,k1,k2,lambda_1"
    assert len(lines) == 1 + 2 * 16 + 1  # two segments plus the final point
    for row in lines[1:]:
        _, k1, k2, lam = map(float, row.split(","))
        assert abs(lam - 2.0 * (np.cos(k1) + np.cos(k2))) < 1e-10


def test_bands_header_has_one_column_per_band(capsys):
    code, out, _ = run_cli(capsys, "bands", "--preset", "qwz", "--samples", "4")
    assert code == 0
    assert out.split("\n")[0] == "arclength,k1,k2,lambda_1,lambda_2"


def test_bands_path_through_crossing_reaches_zero_gap(capsys):
    code, out, _ = run_cli(
        capsys, "bands", "--preset", "haldane", "--samples", "32",
        "--path", "0,0;-0.3333333333333333,0.3333333333333333;0,0",
    )
    assert code == 0
    gaps = []
    for row in out.strip().split("\n")[1:]:
        vals = [float(v) for v in row.split(",")]
        gaps.append(vals[4] - vals[3])
    assert min(gaps) < 1e-3


def test_bands_svg_output(capsys, tmp_path):
    svg_path = tmp_path / "bands.svg"
    code, out, _ = run_cli(capsys, "bands", "--preset", "qwz", "--samples", "8",
                           "--svg", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2  # one per band
    assert "stroke-dasharray" in svg and ">mu</text>" in svg
    assert svg.rstrip().endswith("</svg>")


# -- fermi-points -------------------------------------------------------------------

def test_fermi_points_haldane_two_quantizing_cones(capsys):
    code, out, _ = run_cli(capsys, "fermi-points", "--preset", "haldane")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2 and len(report["points"]) == 2
    fracs = sorted(round(p["omega_frac"][0], 6) for p in report["points"])
    assert np.allclose(fracs, [-1.0 / 3.0, 1.0 / 3.0], atol=1e-5)
    for p in report["points"]:
        assert p["is_quantizing"] is True
        assert p["cone_condition"] is True
        assert p["gap_at_omega"] < 1e-7
        assert np.allclose(p["Q"], 2.25 * np.eye(2), atol=2e-3)


def test_fermi_points_gapped_model_empty(capsys):
    code, out, _ = run_cli(capsys, "fermi-points", "--preset", "qwz",
                           "--params", "u=1")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 0 and report["points"] == []
    assert report["min_gap"] > 1.9


# -- sigma --------------------------------------------------------------------------

def test_sigma_closed_form_anisotropic(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--preset", "qwz",
                           "--params", "u=-2,v1=2,v2=1")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "closed_form"
    assert abs(report["sigma"]["11"] - 0.125) < 1e-3
    assert abs(report["sigma"]["22"] - 0.03125) < 1e-3
    assert report["cones"] == 1


def test_sigma_closed_form_gapped_is_zero(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--preset", "qwz",
                           "--params", "u=1")
    assert code == 0
    report = json.loads(out)
    assert report["sigma"]["11"] == 0.0 and report["cones"] == 0


def test_sigma_kubo_writes_csv_next_to_out(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys, "sigma", "--preset", "qwz", "--params", "u=1",
        "--method", "kubo", "--eta-seq", "0.2,0.1,0.05", "--grid", "8",
        "--directions", "11", "--out", str(out_path),
    )
    report = json.loads(out_path.read_text())
    assert [e["eta"] for e in report["sigma_hat"]["11"]] == [0.1, 0.05]
    csv_lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "eta,sigma_hat_11"
    assert len(csv_lines) == 3
    for row, entry in zip(csv_lines[1:], report["sigma_hat"]["11"]):
        eta, s_hat = map(float, row.split(","))
        assert eta == entry["eta"] and s_hat == entry["sigma_hat"]


def test_sigma_kubo_csv_path_keeps_out_directory(capsys, tmp_path, monkeypatch):
    # a dot in a directory name is not an extension: the CSV goes next to
    # the report, not to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.d").mkdir()
    code, _, _ = run_cli(
        capsys, "sigma", "--preset", "qwz", "--params", "u=1",
        "--method", "kubo", "--eta-seq", "0.2,0.1,0.05", "--grid", "8",
        "--directions", "11", "--out", os.path.join("out.d", "report"),
    )
    assert (tmp_path / "out.d" / "report").exists()
    assert (tmp_path / "out.d" / "report.csv").read_text().startswith("eta,sigma_hat_11\n")
    assert not (tmp_path / "out.csv").exists()


def test_sigma_kubo_refuses_csv_over_out(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    for extra in ((), ("--csv", str(out_path))):
        code, out, err = run_cli(
            capsys, "sigma", "--preset", "qwz", "--params", "u=1",
            "--method", "kubo", "--eta-seq", "0.2,0.1", "--grid", "8",
            "--out", str(out_path), *extra,
        )
        assert code == 1 and out == ""
        assert "would overwrite the JSON report" in err
        assert not out_path.exists()


def test_sigma_kubo_f_values_reproduce_sigma_hat(capsys):
    # each grid's printed pair (f(2 eta), f(eta)) gives its sigma_hat exactly
    code, out, _ = run_cli(
        capsys, "sigma", "--preset", "qwz", "--params", "u=-2,v1=2,v2=1",
        "--method", "kubo", "--eta-seq", "0.4,0.2,0.1", "--grid", "16",
        "--directions", "11,22",
    )
    assert code in (0, 3)
    report = json.loads(out)
    for key, seq in report["sigma_hat"].items():
        f_values = report["diagnostics"][key]["f_values"]
        assert [float(e) for e in f_values] == [entry["eta"] for entry in seq]
        for entry in seq:
            f_hi, f_lo = f_values["%.17g" % entry["eta"]]
            assert (f_hi - f_lo) / entry["eta"] == entry["sigma_hat"]


# -- verify -------------------------------------------------------------------------

def test_verify_gapped_skips_cone_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "qwz", "--params", "u=1",
        "--grid", "32", "--eta-seq", "0.2,0.1,0.05,0.025",
    )
    assert code == 0
    report = json.loads(out)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status == {
        "schwinger_vs_f0": "pass",
        "fjl_vs_ftilde": "pass",
        "singular_regular_flatness": "skipped",
        "zeta_vs_fsing_sigma": "skipped",
        "closed_vs_kubo": "pass",
    }
    assert report["all_pass"] is True and report["cones"] == 0


@pytest.mark.parametrize("argv, status, stale", [
    # three eta values leave the critical Haldane extrapolation unconverged
    pytest.param(["--preset", "haldane", "--params",
                  "t1=1.0,t2=0.1,phi=1.5707963267948966,M=0.5196152422706632",
                  "--eta-seq", "0.2,0.1,0.05"], "fail",
                 "; sigma_hat not converged: "
                 "sigma_11 (last change 3.315e-03, tolerance 1.318e-03), "
                 "sigma_22 (last change 3.319e-03, tolerance 1.318e-03)",
                 id="haldane-critical-unconverged"),
    pytest.param(["--preset", "qwz", "--params", "u=-2",
                  "--eta-seq", "0.2,0.1,0.05,0.025,0.0125"], "pass", "",
                 id="qwz-converged"),
])
def test_verify_closed_vs_kubo_names_unconverged_pairs(capsys, argv, status, stale):
    # an unconverged eta sequence fails check (e) with a discrepancy below its
    # tolerance, so the detail must say why; a converged run keeps the plain
    # detail
    code, out, _ = run_cli(capsys, "verify", *argv, "--grid", "16")
    check = {c["name"]: c for c in json.loads(out)["checks"]}["closed_vs_kubo"]
    assert code == (0 if status == "pass" else 2)
    assert check["status"] == status and check["discrepancy"] < check["tolerance"]
    assert check["detail"] == (
        "max relative |sigma_kubo - sigma_closed| over j (gapless mode)" + stale)


@pytest.mark.parametrize("u, eta_seq, passes, refinements", [
    # check (c)'s eta_b / 2 = 0.025 unvisited: its fine grid is built alone
    pytest.param("-2", "0.2,0.1,0.05", 5, 5, id="0.2,0.1,0.05-5"),
    # every grid of checks (a)-(c) shared
    pytest.param("-2", "0.2,0.1,0.05,0.025,0.0125", 8, 8, id="0.2,0.1,0.05,0.025,0.0125-8"),
    # gapped: every eta step shares one uniform grid pair
    pytest.param("1", "0.2,0.1,0.05,0.025,0.0125", 2, 0, id="u=1-0.2,0.1,0.05,0.025,0.0125-2"),
])
def test_verify_decomposes_each_grid_once(capsys, monkeypatch, u, eta_seq, passes,
                                          refinements):
    # checks (a)-(c) ride on the fine passes of check (e)'s eta sweep: each
    # distinct grid pair passes its fine grid and its companion through the
    # kernel once, and an eta the sweep does not visit gets one fine-only
    # pass, so across the whole run no grid is decomposed twice (the kernel
    # decomposes through kubo._eigh, the closed form for N = 2) and no grid
    # is refined that does not reach the kernel
    import conecond.kubo as kubo

    argv = ["verify", "--preset", "qwz", "--params", f"u={u}", "--grid", "16",
            "--eta-seq", eta_seq]
    kernel, eigh, refine = kubo._pair_sum_on_grid, kubo._eigh, kubo.refined_grid
    grids, quantities, decomposed, inside, refined = [], set(), [], [], []

    def counting_refine(*args):
        refined.append(args)
        return refine(*args)

    def counting_eigh(a):
        if inside:
            decomposed.append(len(a))
        return eigh(a)

    def one_pass(model, grid, requests, gate):
        grids.append(grid)
        quantities.update(q for q, _, _ in requests)
        inside.append(True)
        try:
            return kernel(model, grid, requests, gate)
        finally:
            inside.pop()

    monkeypatch.setattr(kubo, "_eigh", counting_eigh)
    monkeypatch.setattr(kubo, "_pair_sum_on_grid", one_pass)
    monkeypatch.setattr(kubo, "refined_grid", counting_refine)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert quantities == {"f_jl", "ftilde_jj", "schwinger"}
    assert len({g.points.tobytes() for g in grids}) == len(grids) == passes
    assert len(refined) == refinements
    assert sum(decomposed) == sum(len(g) for g in grids)

    # the same report when every request runs in its own pass
    def separate_passes(model, grid, requests, gate):
        single = [kernel(model, grid, [r], gate) for r in requests]
        return {r: v[r] for r, (v, _) in zip(requests, single)}, single[0][1]

    monkeypatch.setattr(kubo, "_pair_sum_on_grid", separate_passes)
    code, separate, _ = run_cli(capsys, *argv)
    assert code == 0 and separate == out


@pytest.mark.parametrize("argv, node_sets", [
    # one cone; (c) reads eta 0.05 and 0.025, (d) 0.1 and 0.05
    (["--preset", "qwz", "--params", "u=-2", "--grid", "16", "--eta-seq", "0.2,0.1,0.05"], 3),
    # two cones; (c) reads eta 0.05 and 0.025, (d) the same two
    (["--preset", "haldane", "--grid", "24", "--eta-seq", "0.2,0.1,0.05,0.025"], 4),
], ids=["qwz-3", "haldane-4"])
def test_verify_decomposes_each_cone_node_set_once(capsys, monkeypatch, argv, node_sets):
    # checks (c) and (d) read every B_eps integral from one fine-rule pass:
    # one node set per (distinct eta, cone), decomposed once at its nodes,
    # plus zeta's two shifted batches where zeta is read (j = 1 only)
    import conecond.kubo as kubo

    nodes, eigh, kernel = kubo._elliptic_polar_nodes, kubo._eigh, kubo._pair_sum_on_grid
    built, decomposed, inside = [], [], []

    def recording_nodes(cone, eps, eta, ntheta, order):
        offsets, weights = nodes(cone, eps, eta, ntheta, order)
        built.append((eta, tuple(cone.omega), len(weights)))
        return offsets, weights

    def counting_eigh(a):
        if not inside:
            decomposed.append(len(a))
        return eigh(a)

    def kernel_pass(*args):
        inside.append(True)
        try:
            return kernel(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(kubo, "_elliptic_polar_nodes", recording_nodes)
    monkeypatch.setattr(kubo, "_eigh", counting_eigh)
    monkeypatch.setattr(kubo, "_pair_sum_on_grid", kernel_pass)
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    seq = [float(e) for e in argv[-1].split(",")]
    eta_b, eta_d = seq[min(2, len(seq) - 1)], seq[-1]
    zeta_etas = {2.0 * eta_d, eta_d}
    etas = {eta_b, eta_b / 2.0} | zeta_etas
    cones = json.loads(out)["cones"]
    assert len(built) == len({(e, w) for e, w, _ in built}) == len(etas) * cones == node_sets
    assert {e for e, _, _ in built} == etas
    assert sum(decomposed) == sum(n * (3 if e in zeta_etas else 1) for e, _, n in built)


# -- determinism and console script ---------------------------------------------------

def test_repeated_runs_byte_identical():
    argv = ["sigma", "--preset", "qwz", "--params", "u=-2,v1=2,v2=1"]
    first = run_script(*argv)
    second = run_script(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "sigma" in json.loads(first.stdout)


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: importing it would take most of the
    # start-up time of every command
    probe = ("import conecond.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    child = run_child([sys.executable, "-c", probe])
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_console_script_validate_exit_codes():
    ok = run_script("validate", "--preset", "haldane")
    assert ok.returncode == 0
    bad = run_script("validate", "--preset", "nosuch")
    assert bad.returncode == 1


def test_sigma_closed_refuses_csv(capsys, tmp_path, monkeypatch):
    # the CSV holds the Kubo sigma_hat sequence, which the closed form has not
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sigma", "--preset", "qwz", "--params", "u=-2",
                             "--grid", "16", "--csv", "seq.csv")
    assert code == 1 and out == ""
    assert "--csv" in err and "sigma_hat" in err
    assert list(tmp_path.iterdir()) == []
