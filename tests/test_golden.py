"""Reduced-grid Kubo and verify results pinned to recorded values.

The values were recorded from the code before its per-point layers (the H/J
assembly, the two-band block kernel and the refinement hit test) were
rewritten for speed, with results meant to be unchanged.  They pin those
rewrites to 1e-12 relative: the sums and their companion differences move
only by rounding.  Grids are 16 x 16 base grids and three eta values, so the
runs take about a second each; the accuracy against the analytic values is
the acceptance suite's business, not this file's.
"""

import json

import pytest

from conecond.cli import main as cli_main

ETA_SEQ = "0.2,0.1,0.05"
RTOL = 1e-12


def run_report(capsys, *argv):
    code = cli_main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def assert_close(got, want, what):
    assert abs(got - want) <= RTOL * abs(want), (what, got, want)


# (exit code, sigma, per direction the (sigma_hat, quad_error) of each eta step)
KUBO_GOLDEN = {
    "honeycomb": (
        ["--preset", "haldane", "--params", "t1=1.0,t2=0.1,phi=0.0,M=0.0"],
        0,
        {"11": 0.1250776338446863, "22": 0.12509937780293634},
        {"11": [(0.12481895054235748, 0.005135297393927818),
                (0.12494829219352188, 0.03393915104009215)],
         "22": [(0.12485524813527049, 0.07991901239146393),
                (0.12497731296910342, 0.17320413180911265)]},
    ),
    "checkerboard": (
        ["--preset", "qwz", "--params", "u=-2.0,v1=2.0,v2=1.0"],
        3,   # three eta values are too few for the convergence test
        {"11": 0.12463944539057414, "22": 0.031245625611915906},
        {"11": [(0.12529341430547292, 0.5204482876799388),
                (0.12496642984802353, 1.2249405047037754)],
         "22": [(0.033480597110444044, 0.009411611173867351),
                (0.032363111361179975, 0.007747539453485386)]},
    ),
}


@pytest.mark.parametrize("name", sorted(KUBO_GOLDEN))
def test_sigma_kubo_reduced_grid_golden(capsys, name):
    model_args, code_want, sigma, steps = KUBO_GOLDEN[name]
    code, report = run_report(capsys, "sigma", *model_args, "--method", "kubo",
                              "--directions", "11,22", "--eta-seq", ETA_SEQ,
                              "--grid", "16")
    assert code == code_want
    for d, want in sigma.items():
        assert_close(report["sigma"][d], want, f"sigma{d}")
        got = report["sigma_hat"][d]
        assert len(got) == len(steps[d])
        for step, (s_hat, quad) in zip(got, steps[d]):
            assert_close(step["sigma_hat"], s_hat, f"sigma_hat{d}")
            assert_close(step["quad_error"], quad, f"quad_error{d}")


# check name -> (discrepancy, status); fjl_vs_ftilde's discrepancy is the
# rounding of two assemblies of one integral, pinned below 1e-14 instead
VERIFY_GOLDEN = {
    "schwinger_vs_f0": (0.0008888369974708876, "pass"),
    "singular_regular_flatness": (3.207891773854277e-05, "pass"),
    "zeta_vs_fsing_sigma": (0.0008542589144273915, "pass"),
    "closed_vs_kubo": (0.0011630886484298943, "fail"),
}


def test_verify_critical_haldane_reduced_grid_golden(capsys):
    # the critical Haldane line with one cone; closed_vs_kubo fails only
    # because three eta values leave the extrapolation unconverged
    code, report = run_report(
        capsys, "verify", "--preset", "haldane", "--params",
        "t1=1.0,t2=0.1,phi=1.5707963267948966,M=0.5196152422706632",
        "--eta-seq", ETA_SEQ, "--grid", "16")
    assert code == 2 and report["cones"] == 1
    checks = {c["name"]: c for c in report["checks"]}
    assert set(checks) == set(VERIFY_GOLDEN) | {"fjl_vs_ftilde"}
    assert checks["fjl_vs_ftilde"]["status"] == "pass"
    assert checks["fjl_vs_ftilde"]["discrepancy"] < 1e-14
    for name, (disc, status) in VERIFY_GOLDEN.items():
        assert checks[name]["status"] == status, name
        assert_close(checks[name]["discrepancy"], disc, name)
