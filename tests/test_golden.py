"""Reduced-grid Kubo and verify results pinned to recorded values.

The values were re-recorded when GridPolicy's core radius was sized by the
region the resolution gate inspects (R_core = 5 eta / sqrt(lambda*), before
8 eta / sqrt(lambda*)), which moves every refined grid and so every value
here on purpose.  The checkerboard's were re-recorded again when the core
levels came to measure each cone in its own metric Q / lambda* (the gate's
ellipse, not the disk around it): that moves only the grids of anisotropic
cones, so the honeycomb and verify values stayed as they were.  They pin
the per-point layers (the H/J assembly, the two-band Pauli kernel and the
refinement hit test) to 1e-12 relative.  A rewrite of those layers that
changes only rounding moves the sums by a few ulps, but it can move a
pinned difference of nearly equal sums (a quad_error, a verify
discrepancy) by far more than 1e-12 relative: the single-path H/J assembly
(one Fourier sum over distinct displacements) moved three of them by
1.5e-12 to 1.5e-11 and re-recorded just those.  The Gauss-Newton cone
locator, which moved the located cone by ~2e-14, moved three verify
values by 1.6e-12 to 3.8e-11 and re-recorded those.  The real-arithmetic
assembly (cos/sin phase columns and one real product per stack, the same
phases as the complex exponential) moved zeta_vs_fsing_sigma by 1.8e-12
and re-recorded only it; every other value here moved by at most 5.4e-13.
The two-band kernel in Pauli form (no eigenvectors: the pair products,
|(J_j)_pq|^2 and the occupied traces from the Pauli vectors of H, the
currents and d^2H) moved verify's closed_vs_kubo by 6.0e-12, from
0.0014533299041357087 to 0.0014533299041270488, and re-recorded only it;
every other value here moved by at most 8.4e-13 (checkerboard
quad_error22 of the second step).  The B_eps band pair on the same Pauli
rows (HoppingModel._pauli_rows, not the Pauli parts of assembled complex
stacks, and no eigenvectors) moved zeta_vs_fsing_sigma by 6.2e-12, from
0.0008542589144061585 to 0.0008542589144114321, through the rounding of
zeta's +-fd_step difference of slopes, and re-recorded only it; every other
value here was unchanged.  numpy's sums in place of the fixed pairwise tree
(per chunk, then chunk totals added in order), r = sqrt(d . d) in place of
hypot in the two-band split, and Pauli tables that hold (s0, sx, sy, sz)
moved the checkerboard's second-step quad_error22 from 0.003958830651616951
to 0.0039588306516125105 and verify's singular_regular_flatness from
5.156981087436896e-05 to 5.156981087442447e-05, and re-recorded those two;
every other value here moved by less than 1e-12.  The two-band cone fit
on one _eigvals of all its circles (the Pauli-row split, not eigh per
circle) moved verify's zeta_vs_fsing_sigma by 4.5e-12, from
0.0008542589144114321 to 0.0008542589144153179, and closed_vs_kubo by
1.1e-12, from 0.0014533299041270488 to 0.0014533299041254966, through the
rounding of the fitted Q (~1e-14 relative), and re-recorded those two;
every other value here moved by at most 5.4e-13.  A move beyond ~1e-9
relative is not rounding.
Grids are 16 x 16 base grids and three eta values, so the runs take about
a second each; the accuracy against the analytic values is the acceptance
suite's business, not this file's.
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
        {"11": 0.12477376819251595, "22": 0.12492607166067593},
        {"11": [(0.1245361064420375, 0.01479963844860932),
                (0.12465493731727673, 0.03990198610238194)],
         "22": [(0.12458862919948022, 0.0784144517489116),
                (0.12475735043007807, 0.17660700781938266)]},
    ),
    "checkerboard": (
        ["--preset", "qwz", "--params", "u=-2.0,v1=2.0,v2=1.0"],
        3,   # three eta values are too few for the convergence test
        {"11": 0.12420022009507647, "22": 0.031144244262495957},
        {"11": [(0.12484773733269616, 0.6065923160780351),
                (0.12452397871388632, 1.2962790053165563)],
         "22": [(0.03337388400816488, 0.005477511248160871),
                (0.03225906413533042, 0.0039588306516125105)]},
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
    "schwinger_vs_f0": (0.0009495016862032246, "pass"),
    "singular_regular_flatness": (5.156981087442447e-05, "pass"),
    "zeta_vs_fsing_sigma": (0.0008542589144153179, "pass"),
    "closed_vs_kubo": (0.0014533299041254966, "fail"),
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
