"""The benchmark's own checks must bite: every kind of wrong result is counted
as a failed operation.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def fake_main(report, code=0, stderr=""):
    """A stand-in for conecond.cli.main that prints ``report`` and exits ``code``."""

    def main(argv):
        print(json.dumps(report))
        print(stderr, file=sys.stderr)
        return code

    return main


def closed_op(tmp_path, name):
    return next(op for op in wl.closed_sweep(wl.DEFAULT_SEED, str(tmp_path)) if op.name == name)


def kubo_op(name):
    return next(op for op in wl.kubo_cones(wl.DEFAULT_SEED, "") if op.name == name)


def closed_report(sigma11, sigma22, cones):
    return {"sigma": {"11": sigma11, "22": sigma22}, "cones": cones}


def kubo_report(sigma, cones, converged=True):
    return {"sigma": sigma, "converged": {k: converged for k in sigma}, "cones": cones}


def verify_report(all_pass=True, cones=1, disc=2.3e-4):
    return {"all_pass": all_pass, "cones": cones,
            "checks": [{"name": "closed_vs_kubo", "discrepancy": disc}]}


def test_analytic_outputs_pass(tmp_path):
    """Control: the analytic values themselves pass every check."""
    op = closed_op(tmp_path, "honeycomb_t2_0")
    assert wl.run_operation(op, fake_main(closed_report(0.125, 0.125, 2))).ok
    op = kubo_op("checkerboard_kubo")
    assert wl.run_operation(op, fake_main(kubo_report({"11": 0.125, "22": 0.03125}, 1))).ok
    op = wl.verify_critical(wl.DEFAULT_SEED, "")[0]
    outcome = wl.run_operation(op, fake_main(verify_report()))
    assert outcome.ok and outcome.deviations == [2.3e-4]


def test_sigma_outside_tolerance_fails(tmp_path):
    op = closed_op(tmp_path, "honeycomb_t2_0")
    outcome = wl.run_operation(op, fake_main(closed_report(0.125 + 2e-3, 0.125, 2)))
    assert not outcome.ok and not wl.is_expected(op, outcome)
    op = kubo_op("honeycomb_kubo")
    outcome = wl.run_operation(op, fake_main(kubo_report({"11": 0.125 * 1.03, "22": 0.125}, 2)))
    assert not outcome.ok


def test_wrong_cone_count_fails(tmp_path):
    op = closed_op(tmp_path, "honeycomb_t2_0")
    assert not wl.run_operation(op, fake_main(closed_report(0.125, 0.125, 1))).ok
    op = wl.verify_critical(wl.DEFAULT_SEED, "")[0]
    assert not wl.run_operation(op, fake_main(verify_report(cones=2))).ok


@pytest.mark.parametrize("code", [1, 2, 3, 4])
def test_nonzero_exit_fails(tmp_path, code):
    op = closed_op(tmp_path, "honeycomb_t2_0")
    assert not wl.run_operation(op, fake_main(closed_report(0.125, 0.125, 2), code)).ok
    op = kubo_op("honeycomb_kubo")
    assert not wl.run_operation(op, fake_main(kubo_report({"11": 0.125, "22": 0.125}, 2),
                                              code)).ok


def test_not_converged_fails():
    op = kubo_op("honeycomb_kubo")
    report = kubo_report({"11": 0.125, "22": 0.125}, 2, converged=False)
    assert not wl.run_operation(op, fake_main(report)).ok


def test_verify_failure_fails():
    op = wl.verify_critical(wl.DEFAULT_SEED, "")[0]
    assert not wl.run_operation(op, fake_main(verify_report(all_pass=False))).ok


def test_critical_tilt_bare_value_error_fails(tmp_path):
    """The kept-failing operation, run through the real CLI: today a bare
    ValueError escapes main; it counts as failed but is the known fault."""
    import conecond.cli

    op = closed_op(tmp_path, "qwz_tilt_critical")
    outcome = wl.run_operation(op, conecond.cli.main)
    assert not outcome.ok
    assert outcome.error == "ValueError" and wl.is_expected(op, outcome)


def test_critical_tilt_typed_refusal_passes(tmp_path):
    op = closed_op(tmp_path, "qwz_tilt_critical")
    refusal = fake_main({}, 4, "error: NotConical: cone condition violated")
    assert wl.run_operation(op, refusal).ok


def test_value_error_elsewhere_is_not_the_known_fault(tmp_path):
    def raising(argv):
        raise ValueError("boom")

    op = closed_op(tmp_path, "honeycomb_t2_0")
    outcome = wl.run_operation(op, raising)
    assert not outcome.ok and not wl.is_expected(op, outcome)


def test_tilted_model_file_is_the_tilted_preset(tmp_path):
    """The model file of a tilted operation is preset_qwz plus tau sin(k1)."""
    import numpy as np
    import conecond as cc

    u, v1, v2, tau = -2.0, 1.5, 1.0, 0.4
    model = cc.model_from_dict(wl.tilted_qwz(u, v1, v2, tau))
    ks = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(16, 2))
    expected = cc.preset_qwz(u, v1, v2).h_batch(ks) + (
        tau * np.sin(ks[:, 0])[:, None, None] * np.eye(2))
    assert np.abs(model.h_batch(ks) - expected).max() < 1e-12


def test_inputs_repeat_for_a_seed(tmp_path):
    def argvs(seed):
        return [op.argv for op in wl.closed_sweep(seed, str(tmp_path))]

    assert argvs(7) == argvs(7) and argvs(7) != argvs(8)



def test_layer_metrics_self_times():
    """Self time is net of children and of their bookkeeping; points of
    eigensolves under fjj_sing/zeta_jj count as sing_points."""
    import spans

    rows = [
        ["op:x", 0.0, 10.0, -1, 7, 0.0],
        ["cli.main", 0.0, 10.0, 0, 0, 0.0],
        ["kubo.fjl_eta", 1.0, 5.0, 1, 0, 0.0],
        ["bloch.h_batch", 1.0, 2.0, 2, 8, 0.5],
        ["eig", 3.0, 4.0, 2, 8, 0.0],
        ["kubo.fjj_sing", 6.0, 9.0, 1, 0, 0.0],
        ["eig", 6.0, 7.0, 5, 6, 0.0],
    ]
    m = spans.layer_metrics(rows)
    assert m["kubo.pair_sum_self_s"] == pytest.approx(4.0 - 1.5 - 1.0)
    assert m["kubo.sing_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert (m["eig.calls"], m["eig.points"], m["kubo.sing_points"]) == (2, 14, 6)
    assert m["eig.distinct_share"] == pytest.approx(7 / 14)


def test_instrument_counts_and_restores(tmp_path):
    import conecond.cli
    import spans

    op = closed_op(tmp_path, "honeycomb_t2_0")
    original = conecond.cli.main
    tracer = spans.Tracer()
    with spans.instrument(tracer), tracer.operation("op:honeycomb"):
        assert wl.run_operation(op, conecond.cli.main).ok
    assert conecond.cli.main is original
    m = spans.layer_metrics(tracer.spans)
    assert m["cones.fit_calls"] == 2 and m["cones.nm_evals"] > 0
    assert 0 < m["eig.distinct_share"] <= 1 and m["kubo.fjl_calls"] == 0


def test_reference_seconds_scales_by_local_kernel_time():
    import pace

    pacer = pace.Pacer.__new__(pace.Pacer)
    ref = pace.KERNEL_REF_S
    # kernel at the reference speed, then twice as slow, then four times
    pacer.samples = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + 4 * ref)]
    raw, scaled = pacer.reference_seconds(ref, 2.0)
    assert raw == pytest.approx(2.0 - 3 * ref)
    first, second = 1.0 - ref, 1.0 - 2 * ref
    assert scaled == pytest.approx(first / 1.5 + second / 3.0)


def test_pacer_samples_while_ticking():
    import time

    import pace

    pacer = pace.Pacer(interval=0.05)
    pacer.sample()
    t0 = time.perf_counter()
    with pacer.ticking():
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    t1 = time.perf_counter()
    pacer.sample()
    assert len(pacer.samples) >= 4
    raw, scaled = pacer.reference_seconds(t0, t1)
    kernel = sum(e - s for s, e in pacer.samples if t0 <= s < t1)
    assert raw == pytest.approx(t1 - t0 - kernel)
    assert scaled > 0
