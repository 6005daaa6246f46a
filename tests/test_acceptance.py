"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import math
import time

import numpy as np
import pytest

import steerkit as sk
from steerkit import cli
from helpers import (bob_branch, criteria_for_state, haar_unitary2, joint_probability,
                     locally_rotated, perturb_low_grid, schmidt_product)

FOUR_PI = 4.0 * np.pi


def report(num, ok, detail):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_werner_steering_threshold():
    start = time.perf_counter()
    found = sk.critical_noise(sk.werner_family(), sk.Criterion.GEOMETRIC_STEERING)
    elapsed = time.perf_counter() - start
    ok = abs(found - 0.5) <= 1e-8 and elapsed < 1.0
    report(1, ok, f"werner steering threshold {found:.10f} in {elapsed:.3f}s")


def test_criterion_2_werner_criteria_ladder():
    thresholds = {}
    for criterion, expected in (
        (sk.Criterion.GEOMETRIC_ENTANGLEMENT, 1.0 / 3.0),
        (sk.Criterion.GEOMETRIC_STEERING, 0.5),
        (sk.Criterion.CHSH_HORODECKI, 1.0 / math.sqrt(2.0)),
        (sk.Criterion.GEOMETRIC_BELL, 0.75),
    ):
        found = sk.critical_noise(sk.werner_family(), criterion)
        thresholds[criterion] = found
        assert found == pytest.approx(expected, abs=1e-8), criterion
    ordered = [
        thresholds[sk.Criterion.GEOMETRIC_ENTANGLEMENT],
        thresholds[sk.Criterion.GEOMETRIC_STEERING],
        thresholds[sk.Criterion.CHSH_HORODECKI],
        thresholds[sk.Criterion.GEOMETRIC_BELL],
    ]
    ok = ordered == sorted(ordered) and len(set(ordered)) == 4
    report(2, ok, "werner ladder 1/3 < 1/2 < 1/sqrt(2) < 3/4: "
           + ", ".join(f"{v:.8f}" for v in ordered))


def test_criterion_3_noisy_schmidt_threshold_curve():
    start = time.perf_counter()
    for alpha in (np.pi / 5, np.pi / 4, np.pi / 3, np.pi / 2):
        family = sk.noisy_schmidt_family(float(alpha))
        found = sk.critical_noise(family, sk.Criterion.GEOMETRIC_STEERING)
        expected = 3.0 / (2.0 * (1.0 + 2.0 * math.sin(alpha) ** 2))
        assert found == pytest.approx(expected, abs=1e-8), alpha

    with pytest.raises(sk.NoDetection):
        sk.critical_noise(
            sk.noisy_schmidt_family(np.pi / 8), sk.Criterion.GEOMETRIC_STEERING
        )

    # boundary angle: analytic threshold exactly 1; the strict comparison
    # reports v = 1 as boundary and critical_noise finds no detection
    boundary_family = sk.noisy_schmidt_family(np.pi / 6)
    assert 3.0 / (2.0 * (1.0 + 2.0 * math.sin(np.pi / 6) ** 2)) == pytest.approx(
        1.0, abs=1e-15
    )
    margin = criteria_for_state(boundary_family.state_at(1.0))[3][
        sk.Criterion.GEOMETRIC_STEERING][2]
    assert sk.criteria.boundary(margin) and not sk.criteria.detected(margin)
    with pytest.raises(sk.NoDetection):
        sk.critical_noise(boundary_family, sk.Criterion.GEOMETRIC_STEERING)

    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report(3, ok, f"noisy-schmidt curve + pi/8 none + pi/6 boundary in {elapsed:.3f}s")


def test_criterion_4_norm_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = sk.sphere_grid(4)
    worst = 0.0
    for _ in range(100):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        eq = sk.correlation_fn(tensor)
        numeric = sk.inner_product(eq, eq, grid)
        analytic = sk.norm_eq_analytic(tensor)
        worst = max(worst, abs(numeric - analytic) / analytic)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(4, ok, f"norm identity on 100 states, worst rel defect {worst:.2e} "
           f"in {elapsed:.3f}s")


def test_criterion_5_orthogonality_relation():
    moments = sk.integrate(sk.sphere_grid(8), lambda p: p[:, :, None] * p[:, None, :])
    worst = float(np.max(np.abs(moments - (FOUR_PI / 3.0) * np.eye(3))))
    assert worst <= 1e-12
    report(5, worst <= 1e-12, f"orthogonality defect {worst:.2e} over all (k,l)")


def test_criterion_6_ns_bound_and_tightness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    trials = 0
    violations = 0
    worst_excess = -math.inf
    worst_saturation = 0.0
    for _ in range(20):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        schmidt = sk.svd3(tensor.block)
        bound = sk.ns_bound(schmidt)
        for model in sk.random_models(rng, 500):
            lhs = sk.model_state_overlap(tensor, model)
            excess = (lhs - bound) / bound
            violations += 0 if excess <= 1e-6 else 1
            worst_excess = max(worst_excess, excess)
            trials += 1
        saturating = sk.saturating_model(schmidt)
        lhs = sk.model_state_overlap(tensor, saturating)
        worst_saturation = max(worst_saturation, abs(lhs - bound) / bound)
    elapsed = time.perf_counter() - start
    ok = (
        trials == 10_000
        and violations == 0
        and worst_excess <= 1e-6
        and worst_saturation <= 1e-6
        and elapsed < 60.0
    )
    report(6, ok, f"{trials} models, 0 violations, worst excess "
           f"{worst_excess:.2e}, saturation defect {worst_saturation:.2e}, "
           f"{elapsed:.1f}s")


def born_rule_chsh(state, schmidt):
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') at Horodecki's settings a = u1,
    a' = u2, b, b' = c v1 +- s v2, each E summed from joint probabilities."""
    (u1, u2, _), (v1, v2, _) = schmidt.u, schmidt.v
    c, s = np.array([schmidt.t1, schmidt.t2]) / math.hypot(schmidt.t1, schmidt.t2)

    def e(x, y):
        return sum(r1 * r2 * joint_probability(state, x, y, r1, r2)
                   for r1 in (1, -1) for r2 in (1, -1))

    b, b_prime = c * v1 + s * v2, c * v1 - s * v2
    return e(u1, b) + e(u1, b_prime) + e(u2, b) - e(u2, b_prime)


def test_criterion_7_chsh_misses_steering():
    # The paper's gap: Werner states with 1/2 < v < 1/sqrt(2) are steerable by
    # the geometric criterion, yet their CHSH maximum 2 sqrt(2) v stays below 2.
    values, gap = {}, []
    for v in (0.45, 0.6, 0.7, 0.75, 0.9):
        state = sk.werner(v)
        _, schmidt, _, rows = criteria_for_state(state)
        values[v] = born_rule_chsh(state, schmidt)
        assert values[v] == pytest.approx(2.0 * math.sqrt(2.0) * v, abs=1e-12), v
        steering = sk.criteria.detected(rows[sk.Criterion.GEOMETRIC_STEERING][2])
        assert steering == (v > 0.5), v
        if steering and values[v] < 2.0:
            gap.append(v)
    ok = gap == [0.6, 0.7]
    report(7, ok, "born-rule chsh " + ", ".join(f"v={v}: {s:.12f}" for v, s in values.items())
           + f"; steerable below 2 at v = {gap}")


def test_criterion_8_proof_constants():
    grid = sk.sphere_grid(8, breakpoints=(0.0,))
    integral = sk.integrate(grid, lambda p: np.abs(p[:, 2]))
    assert abs(integral - 2.0 * np.pi) <= 1e-12

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        schmidt = sk.svd3(sk.pauli_expansion(sk.random_density_matrix(rng)).block)
        ratio = sk.ns_bound(schmidt) / sk.lhv_bound(schmidt)
        worst = max(worst, abs(ratio - 2.0 / 3.0))
    # exact rational identity; in doubles the computed ratio may differ
    # from fl(2/3) by one final-bit rounding
    ok = worst <= 5e-16
    report(8, ok, f"|cos| integral defect {abs(integral - 2 * np.pi):.2e}, "
           f"bound ratio dev {worst:.2e}")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(42)

    worst_svd = 0.0
    for _ in range(1000):
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        form = sk.svd3(m)
        worst_svd = max(
            worst_svd,
            float(np.max(np.abs(schmidt_product(form) - m))),
            float(np.max(np.abs(form.u @ form.u.T - np.eye(3)))),
            float(np.max(np.abs(form.v @ form.v.T - np.eye(3)))),
        )
    assert worst_svd <= 1e-12

    worst_ns = 0.0
    for _ in range(200):
        state = sk.random_density_matrix(rng)
        x = sk.uniform_sphere(1, rng)[0]
        mixture = bob_branch(state, x, 1)[1] + bob_branch(state, x, -1)[1]
        marginal = sk.pauli_expansion(state).full[0, 1:]
        worst_ns = max(worst_ns, float(np.max(np.abs(mixture - marginal))))
    assert worst_ns <= 1e-12

    worst_value = 0.0
    for _ in range(100):
        state = sk.random_density_matrix(rng)
        rotated = locally_rotated(state, haar_unitary2(rng), haar_unitary2(rng))
        for (lhs, bound, margin), (lhs_r, bound_r, margin_r) in zip(
            criteria_for_state(state)[3].values(),
            criteria_for_state(rotated)[3].values(),
        ):
            assert sk.criteria.detected(margin) == sk.criteria.detected(margin_r)
            assert sk.criteria.boundary(margin) == sk.criteria.boundary(margin_r)
            diff = max(abs(lhs - lhs_r), abs(bound - bound_r))
            worst_value = max(worst_value, diff)
    assert worst_value <= 1e-10

    report(9, True, f"svd defect {worst_svd:.2e} (1000), non-signaling "
           f"{worst_ns:.2e} (200), rotation-invariance {worst_value:.2e} (100)")


def test_criterion_10_injected_fault_negative_control(capsys, monkeypatch):
    perturb_low_grid(monkeypatch)
    code = cli.main(["verify", "--level", "fast"])
    out = capsys.readouterr().out
    ok = code != 0 and code == 3 and "FAIL" in out
    report(10, ok, f"verification with injected fault exits {code}")
