import dataclasses

import numpy as np
import pytest

from collabpred.bayes import run_bayes_protocol
from collabpred.core import BucketingSpec, ConversationTranscript, SequenceDataset
from collabpred.datagen import rho_prior
from collabpred.protocol import final_regret_report, joint_benchmark
from collabpred.verify import (
    check_weak_is_weaker,
    check_weak_learning_extraction,
    least_errors,
    random_distribution,
    run_all,
    substitutes,
)
from collabpred.weaklearn import (
    FiniteDistribution,
    LinearClassSpec,
    UncertifiedFit,
    constrained_lsq,
    gen_counterexample_rho,
    gen_swap_necessity,
    gen_xor_counterexamples,
    joint_lsq,
    weak_learner_extract,
)


def _enum_error(dist, preds):
    return float(dist.p @ (preds - dist.y) ** 2)


class TestFiniteDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteDistribution(
                xa=np.zeros((2, 1)), xb=np.zeros((2, 1)),
                y=np.array([0.0, 1.0]), p=np.array([0.5, 0.4]),
            )

    @pytest.mark.parametrize("field", ["p", "xa", "xb", "y"])
    def test_nan_is_rejected(self, field):
        # NaN fails every comparison, so a guard `p.min() < 0` lets it through
        atoms = {"xa": [[0.0], [1.0]], "xb": [[0.0], [1.0]], "y": [0.0, 1.0], "p": [0.5, 0.5]}
        atoms[field] = np.full(np.shape(atoms[field]), np.nan)
        with pytest.raises(ValueError, match="probabilit|finite"):
            FiniteDistribution(**atoms)

    def test_features_are_never_transposed(self):
        # three atoms, two features: a (2, 3) block is not read as (3, 2)
        y, p = np.array([0.0, 0.5, 1.0]), np.full(3, 1 / 3)
        with pytest.raises(ValueError, match=r"xa has shape \(2, 3\), expected \(3, d\)"):
            FiniteDistribution(xa=np.zeros((2, 3)), xb=np.zeros((3, 1)), y=y, p=p)
        dist = FiniteDistribution(xa=np.arange(3.0), xb=np.zeros((3, 2)), y=y, p=p)
        assert dist.xa.shape == (3, 1) and dist.xa[:, 0].tolist() == [0.0, 1.0, 2.0]


class TestSolverInputShapes:
    """A 1-D feature array is one column; anything else must be (n, spec.d)."""

    def test_one_dimensional_features_are_one_column(self):
        x, y = np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0])
        spec = LinearClassSpec(d=1, C=1.0)
        assert constrained_lsq(x, y, spec=spec).error == constrained_lsq(x[:, None], y, spec=spec).error
        joint = joint_lsq(x, -x, y, None, spec, spec)
        assert joint.error == joint_lsq(x[:, None], -x[:, None], y, None, spec, spec).error

    def test_transposed_features_raise(self):
        rng = np.random.default_rng(3)
        xa, xb, y = rng.uniform(-0.5, 0.5, (5, 2)), rng.uniform(-0.5, 0.5, (5, 2)), rng.uniform(size=5)
        spec = LinearClassSpec(d=2, C=1.0)
        with pytest.raises(ValueError, match=r"x has shape \(2, 5\), expected \(5, 2\)"):
            constrained_lsq(xa.T, y, spec=spec)
        with pytest.raises(ValueError, match=r"xa has shape \(2, 5\), expected \(5, 2\)"):
            joint_lsq(xa.T, xb.T, y, None, spec, spec)
        with pytest.raises(ValueError, match=r"xb has shape \(2, 5\), expected \(5, 2\)"):
            joint_lsq(xa, xb.T, y, None, spec, spec)

    def test_width_must_match_the_spec(self):
        x, y = np.zeros((5, 2)), np.zeros(5)
        wide = LinearClassSpec(d=3, C=1.0)
        with pytest.raises(ValueError, match=r"x has shape \(5, 2\), expected \(5, 3\)"):
            constrained_lsq(x, y, spec=wide)
        with pytest.raises(ValueError, match=r"xb has shape \(5, 2\), expected \(5, 3\)"):
            joint_lsq(x, x, y, None, LinearClassSpec(d=2), wide)
        with pytest.raises(ValueError, match=r"x has shape \(5,\), expected \(5, 3\)"):
            constrained_lsq(np.zeros(5), y, spec=wide)


class TestConstrainedLsq:
    def test_constant_label(self):
        spec = LinearClassSpec(d=1, C=1.0)
        fit = constrained_lsq(np.array([[0.1], [0.5], [-0.3]]), np.array([0.7, 0.7, 0.7]), spec=spec)
        assert fit.theta[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.7)
        assert fit.error == pytest.approx(0.0, abs=1e-18)

    def test_scalar_identity(self):
        spec = LinearClassSpec(d=1, C=1.0)
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        fit = constrained_lsq(x, y, spec=spec)
        assert fit.theta[0] == pytest.approx(1.0)
        assert fit.error == pytest.approx(0.0, abs=1e-18)

    def test_rho_bob_side_closed_form(self):
        # slope 2ρ/(ρ²+1) and residual ρ²/(ρ²+1), confirmed by the 4-atom
        # weighted enumeration
        rho = 2.0
        dist = gen_counterexample_rho(rho)
        spec = LinearClassSpec(d=1, C=1.0)
        fit = constrained_lsq(dist.xb, dist.y, dist.p, spec)
        assert fit.theta[0] == pytest.approx(2 * rho / (rho**2 + 1), abs=1e-12)
        assert fit.error == pytest.approx(rho**2 / (rho**2 + 1), abs=1e-12)
        preds = dist.xb @ fit.theta + fit.intercept
        assert _enum_error(dist, preds) == pytest.approx(fit.error)

    def test_degenerate_design_minimum_norm(self):
        # duplicate columns: only θ₁ + θ₂ = 1 (with b = 0) fits exactly, and
        # the minimum-norm solution splits it evenly within the bound
        spec = LinearClassSpec(d=2, C=1.0)
        x = np.array([[1.0, 1.0], [2.0, 2.0]]) / 4.0
        y = np.array([0.25, 0.5])
        fit = constrained_lsq(x, y, spec=spec)
        assert not fit.projected
        np.testing.assert_allclose(fit.theta, [0.5, 0.5], atol=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.error == pytest.approx(0.0, abs=1e-20)

    def test_projection_kicks_in(self):
        spec = LinearClassSpec(d=1, C=0.5)
        x = np.array([[0.5], [-0.5]])
        y = np.array([1.0, -1.0])  # unconstrained slope 2 > C
        fit = constrained_lsq(x, y, spec=spec)
        assert np.linalg.norm(fit.theta) <= 0.5 + 1e-9
        assert fit.projected

    def test_intercept_collinear_column_takes_zero_multiplier(self):
        # the minimum-norm (θ, b) = (1.2, 2.4) breaks ‖θ‖ ≤ 1, yet θ = 0,
        # b = mean(y) attains the same error: the bound does not bind
        spec = LinearClassSpec(d=1, C=1.0)
        x = np.full((4, 1), 0.5)
        y = np.array([2.0, 3.0, 3.5, 3.5])
        fit = constrained_lsq(x, y, spec=spec)
        assert fit.projected
        assert abs(fit.theta[0]) <= 1.0
        assert fit.error == pytest.approx(float(np.sum((y - y.mean()) ** 2)), abs=1e-12)
        assert fit.kkt_residual <= 1e-12

    def test_zero_weight_rows_are_ignored(self):
        spec = LinearClassSpec(d=2, C=0.5)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(6, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.1 * rng.standard_normal(6)
        w = np.array([0.3, 0.0, 0.2, 0.0, 0.4, 0.1])
        fit = constrained_lsq(x, y, w, spec)
        kept = constrained_lsq(x[w > 0], y[w > 0], w[w > 0], spec)
        assert fit.projected and kept.projected
        np.testing.assert_allclose(fit.theta, kept.theta, atol=1e-12)
        assert fit.intercept == pytest.approx(kept.intercept, abs=1e-12)
        assert fit.error == pytest.approx(kept.error, abs=1e-15)

    def test_single_row_fit(self):
        # the minimum-norm (θ, b) = 2.5·(0.6, 0.8, 1) breaks ‖θ‖ ≤ 1; centred,
        # the one row leaves a zero Gram, so θ = 0 and b alone fits it exactly
        x = np.array([[0.6, 0.8]])
        fit = constrained_lsq(x, np.array([5.0]), spec=LinearClassSpec(d=2, C=1.0))
        assert fit.projected
        np.testing.assert_array_equal(fit.theta, [0.0, 0.0])
        assert fit.intercept == 5.0
        assert fit.error == pytest.approx(0.0, abs=1e-24)

    def test_singular_centred_gram_projected(self):
        # duplicate columns: the exact fit θ₁ + θ₂ = 4 breaks ‖θ‖ ≤ 1, and the
        # centred Gram has rank 1, so the optimum splits the norm evenly,
        # θ = (1/√2, 1/√2), and b = ȳ − x̄ᵀθ = 3/2 − 3√2/8
        spec = LinearClassSpec(d=2, C=1.0)
        x = np.array([[1.0, 1.0], [2.0, 2.0]]) / 4.0
        y = np.array([1.0, 2.0])
        fit = constrained_lsq(x, y, spec=spec)
        assert fit.projected
        np.testing.assert_allclose(fit.theta, [2**-0.5, 2**-0.5], atol=1e-12)
        assert fit.intercept == pytest.approx(1.5 - 3.0 * 2**0.5 / 8.0, abs=1e-12)
        assert fit.error == pytest.approx(2.0 * (0.5 - 2**0.5 / 8.0) ** 2, abs=1e-12)
        assert fit.kkt_residual <= 1e-12


class TestJointLsq:
    def test_intercept_collinear_column_reaches_unconstrained_optimum(self):
        # y = 1.5 + 0.3·x_b is fitted exactly by θ_a = 1.5, b = 0.75 (x_a ≡ ½),
        # while the minimum-norm solution has b = 1.2 > 1
        rng = np.random.default_rng(5)
        xa = np.full((8, 1), 0.5)
        xb = rng.uniform(-1, 1, size=(8, 1))
        y = 1.5 + 0.3 * xb[:, 0]
        spec = LinearClassSpec(d=1, C=2.0)
        fit = joint_lsq(xa, xb, y, None, spec, spec)
        assert fit.converged
        assert fit.error == pytest.approx(0.0, abs=1e-12)
        assert abs(fit.intercept) <= 1.0 and abs(fit.theta_a[0]) <= 2.0
        assert fit.kkt_residual <= 1e-12

    def test_zero_weight_rows_are_ignored(self):
        dist = gen_counterexample_rho(2.0)
        spec = LinearClassSpec(d=1, C=1.0)

        def pad(a, v):
            return np.concatenate([a, np.full((2,) + a.shape[1:], v)])

        fit = joint_lsq(pad(dist.xa, 9.0), pad(dist.xb, -9.0), pad(dist.y, 5.0),
                        pad(dist.p, 0.0), spec, spec)
        assert fit.converged
        assert fit.error == pytest.approx(9.0 / 16.0, abs=1e-12)

    def test_coupled_blocks_where_secular_step_fails_to_rise(self):
        # two rows, three binding balls: the secular Newton step on the block
        # multipliers does not raise the dual, so the Newton step on q is used
        xa = np.array([[0.43473533, 0.80083334], [0.43473533, 0.50227933]])
        xb = np.array([[0.78540433, -0.16992261], [0.55873673, 0.99437366]])
        y = np.array([-2.79873597, -7.24181747])
        fit = joint_lsq(xa, xb, y, None, LinearClassSpec(d=2, C=2.75),
                        LinearClassSpec(d=2, C=3.25))
        assert fit.converged
        assert fit.kkt_residual <= 1e-9
        assert np.linalg.norm(fit.theta_a) <= 2.75 * (1.0 + 1e-12)
        assert np.linalg.norm(fit.theta_b) <= 3.25 * (1.0 + 1e-12)
        assert abs(fit.intercept) <= 1.0

    def test_singular_gram_with_feasible_interpolant(self):
        # three rows, six coefficients: exact fits form a plane and some lie in
        # all three balls; the dual is nearly flat along the Gram's null space
        xa = np.array([[0.91253451, -0.52637899, 0.60254893],
                       [0.91253451, -0.81174272, -0.13374612],
                       [0.91253451, -0.68052217, 0.4691543]])
        xb = np.array([[-0.77265596, -0.21754362],
                       [0.03348037, -0.13874396],
                       [0.17359714, 0.47567557]])
        y = np.array([2.9844608, 1.80834419, 2.07958782])
        w = np.array([0.35950965, 0.31606635, 0.324424])
        fit = joint_lsq(xa, xb, y, w, LinearClassSpec(d=3, C=1.1),
                        LinearClassSpec(d=2, C=1.6))
        assert fit.converged
        assert fit.error == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(fit.theta_a) <= 1.1 * (1.0 + 1e-12)
        assert np.linalg.norm(fit.theta_b) <= 1.6 * (1.0 + 1e-12)
        assert abs(fit.intercept) <= 1.0


class TestUncertifiedFitsAreNeverSilent:
    """With an impossible tolerance every bounded fit fails its certificate."""

    @pytest.fixture(autouse=True)
    def _no_certificate(self, monkeypatch):
        import collabpred.weaklearn as weaklearn

        monkeypatch.setattr(weaklearn, "_KKT_RTOL", -1.0)

    def test_one_sided_fit_raises(self):
        spec = LinearClassSpec(d=1, C=0.5)
        with pytest.raises(UncertifiedFit, match="not certified"):
            constrained_lsq(np.array([[0.5], [-0.5]]), np.array([1.0, -1.0]), spec=spec)

    def test_closed_form_fit_needs_no_certificate(self):
        spec = LinearClassSpec(d=1, C=1.0)
        fit = constrained_lsq(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), spec=spec)
        assert not fit.projected and fit.kkt_residual == 0.0

    def test_joint_fit_reports_unconverged(self):
        dist = gen_counterexample_rho(2.0)
        spec = LinearClassSpec(d=1, C=1.0)
        fit = joint_lsq(dist.xa, dist.xb, dist.y, dist.p, spec, spec)
        assert not fit.converged
        with pytest.raises(UncertifiedFit, match="not certified"):
            least_errors(dist, 1.0)

    @pytest.mark.parametrize("check, instance", [
        (check_weak_learning_extraction, "attempt "),
        (check_weak_is_weaker, "trial "),
    ])
    def test_verify_checks_fail_naming_the_instance(self, check, instance):
        ok, detail = check()
        assert not ok
        assert detail.startswith(instance) and "not certified" in detail

    def test_bayes_joint_benchmark_raises(self):
        with pytest.raises(UncertifiedFit, match="not certified"):
            run_bayes_protocol(rho_prior(2.0), K=2, m=8)

    def test_rho_gains_raises(self):
        # at ρ = 2 both one-sided fits are closed form (slopes 0 and 0.8)
        # while the joint fit (θ = ∓4) lies on its norm bound
        with pytest.raises(UncertifiedFit, match="joint fit not certified: relative duality gap"):
            least_errors(gen_counterexample_rho(2.0), 1.0)

    def test_swap_necessity_regrets_raises(self, monkeypatch):
        # every fit of this instance is closed form at any C ≥ 1/2, so the
        # joint fit is marked uncertified by hand
        import collabpred.verify as verify

        real = verify.joint_lsq

        def uncertified(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False, kkt_residual=0.5)

        monkeypatch.setattr(verify, "joint_lsq", uncertified)
        with pytest.raises(UncertifiedFit, match="relative duality gap 5.000e-01"):
            least_errors(gen_swap_necessity()[0], 1.0)

    def test_final_regret_report_raises(self):
        # y = 1.3 − 0.4u − 0.4v with u, v ∈ [0.6, 1]: each one-sided fit has a
        # free intercept and slope 0.4, but the joint intercept 1.3 breaks
        # |b| ≤ 1, so the joint fit lies on that bound
        rng = np.random.default_rng(5)
        u, v = rng.uniform(0.6, 1.0, size=(2, 50))
        ds = SequenceDataset(u[:, None], v[:, None], 1.3 - 0.4 * u - 0.4 * v)
        tr = ConversationTranscript(np.full((50, 2), 0.5), ds.y)
        spec = LinearClassSpec(d=1, C=1.0)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.intercept == pytest.approx(1.0) and not fit.converged
        with pytest.raises(UncertifiedFit, match="joint fit not certified"):
            final_regret_report(tr, ds, spec, spec, BucketingSpec(g=0.5, m=2), 0.2)

    def test_verify_run_reports_fail_instead_of_raising(self):
        lines = []
        assert not run_all(printer=lines.append)
        assert len(lines) == 7
        assert lines[0].startswith("FAIL rho-counterexample-exactness: joint fit not certified")


class TestWeakLearnerExtract:
    def test_signal_on_alice_side(self):
        # x_a = ξ ∈ {−1,1}, y = (ξ+1)/2, x_b pure noise; the supplied joint
        # predictor x/2 + 1/2 is exact, γ = 1/4, extraction picks side A
        # with α = 1/16; the achieved gain by exact enumeration is
        # 2α·E[f·ȳ] − α²·E[f²] = 2(1/16)(1/4) − (1/16)²(1/4) = 31/1024
        xa = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        xb = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = (xa[:, 0] + 1) / 2
        dist = FiniteDistribution(xa=xa, xb=xb, y=y, p=np.full(4, 0.25))
        res = weak_learner_extract(dist, np.array([0.5]), np.array([0.0]), 0.5, C=1.0)
        assert res.side == "A"
        assert res.gamma == pytest.approx(0.25, abs=1e-15)
        assert res.alpha == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert res.achieved_gain == pytest.approx(31.0 / 1024.0, abs=1e-15)
        assert res.required_gain == pytest.approx(0.25**2 / 16.0, abs=1e-15)
        assert res.achieved_gain >= res.required_gain
        # cross-check by direct enumeration of the returned predictor
        h = dist.xa @ res.coef + res.intercept
        direct_gain = dist.constant_error() - _enum_error(dist, h)
        assert direct_gain == pytest.approx(res.achieved_gain, abs=1e-15)

    def test_symmetric_tie_goes_to_alice(self):
        xa = np.array([[-1.0], [1.0]])
        xb = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        dist = FiniteDistribution(xa=xa, xb=xb, y=y, p=np.array([0.5, 0.5]))
        res = weak_learner_extract(dist, np.array([0.25]), np.array([0.25]), 0.5, C=1.0)
        assert res.side == "A"

    def test_rho_one_bob_side(self):
        # h_J = x_B − x_A = y/2 at ρ=1: γ = 3/4, extraction must take side B
        dist = gen_counterexample_rho(1.0)
        res = weak_learner_extract(dist, np.array([-1.0]), np.array([1.0]), 0.0, C=1.0)
        assert res.gamma == pytest.approx(0.75, abs=1e-12)
        assert res.side == "B"
        assert res.achieved_gain >= 0.75**2 / 16.0 - 1e-12

    def test_no_joint_improvement_errors(self):
        xa = np.array([[-1.0], [1.0]])
        xb = np.array([[-1.0], [1.0]])
        dist = FiniteDistribution(xa=xa, xb=xb, y=np.array([0.5, 0.5]), p=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="no joint improvement"):
            weak_learner_extract(dist, np.array([0.3]), np.array([0.0]), 0.5, C=1.0)

    def test_nan_norm_bound_rejected(self):
        dist = gen_counterexample_rho(1.0)
        with pytest.raises(ValueError, match="C must be at least 1/2"):
            weak_learner_extract(dist, np.array([-1.0]), np.array([1.0]), 0.0, C=float("nan"))

    def test_nan_joint_predictor_rejected(self):
        dist = gen_counterexample_rho(1.0)
        with pytest.raises(ValueError, match="no joint improvement: gamma = nan"):
            weak_learner_extract(dist, np.array([np.nan]), np.array([1.0]), 0.0, C=1.0)

    def test_random_instances_meet_required_gain(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 40:
            C = float(rng.choice([0.5, 1.0, 2.0]))
            dist = random_distribution(rng, max_atoms=32)
            spec_a = LinearClassSpec(d=dist.xa.shape[1], C=C)
            spec_b = LinearClassSpec(d=dist.xb.shape[1], C=C)
            joint = joint_lsq(dist.xa, dist.xb, dist.y, dist.p, spec_a, spec_b)
            gamma = dist.constant_error() - joint.error
            if gamma < 0.01:
                continue
            res = weak_learner_extract(dist, joint.theta_a, joint.theta_b, joint.intercept, C)
            assert res.achieved_gain >= res.required_gain - 1e-9
            done += 1


class TestRhoInstance:
    def test_requires_rho_at_least_one(self):
        with pytest.raises(ValueError):
            gen_counterexample_rho(0.5)

    def test_nan_rho_rejected(self):
        # NaN fails every comparison, so a guard `rho < 1` lets it through
        with pytest.raises(ValueError, match="rho must be at least 1"):
            gen_counterexample_rho(float("nan"))

    @pytest.mark.parametrize("rho", [1.0, 2.0, 4.0])
    def test_exact_gains(self, rho):
        const, err_a, err_b, err_joint, _fit_b = least_errors(gen_counterexample_rho(rho), 1.0)
        assert const - err_a == pytest.approx(0.0, abs=1e-12)
        assert const - err_b == pytest.approx(1.0 / (rho**2 + 1), abs=1e-12)
        assert const - err_joint == pytest.approx((4 * rho - 1) / (4 * rho**2), abs=1e-12)

    def test_label_map_recorded(self):
        dist = gen_counterexample_rho(2.0)
        off, sc = dist.label_map
        mapped = off + sc * dist.y
        assert mapped.min() == 0.0 and mapped.max() == 1.0

    def test_gain_ratio_is_one_over_rho(self):
        for rho in (4.0, 8.0, 16.0, 32.0):
            const, _err_a, err_b, err_joint, _fit_b = least_errors(gen_counterexample_rho(rho), 1.0)
            ratio = (const - err_b) / (const - err_joint)
            assert ratio == pytest.approx(1.0 / rho, rel=0.35)


class TestSwapNecessity:
    def test_rule_error(self):
        dist, preds = gen_swap_necessity()
        assert _enum_error(dist, preds) == pytest.approx(0.125, abs=1e-15)

    def test_joint_optimum(self):
        # h_J = (x_a + x_b)/2 − 1/4 achieves 1/16 on the product instance
        dist, _ = gen_swap_necessity()
        h = (dist.xa[:, 0] + dist.xb[:, 0]) / 2 - 0.25
        assert _enum_error(dist, h) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_regret_gap(self):
        dist, preds = gen_swap_necessity()
        rule_err = _enum_error(dist, preds)
        _const, err_a, err_b, err_joint, _fit_b = least_errors(dist, 1.0)
        assert rule_err - err_a == pytest.approx(0.0, abs=1e-12)
        assert rule_err - err_b == pytest.approx(0.0, abs=1e-12)
        assert rule_err - err_joint == pytest.approx(1.0 / 16.0, abs=1e-12)


class TestXorInstances:
    def test_marginal_gains_zero(self):
        spec = LinearClassSpec(d=1, C=1.0)
        for dist in gen_xor_counterexamples():
            const = dist.constant_error()
            fa = constrained_lsq(dist.xa, dist.y, dist.p, spec)
            fb = constrained_lsq(dist.xb, dist.y, dist.p, spec)
            assert const - fa.error == pytest.approx(0.0, abs=1e-12)
            assert const - fb.error == pytest.approx(0.0, abs=1e-12)

    def test_product_predictor_exact(self):
        _, prod = gen_xor_counterexamples()
        h = prod.xa[:, 0] * prod.xb[:, 0]
        assert _enum_error(prod, h) == 0.0

    def test_agreement_value_half(self):
        xor, _ = gen_xor_counterexamples()
        assert xor.mean_label() == pytest.approx(0.5)


class TestInformationSubstitutes:
    def test_constant_label_holds(self):
        xa = np.array([[-0.5], [0.5]])
        dist = FiniteDistribution(xa=xa, xb=xa.copy(), y=np.array([0.5, 0.5]),
                                  p=np.array([0.5, 0.5]))
        holds, lhs, rhs = substitutes(least_errors(dist, 1.0))
        assert holds
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_rho_violation(self):
        dist = gen_counterexample_rho(1.0)
        holds, lhs, rhs = substitutes(least_errors(dist, 2.0))
        assert not holds
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert rhs == pytest.approx(0.5, abs=1e-9)

    def test_pure_noise_side_holds_when_realizable_by_alice(self):
        rng = np.random.default_rng(9)
        xa = rng.uniform(-0.9, 0.9, size=(8, 1))
        xb = rng.uniform(-0.9, 0.9, size=(8, 1))
        y = np.clip(0.5 + 0.4 * xa[:, 0], 0, 1)
        dist = FiniteDistribution(xa=xa, xb=xb, y=y, p=np.full(8, 1 / 8))
        holds, lhs, _rhs = substitutes(least_errors(dist, 1.0))
        assert holds
        assert lhs <= 1e-9
