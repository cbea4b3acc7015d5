"""Hand-evaluated oracle values, invariants and finite-difference slopes for every loss term."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xdvae import losses
from xdvae.nn import BLOCK

from conftest import make_store


def batch(draw_len=8):
    return hnp.arrays(
        float, st.tuples(st.integers(1, 4), st.integers(1, draw_len)),
        elements=st.floats(-3, 3, allow_nan=False),
    )


def recon(r, a, beta):
    """masked_recon's value for binary rows r (a 2-D array or nested list) under logits a."""
    a = np.array(a, dtype=float)
    return losses.masked_recon(a, np.flatnonzero(np.asarray(r)), beta, a.shape[0])[0]


def bce(r, a):
    """Binary cross-entropy of logits a, as masked_recon computes it at beta 0."""
    return recon(r, a, 0.0)


def logit(p):
    """Inverse sigmoid, so a test can state its predictions as probabilities."""
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def reference_bce(r, p):
    """Per-entry loop: -sum(r log p + (1 - r) log(1 - p)) over a row."""
    return -math.fsum(math.log(q) if y else math.log(1 - q) for y, q in zip(r, p))


class TestBce:
    """masked_recon at beta 0 is plain binary cross-entropy of the logits."""

    def test_half_predictions(self):
        assert bce([[1, 0]], [[0.0, 0.0]]) == pytest.approx(2 * math.log(2))

    def test_perfect_reconstruction_is_near_zero(self):
        assert bce([[1, 0]], [[40.0, -40.0]]) == pytest.approx(0.0, abs=1e-5)

    def test_quarter_prediction(self):
        assert bce([[1]], logit([[0.25]])) == pytest.approx(math.log(4))

    def test_batch_average(self):
        one = bce([[1, 0]], [[0.0, 0.0]])
        assert bce([[1, 0], [1, 0]], [[0.0, 0.0], [0.0, 0.0]]) == pytest.approx(one)


class TestMaskedRecon:
    def test_beta_zero_equals_bce(self):
        r = np.array([1.0, 0, 1, 0, 0])
        p = np.array([0.7, 0.2, 0.4, 0.9, 0.5])
        assert recon([r], logit([p]), 0.0) == pytest.approx(reference_bce(r, p))

    def test_hand_value_three_log_two(self):
        assert recon([[1, 0]], [[0.0, 0.0]], 1.0) == pytest.approx(3 * math.log(2))

    def test_all_zero_rows_ignore_beta(self):
        r = np.zeros((2, 3))
        a = logit(np.full((2, 3), 0.3))
        assert recon(r, a, 7.0) == pytest.approx(bce(r, a))

    def test_value_pinned_to_the_two_sum_formula(self):
        # sum of softplus(a) - r a + beta r softplus(-a) over all cells, per
        # row, then the batch mean; no clamp, so saturated logits count in
        # full, and the caller's logits are untouched
        rng = np.random.default_rng(21)
        r = (rng.random((16, 40)) < 0.2).astype(float)
        a = 4.0 * rng.standard_normal((16, 40))
        a[0, :6] = (0.0, 40.0, -40.0, 800.0, -800.0, 1e-9)
        r[0, :6] = (1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
        a_before = a.copy()
        cells = np.logaddexp(0.0, a) - r * a + 15.0 * r * np.logaddexp(0.0, -a)
        assert recon(r, a, 15.0) == pytest.approx(float(cells.sum(axis=1).mean()), rel=1e-13)
        assert np.array_equal(a, a_before)

    def test_saturated_logits_are_not_clamped(self):
        # a wrong logit of 40 costs 40, a wrong -40 costs (1 + beta) * 40
        assert recon([[0]], [[40.0]], 15.0) == pytest.approx(40.0)
        assert recon([[1]], [[-40.0]], 15.0) == pytest.approx(16 * 40.0)
        assert recon([[1, 0]], [[800.0, -800.0]], 15.0) == 0.0

    @given(
        r=hnp.arrays(int, (1, 6), elements=st.integers(0, 1)),
        beta=st.one_of(st.just(0.0), st.floats(1e-6, 10, allow_nan=False)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_bce_and_monotone_in_beta(self, r, beta, seed):
        a = logit(np.random.default_rng(seed).uniform(0.05, 0.95, size=(1, 6)))
        base = bce(r, a)
        value = recon(r, a, beta)
        assert value >= base - 1e-12
        assert recon(r, a, beta + 1.0) >= value - 1e-12
        if beta > 0 and r.sum() > 0:
            assert value > base


def kl(mu, logvar):
    """kl_divergence's value alone."""
    return losses.kl_divergence(mu, logvar)[0]


class TestKl:
    def test_standard_normal_posterior_is_zero(self):
        assert kl(np.zeros((1, 2)), np.zeros((1, 2))) == pytest.approx(0.0)

    def test_unit_mean_shift(self):
        assert kl(np.ones((1, 1)), np.zeros((1, 1))) == pytest.approx(0.5)

    def test_variance_four(self):
        expected = 0.5 * (4 - 1 - math.log(4))
        assert kl(np.zeros((1, 1)), np.full((1, 1), math.log(4))) == pytest.approx(expected)

    @given(mu=batch(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, mu, seed):
        logvar = np.random.default_rng(seed).uniform(-3, 3, size=mu.shape)
        assert kl(mu, logvar) >= -1e-12


class TestL2Reg:
    def test_zero_params(self):
        assert losses.l2_reg(make_store(w=np.zeros((3, 3))), 1.0) == 0.0

    def test_single_weight(self):
        assert losses.l2_reg(make_store(w=[2.0]), 1.0) == pytest.approx(4.0)

    def test_zero_lambda(self):
        assert losses.l2_reg(make_store(w=np.full((5, 5), 9.0)), 0.0) == 0.0

    def test_matches_per_tensor_sum(self):
        # summation order differs from a per-tensor loop, so compare to rounding
        rng = np.random.default_rng(0)
        arrays = {"a": rng.standard_normal((40, BLOCK // 40 + 3)), "b": rng.standard_normal(9)}
        expected = 0.3 * sum(float((a * a).sum()) for a in arrays.values())
        assert losses.l2_reg(make_store(**arrays), 0.3) == pytest.approx(expected, rel=1e-12)


def mmd(z_s, z_t):
    """mmd_linear's value alone."""
    return losses.mmd_linear(z_s, z_t)[0]


def mapping(z_mapped, z_target):
    """mapping_loss's value alone."""
    return losses.mapping_loss(z_mapped, z_target)[0]


class TestMmd:
    def test_identical_batches(self):
        z = np.random.default_rng(0).standard_normal((6, 4))
        assert mmd(z, z) == pytest.approx(0.0)

    def test_three_four_five(self):
        z_s = np.zeros((2, 2))
        z_t = np.array([[3.0, 4.0], [3.0, 4.0]])
        assert mmd(z_s, z_t) == pytest.approx(25.0)

    def test_matches_brute_force_and_symmetry(self):
        rng = np.random.default_rng(1)
        z_s = rng.standard_normal((5, 3))
        z_t = rng.standard_normal((8, 3))
        diff = z_s.mean(axis=0) - z_t.mean(axis=0)
        brute = sum(d * d for d in diff)
        assert mmd(z_s, z_t) == pytest.approx(brute)
        assert mmd(z_t, z_s) == pytest.approx(mmd(z_s, z_t))


class TestMappingLoss:
    def test_equal_vectors(self):
        z = np.ones((3, 4))
        assert mapping(z, z) == 0.0

    def test_unit_differences(self):
        assert mapping(np.ones((1, 2)), np.zeros((1, 2))) == pytest.approx(1.0)

    def test_single_coordinate(self):
        z = np.array([[1.0, 0, 0, 0]])
        assert mapping(z, np.zeros((1, 4))) == pytest.approx(0.25)


def _mmd_term(z_s, z_t):
    value, g = losses.mmd_linear(z_s, z_t)
    # every row of z_s has slope g, every row of z_t its negative
    return value, (np.broadcast_to(g, z_s.shape), np.broadcast_to(-g, z_t.shape))


def _mapping_term(z_mapped, z_target):
    value, g = losses.mapping_loss(z_mapped, z_target)
    return value, (g, -g)


def _recon_term(a):
    value, g = losses.masked_recon(a, np.array([0, 2, 4, 7]), 15.0, a.shape[0])
    return value, (g,)


def _saturated_logits(rng):
    """Logits of +-40 at the ones (flat 0, 2, 7) and at zeros, saturated right and wrong."""
    a = 4.0 * rng.standard_normal((2, 5))
    a[0, :4] = (40.0, -40.0, -40.0, 40.0)
    a[1, :3] = (40.0, -40.0, 40.0)
    return a


# (term returning (value, gradient per input), its inputs) from a generator
TERM_CASES = {
    "kl": lambda rng: (losses.kl_divergence,
                       [rng.standard_normal((5, 3)), rng.uniform(-3, 3, (5, 3))]),
    "kl-logvar+20": lambda rng: (losses.kl_divergence,
                                 [rng.standard_normal((5, 3)), rng.uniform(17, 23, (5, 3))]),
    "kl-logvar-20": lambda rng: (losses.kl_divergence,
                                 [rng.standard_normal((5, 3)), rng.uniform(-23, -17, (5, 3))]),
    "mmd": lambda rng: (_mmd_term, [rng.standard_normal((6, 4)), rng.standard_normal((6, 4))]),
    "mapping": lambda rng: (_mapping_term,
                            [np.tanh(rng.standard_normal((6, 4))), rng.standard_normal((6, 4))]),
    "masked-recon-saturated": lambda rng: (_recon_term, [_saturated_logits(rng)]),
}


@pytest.mark.parametrize("case", list(TERM_CASES))
def test_returned_gradient_is_the_slope_of_the_value(case):
    """Each term's gradient, per input entry, matches a central difference of its own value."""
    term, inputs = TERM_CASES[case](np.random.default_rng(17))
    value, grads = term(*inputs)
    h = 1e-6
    # a central difference carries the value's rounding, |value| * eps / h
    noise = 1e-13 * max(abs(value), 1.0) / h
    for x, g in zip(inputs, grads):
        assert g.shape == x.shape
        for i in np.ndindex(x.shape):
            orig = x[i]
            x[i] = orig + h
            plus = term(*inputs)[0]
            x[i] = orig - h
            minus = term(*inputs)[0]
            x[i] = orig
            assert g[i] == pytest.approx((plus - minus) / (2.0 * h), rel=1e-6, abs=noise), i


# the components each variant's model passes, in the order it passes them
PASSED = {
    "generic": ("recon_source", "kl_source", "recon_target", "kl_target", "reg", "mmd"),
    "no-mmd": ("recon_source", "kl_source", "recon_target", "kl_target", "reg"),
    "single": ("recon_target", "kl_target", "reg"),
    "merged": ("recon_target", "kl_target", "reg"),
    "cold-start": ("recon_source", "kl_source", "recon_target", "kl_target", "reg", "mmd",
                   "map_loss"),
    "aux": ("recon_source", "kl_source", "recon_target", "kl_target", "reg", "mmd"),
}


class TestComposeTotal:
    def test_generic_zero_components(self):
        out = losses.compose_total(
            recon_source=0, recon_target=0, kl_source=0, kl_target=0, reg=0, mmd=0,
        )
        assert out.total == 0.0

    def test_no_mmd_drops_the_alignment_term(self):
        parts = dict(recon_source=1.0, recon_target=2.0, kl_source=0.25,
                     kl_target=0.5, reg=0.125, mmd=3.0)
        generic = losses.compose_total(**parts)
        bare = losses.compose_total(**{k: v for k, v in parts.items() if k != "mmd"})
        assert bare.total == pytest.approx(generic.total - parts["mmd"])
        assert bare.mmd == 0.0

    def test_cold_start_adds_exactly_the_mapping_loss(self):
        parts = dict(recon_source=1.0, recon_target=2.0, kl_source=0.25,
                     kl_target=0.5, reg=0.125, mmd=0.0625)
        generic = losses.compose_total(**parts)
        cold = losses.compose_total(map_loss=0.75, **parts)
        assert cold.total == pytest.approx(generic.total + 0.75)

    @given(values=st.lists(st.floats(0, 10, allow_nan=False), min_size=7, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_total_is_field_sum_every_variant(self, values):
        # the total adds the passed terms in field order, whatever order they
        # are passed in, so it is the same float for the same values
        keys = ("recon_source", "kl_source", "recon_target", "kl_target",
                "reg", "mmd", "map_loss")
        for variant, terms in PASSED.items():
            parts = {k: v for k, v in zip(keys, values) if k in terms}
            out = losses.compose_total(**dict(reversed(parts.items())))
            assert out.total == sum(parts.values()), variant
            field_sum = (out.recon_source + out.recon_target + out.kl_source
                         + out.kl_target + out.reg + out.mmd + out.map_loss)
            assert out.total == pytest.approx(field_sum, rel=1e-10)
