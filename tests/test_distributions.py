import itertools
import json
from numbers import Integral, Real

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldpselect import (
    DiscreteDistribution,
    HypothesisSet,
    l1_distance,
    mixture,
    random_hypothesis_set,
)
from ldpselect.distributions import _json_number, _scheffe_signs
from ldpselect.errors import ConfigError, InvariantError
from ldpselect.rmde import full_scheffe_family


def dist(*probs) -> DiscreteDistribution:
    return DiscreteDistribution(np.array(probs, dtype=float))


def scheffe_set(q: DiscreteDistribution, q2: DiscreteDistribution) -> np.ndarray:
    """The signed Scheffe set of q - q2, as the one test of the family of the pair."""
    return full_scheffe_family(HypothesisSet((q, q2))).signs[0]


@st.composite
def distributions(draw, d=None):
    if d is None:
        d = draw(st.integers(min_value=2, max_value=8))
    weights = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d).filter(
            lambda w: sum(w) > 1e-6
        )
    )
    return DiscreteDistribution.renormalized(np.array(weights))


@st.composite
def distribution_pairs(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    return draw(distributions(d=d)), draw(distributions(d=d))


class TestDiscreteDistribution:
    def test_valid(self):
        q = dist(0.25, 0.75)
        assert q.domain_size == 2

    def test_rejects_negative(self):
        with pytest.raises(InvariantError, match="coordinate 2"):
            dist(1.1, -0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantError, match="coordinate 2"):
            dist(1.0, float("nan"))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvariantError, match="sum to"):
            dist(0.5, 0.4)

    def test_sum_tolerance(self):
        q = dist(0.5, 0.5 + 5e-10)
        assert q.domain_size == 2

    def test_no_silent_renormalization(self):
        with pytest.raises(InvariantError):
            dist(0.5, 1.5)
        q = DiscreteDistribution.renormalized(np.array([0.5, 1.5]))
        assert np.allclose(q.probs, [0.25, 0.75])

    def test_immutable(self):
        q = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            q.probs[0] = 1.0


class TestOperations:
    def test_scheffe_tie_is_plus_one(self):
        assert np.array_equal(scheffe_set(dist(0.5, 0.5), dist(0.5, 0.5)), [1, 1])

    def test_scheffe_point_masses(self):
        assert np.array_equal(scheffe_set(dist(1, 0), dist(0, 1)), [1, -1])

    def test_scheffe_with_tied_third_coordinate(self):
        s = scheffe_set(dist(1, 0, 0), dist(0, 1, 0))
        assert np.array_equal(s, [1, -1, 1])

    def test_l1_examples(self):
        assert l1_distance(dist(1, 0), dist(0, 1)) == 2.0
        q = dist(0.3, 0.3, 0.4)
        assert l1_distance(q, q) == 0.0
        assert l1_distance(dist(0.7, 0.2, 0.1), dist(0.1, 0.3, 0.6)) == pytest.approx(1.2)

    def test_mixture(self):
        m = mixture([dist(1, 0), dist(0, 1)], [0.25, 0.75])
        assert np.allclose(m.probs, [0.25, 0.75])


@given(distribution_pairs())
def test_scheffe_identity(pair):
    """<q - q', sgn(q - q')> recovers the l1 distance exactly."""
    q, q2 = pair
    lhs = (q.probs - q2.probs) @ scheffe_set(q, q2)
    assert lhs == pytest.approx(l1_distance(q, q2), abs=1e-9)


@given(distribution_pairs())
def test_scheffe_set_is_the_supremum(pair):
    q, q2 = pair
    delta = q.probs - q2.probs
    d = delta.size
    signs = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1) * 2 - 1
    sup = np.abs(signs @ delta).max()
    assert sup <= l1_distance(q, q2) + 1e-12
    assert sup == pytest.approx(l1_distance(q, q2), abs=1e-9)


@given(distribution_pairs())
def test_scheffe_antisymmetry(pair):
    q, q2 = pair
    fwd = scheffe_set(q, q2)
    rev = scheffe_set(q2, q)
    differs = q.probs != q2.probs
    assert np.array_equal(fwd[differs], -rev[differs])


class TestScheffeSigns:
    """The one Scheffe tie rule: delta >= 0 gives +1, every other entry -1."""

    @pytest.mark.parametrize("deltas, signs", [
        ([0.5, -0.5, 0.0], [1, -1, 1]),
        ([[0.25, -0.25], [0.0, 0.0], [-1.0, 1.0]], [[1, -1], [1, 1], [-1, 1]]),
    ], ids=["one-dimensional", "two-dimensional"])
    def test_rule_keeps_shape_as_int8(self, deltas, signs):
        out = _scheffe_signs(np.array(deltas))
        assert out.dtype == np.int8 and out.shape == np.shape(signs)
        assert np.array_equal(out, signs)

    def test_negative_zero_is_a_tie(self):
        assert np.array_equal(_scheffe_signs(np.array([-0.0, 0.0])), [1, 1])

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_bool_cast_matches_the_where_rule(self, dtype):
        """The int8 signs and the graph's float64 signs equal np.where(delta >= 0, 1, -1) entry for
        entry: zero of either sign gives +1, NaN gives -1."""
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]
        deltas = np.concatenate([special, np.random.default_rng(0).normal(size=997)]).reshape(2, 503)
        signs = _scheffe_signs(deltas, dtype)
        assert signs.dtype == dtype and signs.shape == deltas.shape
        assert np.array_equal(signs, np.where(deltas >= 0.0, 1, -1).astype(dtype))
        assert signs[0, :3].tolist() == [1, 1, -1]


class TestHypothesisSet:
    def test_requires_two(self):
        with pytest.raises(InvariantError, match="at least 2"):
            HypothesisSet((dist(1, 0),))

    def test_requires_shared_domain(self):
        with pytest.raises(InvariantError, match="hypothesis 2"):
            HypothesisSet((dist(1, 0), dist(1, 0, 0)))

    def test_probs_matrix(self):
        hs = HypothesisSet((dist(1, 0), dist(0, 1)))
        assert hs.probs_matrix.shape == (2, 2)

    @pytest.mark.parametrize("k, d", [(2, 3), (9, 16), (40, 64), (70, 300)])
    def test_pair_distances(self, k, d):
        """Each pair's l1 distance, in lexicographic pair order, bit for bit the row sum a per-pair
        reading takes; at d = 300 the pairs span several 128 KiB chunks.  Read-only, computed once."""
        hs = random_hypothesis_set(k, d, seed=k, model="sparse")
        P = hs.probs_matrix
        expected = [np.abs(P[j] - P[j2]).sum() for j in range(k) for j2 in range(j + 1, k)]
        assert hs._pair_distances.tolist() == expected
        assert hs._pair_distances is hs._pair_distances and not hs._pair_distances.flags.writeable


class TestRandomHypothesisSet:
    @pytest.mark.parametrize("model", ["dirichlet-uniform", "sparse", "point-mass-mixture"])
    def test_all_models_valid(self, model):
        hs = random_hypothesis_set(5, 7, seed=123, model=model)
        assert hs.k == 5 and hs.domain_size == 7

    def test_point_mass_mixture_small(self):
        hs = random_hypothesis_set(2, 2, seed=0, model="point-mass-mixture")
        for h in hs.hypotheses:
            assert h.probs.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        a = random_hypothesis_set(4, 6, seed=99, model="sparse")
        b = random_hypothesis_set(4, 6, seed=99, model="sparse")
        assert np.array_equal(a.probs_matrix, b.probs_matrix)

    def test_large_dirichlet_passes_invariants(self):
        hs = random_hypothesis_set(16, 64, seed=7, model="dirichlet-uniform")
        # constructing DiscreteDistribution re-runs every invariant
        for h in hs.hypotheses:
            DiscreteDistribution(h.probs.copy())

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            random_hypothesis_set(3, 3, seed=0, model="gaussian")

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            random_hypothesis_set(1, 4, seed=0)
        with pytest.raises(ConfigError):
            random_hypothesis_set(4, 1, seed=0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        hs = random_hypothesis_set(6, 9, seed=21)
        path = tmp_path / "hyp.json"
        hs.save(path)
        loaded = HypothesisSet.load(path)
        assert np.array_equal(loaded.probs_matrix, hs.probs_matrix)

    def test_rejects_negative_row_with_position(self, tmp_path):
        doc = {"domain_size": 2, "hypotheses": [[0.5, 0.5], [1.2, -0.2]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError, match=r"hypothesis 2.*coordinate 2"):
            HypothesisSet.load(path)

    def test_rejects_bad_sum_with_row(self):
        doc = {"domain_size": 2, "hypotheses": [[0.5, 0.5], [0.5, 0.6]]}
        with pytest.raises(InvariantError, match="hypothesis 2"):
            HypothesisSet.from_json_dict(doc)

    def test_rejects_length_mismatch(self):
        doc = {"domain_size": 3, "hypotheses": [[0.5, 0.5], [1.0, 0.0, 0.0]]}
        with pytest.raises(InvariantError, match="hypothesis 1"):
            HypothesisSet.from_json_dict(doc)

    def test_missing_field(self):
        with pytest.raises(InvariantError, match="missing field"):
            HypothesisSet.from_json_dict({"hypotheses": []})

    def test_rejects_non_object_document(self):
        with pytest.raises(InvariantError, match="object"):
            HypothesisSet.from_json_dict([0.1])

    def test_rejects_boolean_domain_size(self):
        # true would read as 1 and accept one-point rows
        with pytest.raises(InvariantError, match="domain_size"):
            HypothesisSet.from_json_dict({"domain_size": True, "hypotheses": [[1.0], [1.0]]})

    @pytest.mark.parametrize("rows,match", [
        ([[True, False], [0.5, 0.5]], "hypothesis 1"),  # true would read as a point mass
        ([[0.5, 0.5], ["0.5", "0.5"]], "hypothesis 2"),
        ([[0.5, 0.5], [[0.5], [0.5]]], "hypothesis 2"),
        ([[0.5, 0.5], 0.5], "hypothesis 2"),
        ([[0.5, 0.5], [10**400, 0]], "hypothesis 2"),  # an integer no float holds
        (5, "hypotheses"),
        (None, "hypotheses"),
    ])
    def test_rejects_non_numeric_masses(self, rows, match):
        with pytest.raises(InvariantError, match=match):
            HypothesisSet.from_json_dict({"domain_size": 2, "hypotheses": rows})



class TestJsonNumber:
    """The one field reader every JSON loader goes through."""

    @pytest.mark.parametrize("doc, kind, match", [
        ({}, Integral, "missing field 'n'"),
        ({"n": "10"}, Integral, "'n' must be an integer"),
        ({"n": True}, Integral, "'n' must be an integer"),  # true would read as 1
        ({"n": 1.5}, Integral, "'n' must be an integer"),
        ({}, Real, "missing field 'n'"),
        ({"n": "x"}, Real, "'n' must be a number"),
        ({"n": False}, Real, "'n' must be a number"),
        ({"n": {"0": 0.1}}, list, "'n' must be a list"),
        ({"n": "abc"}, list, "'n' must be a list"),
        ([0.1], Integral, "object"),
        (None, Real, "object"),
    ])
    def test_refusal_names_field(self, doc, kind, match):
        with pytest.raises(InvariantError, match=match):
            _json_number(doc, "n", kind)

    @pytest.mark.parametrize("doc, kind, default, expected", [
        ({}, Integral, None, None),  # an optional field left out
        ({}, Real, 0.0, 0.0),
        ({"n": None}, Integral, None, None),  # the default itself may be written
        ({"n": 3}, Real, 0.0, 3),  # an integer is a number
    ])
    def test_accepts(self, doc, kind, default, expected):
        assert _json_number(doc, "n", kind, default=default) == expected

def test_every_exported_name_resolves():
    import ldpselect

    missing = [name for name in ldpselect.__all__ if not hasattr(ldpselect, name)]
    assert not missing
    assert len(set(ldpselect.__all__)) == len(ldpselect.__all__)
