"""Property-based tests (hypothesis) on the core invariants:

* autograd gradients match finite differences for random op compositions;
* the commutative operation ⊕ is permutation-invariant;
* metric bounds and identities hold for arbitrary masks;
* graph construction invariants (canonicalisation, degree sums);
* core-number monotonicity under edge addition.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import make_aggregator
from repro.eval import binary_metrics
from repro.graph import Graph, core_numbers
from repro.nn import Tensor
from repro.nn.backend import get_backend
from repro.nn import functional as F
from repro.utils import make_rng

from helpers import gradcheck


finite_floats = st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False, width=64)


def small_matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=finite_floats)))


class TestAutogradProperties:
    @given(x=small_matrices())
    @settings(max_examples=25, deadline=None)
    def test_sigmoid_gradient(self, x):
        gradcheck(lambda t: t.sigmoid(), x)

    @given(x=small_matrices())
    @settings(max_examples=25, deadline=None)
    def test_tanh_exp_composition_gradient(self, x):
        gradcheck(lambda t: (t.tanh() * t).exp(), x)

    @given(x=small_matrices())
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_always_sum_to_one(self, x):
        out = F.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1),
                                   np.ones(x.shape[0]), atol=1e-9)

    @given(x=small_matrices())
    @settings(max_examples=25, deadline=None)
    def test_sum_then_backward_gives_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    @given(x=small_matrices(), y=small_matrices())
    @settings(max_examples=25, deadline=None)
    def test_addition_commutes(self, x, y):
        if x.shape != y.shape:
            return
        a = (Tensor(x) + Tensor(y)).data
        b = (Tensor(y) + Tensor(x)).data
        np.testing.assert_allclose(a, b)


@st.composite
def scatter_problems(draw):
    """``(source, indices, num_rows)``: 1-D or 2-D float32/float64 rows
    holding NaN, ±inf and -0 among finite values, int32/int64 indices in
    any order with duplicates, ``num_rows`` possibly past the largest
    index, and empty sources."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    count = draw(st.integers(0, 30))
    num_rows = draw(st.integers(0 if count == 0 else 1, 8))
    shape = (count,) if draw(st.booleans()) else (count, draw(st.integers(0, 4)))
    special = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0])
    source = draw(arrays(dtype, shape, elements=st.one_of(
        special, st.floats(-1e6, 1e6, width=32))))
    indices = draw(arrays(index_dtype, (count,),
                          elements=st.integers(0, max(num_rows - 1, 0))))
    return source, indices, num_rows


class TestScatterAddRows:
    """The backend's edge-path scatter (the ⊕ pooling, GAT's message
    sum, gather backward) is the edge-order sum ``np.add.at`` defines,
    bit for bit, whichever kernel runs it.  NaN entries must be NaN in
    the same places; which NaN's sign and payload survive where two
    different NaNs meet is the hardware's pick, not part of the
    contract."""

    @given(problem=scatter_problems())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equals_add_at(self, problem):
        source, indices, num_rows = problem
        expected = np.zeros((num_rows,) + source.shape[1:], dtype=source.dtype)
        with np.errstate(invalid="ignore"):       # inf + -inf
            np.add.at(expected, indices, source)
            out = get_backend().scatter_add_rows(source, indices, num_rows)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == expected[~nan].tobytes()


class TestAggregatorProperties:
    @given(
        data=st.integers(2, 5).flatmap(
            lambda q: st.tuples(
                st.just(q),
                arrays(np.float64, (q, 5, 3), elements=finite_floats),
                st.permutations(list(range(q))),
            )),
        name=st.sampled_from(["sum", "mean", "attention"]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_permutation_invariance(self, data, name):
        q, stacked, permutation = data
        aggregator = make_aggregator(name, 3, make_rng(0))
        views = [Tensor(stacked[i]) for i in range(q)]
        base = aggregator(views).data
        shuffled = aggregator([views[i] for i in permutation]).data
        np.testing.assert_allclose(base, shuffled, atol=1e-8)

    @given(arrays(np.float64, (3, 4, 2), elements=finite_floats))
    @settings(max_examples=25, deadline=None)
    def test_mean_bounded_by_views(self, stacked):
        aggregator = make_aggregator("mean", 2, make_rng(0))
        out = aggregator([Tensor(v) for v in stacked]).data
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)


class TestMetricProperties:
    masks = arrays(np.bool_, st.integers(1, 60), elements=st.booleans())

    @given(predicted=masks, actual=masks)
    @settings(max_examples=60, deadline=None)
    def test_all_metrics_in_unit_interval(self, predicted, actual):
        if predicted.shape != actual.shape:
            return
        m = binary_metrics(predicted, actual)
        for value in (m.accuracy, m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0

    @given(predicted=masks, actual=masks)
    @settings(max_examples=60, deadline=None)
    def test_f1_harmonic_identity(self, predicted, actual):
        if predicted.shape != actual.shape:
            return
        m = binary_metrics(predicted, actual)
        if m.precision + m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expected)
        else:
            assert m.f1 == 0.0

    @given(actual=masks)
    @settings(max_examples=30, deadline=None)
    def test_perfect_prediction_scores_one(self, actual):
        m = binary_metrics(actual, actual)
        assert m.accuracy == 1.0
        if actual.any():
            assert m.f1 == 1.0


def edge_lists(max_nodes=12):
    return st.integers(2, max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=3 * n),
        ))


class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_canonicalisation(self, data):
        n, edges = data
        g = Graph(n, edges)
        # No self-loops, canonical orientation, no duplicates.
        assert np.all(g.edges[:, 0] < g.edges[:, 1]) if g.num_edges else True
        assert len(np.unique(g.edges, axis=0)) == g.num_edges

    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, data):
        n, edges = data
        g = Graph(n, edges)
        assert g.degrees().sum() == 2 * g.num_edges

    @given(edge_lists(max_nodes=10))
    @settings(max_examples=40, deadline=None)
    def test_core_numbers_bounded_by_degree(self, data):
        n, edges = data
        g = Graph(n, edges)
        cores = core_numbers(g)
        assert np.all(cores <= g.degrees())
        assert np.all(cores >= 0)

    @given(edge_lists(max_nodes=8))
    @settings(max_examples=30, deadline=None)
    def test_adding_edge_never_decreases_cores(self, data):
        n, edges = data
        g = Graph(n, edges)
        before = core_numbers(g)
        # Add one new edge if any non-edge exists.
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if not g.has_edge(u, v)]
        if not candidates:
            return
        new_edges = list(map(tuple, g.edges.tolist())) + [candidates[0]]
        after = core_numbers(Graph(n, new_edges))
        assert np.all(after >= before)

    @given(edge_lists(max_nodes=10))
    @settings(max_examples=40, deadline=None)
    def test_induced_subgraph_edges_subset(self, data):
        n, edges = data
        g = Graph(n, edges)
        keep = list(range(0, n, 2))
        if not keep:
            return
        sub = g.induced_subgraph(keep)
        parents = sub.parent_nodes
        for u, v in sub.edges:
            assert g.has_edge(int(parents[u]), int(parents[v]))
