"""Fused serving kernels: ``bias_act`` / ``spmm_bias_act`` parity and the
encode-then-aggregate context fold.

The numerics contract under test:

* ``spmm_bias_act(A, X, b, act)`` is **bitwise identical** to the
  unfused ``spmm → + bias → activation`` composition at both element
  dtypes (float32/float64), both index dtypes (int32/int64) and every
  supported activation (None / relu / elu) — including the -0.0 and NaN
  edge cases of ``np.maximum(x, 0.0)``.
* the encoder's fused per-layer dispatch is bitwise equal to the
  unfused forward in eval mode, and *never* engages while training or
  taping.
* the CGNP context fold (final layer folded with the sum/mean ⊕)
  matches the unfused context to ≤1e-10 relative — it reassociates
  sums, so bitwise equality is explicitly not promised.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CGNP, CGNPConfig
from repro.gnn.encoder import GNNEncoder
from repro.graph import attributed_community_graph
from repro.nn.backend import (FUSED_ACTIVATIONS, NumpyBackend,
                              fused_inference, index_precision, precision)
from repro.nn.tensor import Tensor, no_grad
from repro.tasks import TaskSampler
from repro.utils import make_rng

ELEM_DTYPES = (np.float32, np.float64)
INDEX_DTYPES = (np.int32, np.int64)


def random_csr(rng, rows=37, cols=29, density=0.15, dtype=np.float64,
               index_dtype=np.int64):
    matrix = sp.random(rows, cols, density=density, random_state=rng,
                       format="csr", dtype=np.float64)
    matrix = matrix.astype(dtype)
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


def reference(matrix, dense, bias, act):
    """The unfused composition the kernels must reproduce."""
    out = matrix @ dense
    if bias is not None:
        out = out + bias
    if act == "relu":
        out = np.maximum(out, 0.0)
    elif act == "elu":
        out = np.where(out > 0, out, np.exp(np.minimum(out, 0.0)) - 1.0)
    return out


class TestSpmmBiasAct:
    @pytest.mark.parametrize("elem", ELEM_DTYPES)
    @pytest.mark.parametrize("index", INDEX_DTYPES)
    @pytest.mark.parametrize("act", FUSED_ACTIVATIONS)
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_bitwise_vs_reference(self, elem, index, act, with_bias):
        rng = np.random.RandomState(0)
        matrix = random_csr(rng, dtype=elem, index_dtype=index)
        dense = rng.standard_normal((29, 8)).astype(elem)
        bias = rng.standard_normal(8).astype(elem) if with_bias else None
        expected = reference(matrix, dense, bias, act)
        got = NumpyBackend().spmm_bias_act(matrix, dense, bias, act)
        assert got.dtype == expected.dtype, act
        np.testing.assert_array_equal(got, expected, err_msg=act)

    @pytest.mark.parametrize("act", ["relu", "elu"])
    def test_special_values_match_numpy_semantics(self, act):
        # -0.0 maps to +0.0 under np.maximum; NaN propagates through both
        # activations; the fused epilogue must not change either.
        matrix = sp.csr_matrix(np.eye(4))
        dense = np.array([[-0.0], [np.nan], [-1.5], [np.inf]])
        bias = np.zeros(1)
        expected = reference(matrix, dense, bias, act)
        got = NumpyBackend().spmm_bias_act(matrix, dense, bias, act)
        np.testing.assert_array_equal(got, expected)

    def test_unknown_activation_rejected(self):
        matrix = sp.csr_matrix(np.eye(3))
        dense = np.ones((3, 2))
        with pytest.raises(ValueError, match="activation"):
            NumpyBackend().spmm_bias_act(matrix, dense, None, "tanh")

    def test_mismatched_bias_falls_back_correctly(self):
        # A float32 bias against float64 activations must still produce
        # the (upcast) reference result rather than crash or silently
        # skip the bias.
        rng = np.random.RandomState(1)
        matrix = random_csr(rng)
        dense = rng.standard_normal((29, 8))
        bias = rng.standard_normal(8).astype(np.float32)
        expected = reference(matrix, dense, bias, "relu")
        got = NumpyBackend().spmm_bias_act(matrix, dense, bias, "relu")
        np.testing.assert_array_equal(got, expected)


class TestBiasAct:
    @pytest.mark.parametrize("elem", ELEM_DTYPES)
    @pytest.mark.parametrize("act", FUSED_ACTIVATIONS)
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_bitwise_vs_reference(self, elem, act, with_bias):
        rng = np.random.RandomState(2)
        x = rng.standard_normal((23, 6)).astype(elem)
        bias = rng.standard_normal(6).astype(elem) if with_bias else None
        expected = x
        if bias is not None:
            expected = expected + bias
        if act == "relu":
            expected = np.maximum(expected, 0.0)
        elif act == "elu":
            expected = np.where(expected > 0, expected,
                                np.exp(np.minimum(expected, 0.0)) - 1.0)
        got = NumpyBackend().bias_act(x.copy(), bias, act)
        np.testing.assert_array_equal(got, expected)

    def test_input_not_mutated_without_epilogue(self):
        x = np.ones((3, 3))
        out = NumpyBackend().bias_act(x, None, None)
        assert out is x  # identity pass-through, no copy


@pytest.fixture(scope="module")
def fixture_graph():
    return attributed_community_graph(
        num_nodes=100, num_communities=3, avg_degree=6.0, mixing=0.15,
        num_attributes=12, rng=make_rng(11))


@pytest.fixture(scope="module")
def fixture_tasks(fixture_graph):
    sampler = TaskSampler(fixture_graph, subgraph_nodes=50, num_support=3,
                          num_query=2, num_positive=3, num_negative=6)
    return sampler.sample_tasks(3, make_rng(21))


class TestEncoderFusedDispatch:
    @pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
    def test_eval_forward_bitwise(self, fixture_tasks, conv):
        task = fixture_tasks[0]
        features = Tensor(task.features())
        encoder = GNNEncoder(features.shape[1], 16, 2, conv, 0.2, make_rng(0))
        encoder.eval()
        with no_grad():
            with fused_inference(False):
                expected = encoder(features, task.graph)
            fused = encoder(features, task.graph)
        np.testing.assert_array_equal(fused.data, expected.data)

    def test_training_mode_never_fuses(self, fixture_tasks):
        # In train mode the unfused (taped, dropout-bearing) path must run
        # regardless of the policy switch: gradients flow.
        task = fixture_tasks[0]
        features = Tensor(task.features())
        encoder = GNNEncoder(features.shape[1], 8, 2, "gcn", 0.0, make_rng(0))
        encoder.train()
        out = encoder(features, task.graph)
        out.sum().backward()
        assert encoder.convs[0].weight.grad is not None

    def test_grad_tape_blocks_fusion(self, fixture_tasks):
        task = fixture_tasks[0]
        features = Tensor(task.features())
        encoder = GNNEncoder(features.shape[1], 8, 2, "gcn", 0.0, make_rng(0))
        encoder.eval()
        assert not encoder._fused_active()       # tape is on by default
        with no_grad():
            assert encoder._fused_active()
            with fused_inference(False):
                assert not encoder._fused_active()


class TestContextFold:
    @pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_multi_shot_context_close(self, fixture_tasks, conv, agg):
        dim = fixture_tasks[0].features().shape[1]
        model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2, conv=conv,
                                     aggregator=agg), make_rng(0))
        model.eval()
        with no_grad():
            with fused_inference(False):
                expected, off_ref = model.context_concat(fixture_tasks)
            fused, offsets = model.context_concat(fixture_tasks)
        np.testing.assert_array_equal(offsets, off_ref)
        scale = np.max(np.abs(expected.data))
        assert np.max(np.abs(fused.data - expected.data)) <= 1e-10 * scale

    def test_ragged_shots_and_multihead(self, fixture_tasks):
        dim = fixture_tasks[0].features().shape[1]
        model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2, conv="gat",
                                     aggregator="sum", num_heads=2),
                     make_rng(0))
        model.eval()
        supports = [list(t.support)[:k + 1]
                    for k, t in enumerate(fixture_tasks)]
        with no_grad():
            with fused_inference(False):
                expected, _ = model.context_concat(fixture_tasks, supports)
            fused, _ = model.context_concat(fixture_tasks, supports)
        scale = np.max(np.abs(expected.data))
        assert np.max(np.abs(fused.data - expected.data)) <= 1e-10 * scale

    def test_one_shot_context_bitwise(self, fixture_tasks):
        # k=1: no fold (views ARE contexts) — per-layer fusion only, which
        # is bitwise.
        dim = fixture_tasks[0].features().shape[1]
        model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2, conv="gcn"),
                     make_rng(0))
        model.eval()
        supports = [list(t.support)[:1] for t in fixture_tasks]
        with no_grad():
            with fused_inference(False):
                expected, _ = model.context_concat(fixture_tasks, supports)
            fused, _ = model.context_concat(fixture_tasks, supports)
        np.testing.assert_array_equal(fused.data, expected.data)

    def test_attention_aggregator_unaffected(self, fixture_tasks):
        # The attention ⊕ is nonlinear in the views: no fold exists, so
        # fused and unfused paths run the same per-task combination and
        # must agree bitwise (per-layer fusion is bitwise).
        dim = fixture_tasks[0].features().shape[1]
        model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2, conv="gcn",
                                     aggregator="attention"), make_rng(0))
        model.eval()
        with no_grad():
            with fused_inference(False):
                expected, _ = model.context_concat(fixture_tasks)
            fused, _ = model.context_concat(fixture_tasks)
        np.testing.assert_array_equal(fused.data, expected.data)

    def test_activate_final_disables_fold(self, fixture_tasks):
        # A nonlinear final activation breaks the linearity the fold
        # relies on; the guard must route through the unfused reduction.
        dim = fixture_tasks[0].features().shape[1]
        model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2,
                                     conv="gcn"), make_rng(0))
        model.encoder.activate_final = True
        model.eval()
        assert not model._fold_active()
        with no_grad():
            assert not model._fold_active()
            model.encoder.activate_final = False
            assert model._fold_active()

    @pytest.mark.parametrize("conv", ["gcn", "gat"])
    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_membership_parity_through_engine(self, fixture_tasks, conv,
                                              agg):
        # End to end: the fold's ≤1e-10 context perturbation must not
        # move any membership decision at the default threshold, nor any
        # probability by more than 1e-5.
        from repro.api import CommunitySearchEngine

        dim = fixture_tasks[0].features().shape[1]
        model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2, conv=conv,
                                     aggregator=agg), make_rng(0))
        task = fixture_tasks[0]
        nodes = [int(example.query) for example in task.queries]
        with fused_inference(False):
            expected = CommunitySearchEngine(model).attach(task) \
                .predict_proba(nodes)
        fused = CommunitySearchEngine(model).attach(task) \
            .predict_proba(nodes)
        np.testing.assert_array_equal(fused >= 0.5, expected >= 0.5)
        assert np.max(np.abs(fused - expected)) <= 1e-5

    @pytest.mark.parametrize("elem", ["float32", "float64"])
    @pytest.mark.parametrize("index", ["int32", "int64"])
    def test_fold_under_policies(self, fixture_tasks, elem, index):
        dim = fixture_tasks[0].features().shape[1]
        with precision(elem), index_precision(index):
            model = CGNP(dim, CGNPConfig(hidden_dim=16, num_layers=2,
                                         conv="gcn"), make_rng(0))
            model.eval()
            with no_grad():
                with fused_inference(False):
                    expected, _ = model.context_concat(fixture_tasks)
                fused, _ = model.context_concat(fixture_tasks)
            tol = 1e-10 if elem == "float64" else 1e-4
            scale = np.max(np.abs(expected.data))
            assert np.max(np.abs(fused.data - expected.data)) <= tol * scale
