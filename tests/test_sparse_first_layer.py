"""Tolerance contract of the factored Eq. 13 encoder input.

CGNP's layer-0 input ``[I_l ‖ A]`` of every support view is a
:class:`~repro.gnn.encoder.SupportInput`: each graph's features are
projected once — by a sparse product over the non-zeros when stored as
CSR, by BLAS when dense — and each view adds the indicator weight row.
That reorders the sums of the per-view dense product, so the batched
path is held to a tolerance against a dense per-view reference
(:meth:`CGNP.encode_view` + ⊕, one dense forward per support example):

* contexts, logits and every parameter gradient agree within
  ``RTOL[dtype]`` relative to the reference's largest magnitude
  (1e-10 at float64);
* the predicted memberships at the 0.5 threshold are identical.

The sweep covers both feature storages, the three convolutions, both
element widths, training and inference with the fused kernels on and
off, one and three shots, a ragged multi-task batch and a one-layer
encoder (whose fused fold pools the projected support input).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CGNP, CGNPConfig
from repro.gnn import encoder as encoder_module
from repro.gnn import layer0_features
from repro.graph import attributed_community_graph
from repro.nn.backend import fused_inference, precision
from repro.nn.tensor import no_grad
from repro.tasks import TaskSampler
from repro.utils import make_rng

RTOL = {"float64": 1e-10, "float32": 1e-4}

#: ``(subgraph nodes, shots)`` per task of each batch.
BATCHES = {
    "k1": [(40, 1)],
    "k3": [(40, 3)],
    "ragged": [(30, 1), (45, 3), (35, 2)],
}


@pytest.fixture(scope="module")
def tasks_by_batch():
    with precision("float64"):
        data = attributed_community_graph(
            num_nodes=160, num_communities=4, avg_degree=7.0, mixing=0.15,
            num_attributes=48, rng=make_rng(5), name="sparse-input")
        out = {}
        for name, shapes in BATCHES.items():
            tasks = []
            for i, (nodes, shots) in enumerate(shapes):
                sampler = TaskSampler(data, subgraph_nodes=nodes,
                                      num_support=shots, num_query=3,
                                      num_positive=3, num_negative=5)
                tasks.append(sampler.sample_task(make_rng(40 + i),
                                                 name=f"{name}-{i}"))
            for task in tasks:
                task.features()
            out[name] = tasks
        return out


def test_layer0_storage_follows_density():
    rng = make_rng(0)
    dense = rng.normal(size=(40, 30))
    sparse = dense * (rng.random((40, 30)) < 0.05)
    assert layer0_features(dense, dense.dtype) is dense
    stored = layer0_features(sparse, sparse.dtype)
    assert stored.format == "csr"
    assert stored.nnz == np.count_nonzero(sparse)
    np.testing.assert_array_equal(stored.toarray(), sparse)
    assert layer0_features(sparse, "float32").dtype == np.float32


@pytest.fixture(params=["csr", "dense"])
def layout(request, monkeypatch, tasks_by_batch):
    """Pin the layer-0 feature storage through the density bar: every
    matrix is CSR at 1.0 and dense at 0.0."""
    monkeypatch.setattr(encoder_module, "SPARSE_DENSITY",
                        1.0 if request.param == "csr" else 0.0)
    for tasks in tasks_by_batch.values():
        for task in tasks:
            task.invalidate_feature_caches()
            features, _ = task.support_features().blocks[0]
            assert sp.issparse(features) == (request.param == "csr")
    return request.param


def _model(tasks, conv, num_layers, dtype):
    with precision(dtype):
        return CGNP(tasks[0].features().shape[1],
                    CGNPConfig(hidden_dim=8, num_layers=num_layers, conv=conv,
                               aggregator="sum", decoder="ip", dropout=0.0),
                    make_rng(9))


def _reference_contexts(model, tasks):
    return [model.aggregator([model.encode_view(task, e)
                              for e in task.support]) for task in tasks]


def _logits(model, contexts, tasks):
    return [model.query_logits_batch(context, [e.query for e in task.queries],
                                     task.graph)
            for context, task in zip(contexts, tasks)]


def _loss(logit_list):
    """A fixed, non-uniform scalar of every logit, so each gradient entry
    is exercised with its own weight."""
    total = None
    for i, logits in enumerate(logit_list):
        weights = make_rng(100 + i).normal(size=logits.shape)
        term = (logits * weights.astype(logits.dtype)).sum()
        total = term if total is None else total + term
    return total


def _assert_close(got, want, rtol, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.dtype == want.dtype, what
    scale = max(float(np.abs(want).max()), np.finfo(want.dtype).tiny)
    gap = float(np.abs(got - want).max())
    assert gap <= rtol * scale, f"{what}: gap {gap:.3g} vs scale {scale:.3g}"


def _assert_same_memberships(got_logits, want_logits):
    for got, want in zip(got_logits, want_logits):
        np.testing.assert_array_equal(got.sigmoid().data >= 0.5,
                                      want.sigmoid().data >= 0.5)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("conv", ["gcn", "sage", "gat"])
class TestSparseFirstLayer:
    def test_training_contexts_logits_and_gradients(self, tasks_by_batch,
                                                    layout, conv, dtype,
                                                    batch, num_layers):
        tasks = tasks_by_batch[batch]
        model = _model(tasks, conv, num_layers, dtype)
        model.train()
        rtol = RTOL[dtype]
        with precision(dtype):
            model.zero_grad()
            contexts = model.context_batch(tasks)
            logits = _logits(model, contexts, tasks)
            _loss(logits).backward()
            grads = {name: p.grad.copy()
                     for name, p in model.named_parameters()
                     if p.grad is not None}

            model.zero_grad()
            ref_contexts = _reference_contexts(model, tasks)
            ref_logits = _logits(model, ref_contexts, tasks)
            _loss(ref_logits).backward()
            ref_grads = {name: p.grad for name, p in model.named_parameters()
                         if p.grad is not None}

        for i, (got, want) in enumerate(zip(contexts, ref_contexts)):
            _assert_close(got.data, want.data, rtol, f"context {i}")
        for i, (got, want) in enumerate(zip(logits, ref_logits)):
            _assert_close(got.data, want.data, rtol, f"logits {i}")
        _assert_same_memberships(logits, ref_logits)
        assert grads.keys() == ref_grads.keys()
        assert any(name.startswith("encoder.convs.0") for name in grads)
        for name, want in ref_grads.items():
            _assert_close(grads[name], want, rtol, f"grad {name}")

    @pytest.mark.parametrize("fused", [True, False])
    def test_inference_contexts_and_memberships(self, tasks_by_batch,
                                                layout, conv, dtype, batch,
                                                num_layers, fused):
        tasks = tasks_by_batch[batch]
        model = _model(tasks, conv, num_layers, dtype)
        model.eval()
        rtol = RTOL[dtype]
        with precision(dtype), fused_inference(fused), no_grad():
            contexts = model.context_batch(tasks)
            logits = _logits(model, contexts, tasks)
            ref_contexts = _reference_contexts(model, tasks)
            ref_logits = _logits(model, ref_contexts, tasks)
        for i, (got, want) in enumerate(zip(contexts, ref_contexts)):
            _assert_close(got.data, want.data, rtol, f"context {i}")
        for i, (got, want) in enumerate(zip(logits, ref_logits)):
            _assert_close(got.data, want.data, rtol, f"logits {i}")
        _assert_same_memberships(logits, ref_logits)
