"""One measured benchmark process: set up a workload, time it, check it.

``perfbench/run.py`` starts this module as a child process (``python3 -m
perfbench.workloads ...``) with the BLAS pool pinned to one thread and
every ``REPRO_*`` policy variable cleared, so each workload runs the
library's default policies.  The child prints one JSON object as its
last line of output.

Every workload does a fixed amount of work for a given ``--seed`` and
``--seconds`` (the op counts are derived from ``--seconds``, never from
the clock), so answers and engine counters repeat exactly; the
open-loop and closed-loop serving phases are the exception by design:
they run for a fixed time, and only their latencies and rates are read.

The host this runs on alternates between an uncontended speed and one
about 1.5x slower, in stretches of a fraction of a second to minutes.
Where an op can be repeated from the same state (a held-out answer in
``meta_train``, every op of ``serve_churn``'s replayed rounds), each op
is timed once per round, rounds are spread over the run, and the op's
time is the fastest of its rounds: a stretch of contention then has to
cover every round of an op to show in its figure.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import resource
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.api import CommunitySearchEngine, ModelBundle
from repro.core import CGNP, CGNPConfig
from repro.core import train as core_train
from repro.datasets import load_dataset
from repro.eval.metrics import community_metrics
from repro.gnn.conv import graph_ops
from repro.graph import Graph, GraphDelta
from repro.nn import optim
from repro.serve import GatewayConfig, QueueFull, ServeGateway
from repro.tasks import ScenarioConfig, Task, TaskSampler, make_scenario
from repro.utils import make_rng

from perfbench.tracing import SpanRecorder, Tracer, summarise

#: The shared model: CGNP-MLP over a 3-layer GCN encoder, sum ⊕.
MODEL_CONFIG = dict(hidden_dim=128, num_layers=3, conv="gcn",
                    aggregator="sum", decoder="mlp")
DATASET = "cora"
TRAIN_TASKS = 64
TRAIN_NODES = 200
SHOTS = 5
QUERIES = 30
TASK_BATCH = 8
LEARNING_RATE = 5e-4
GRAD_CLIP = 5.0

#: meta_train: optimiser steps per requested second, untimed warm-up
#: steps, held-out tasks, and the rounds of training steps each followed
#: by a cold answer (context encode + decode) of every held-out task.  A
#: held-out task's answer time is its fastest of the rounds; 100 tasks
#: leave ten beyond p90.
STEPS_PER_SECOND = 1.5
WARMUP_STEPS = 2
TEST_TASKS = 100
ANSWER_ROUNDS = 4

#: Serving workloads: 600-node tasks on a float32 engine.  The served
#: tasks are one fixed sample (like the dataset, part of the benchmark's
#: definition); ``--seed`` drives everything that arrives at the engine:
#: request times and nodes, task popularity, the op order and the deltas.
#: Eight sampled tasks differ in answer F1 by about 10 % from one sample
#: to the next, which would otherwise hide a real change in quality.
SERVE_TASK_SEED = 0
SERVE_NODES = 600
SERVE_DTYPE = "float32"
HOT_TASKS = 8
HOT_CACHE = 8
HOT_RATE = 50.0             # open-loop requests per second, phase (a)
HOT_OUTSTANDING = 16        # closed-loop concurrency, phase (b)
HOT_THREADS = 2             # direct-read client threads, phase (c)
HOT_BATCH = 16              # query nodes per direct read
HOT_SHARES = (0.5, 0.25, 0.25)   # of --seconds for phases a, b, c
HOT_ROUNDS = 4              # rounds of a, b, c interleaved over the run
HOT_CHECK_EVERY = 25        # gateway answers sampled for the bitwise check
CHURN_TASKS = 16
CHURN_CACHE = 8
CHURN_OPS_PER_SECOND = 50.0
CHURN_ROUNDS = 4            # replays of one op sequence from a fresh state
CHURN_DELTA_EVERY = 5       # every 5th op is a GraphDelta
CHURN_EDGE_CHANGES = 8      # edge adds and edge removals per delta
CHURN_READ_NODES = 16
#: Which task each churn op touches (the Zipf ranks and the draws) is
#: part of the workload, like the served tasks: drawn from the seed it
#: moved the misses of a run by 10 % from seed to seed.  ``--seed``
#: drives the nodes read and the edges each delta adds and removes.
CHURN_SEQUENCE_SEED = 0

#: Bundle training (outside every measured process): a fixed seed, so
#: one checkout serves one model whatever the workload seed is.
BUNDLE_SEED = 0
BUNDLE_EPOCHS = 3


def fingerprint() -> Dict:
    """Library versions, the BLAS build and its pinned thread count, and
    the ``repro`` policies this process resolved."""
    import platform

    import scipy
    from repro.nn import backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "policies": {
                "dtype": backend.default_dtype().name,
                "index_dtype": backend.default_index_dtype().name,
                "backend": backend.get_backend().name,
                "fused": backend.fused_inference_enabled(),
                "context_storage": backend.default_context_storage()},
            "repro_env": {key: value for key, value in os.environ.items()
                          if key.startswith("REPRO_")}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def query_f1(members, ground_truth, query: int) -> float:
    return community_metrics(members, ground_truth, query).f1


def mean_f1(scores: List[float]) -> float:
    return float(np.mean(scores)) if scores else 0.0


def engine_counters(engine: CommunitySearchEngine) -> Dict[str, float]:
    stats = engine.stats()
    return {"hits": stats.context_cache_hits,
            "misses": stats.context_cache_misses,
            "encoded": stats.contexts_encoded,
            "evicted": stats.contexts_evicted,
            "dirtied": stats.contexts_dirtied,
            "deltas": stats.deltas_applied,
            "decode_seconds": stats.decode_seconds,
            "context_seconds": stats.context_seconds}


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def build_model(in_dim: int, seed: int) -> CGNP:
    return CGNP(in_dim, CGNPConfig(**MODEL_CONFIG), make_rng(seed))


def train_steps(model: CGNP, tasks: List[Task], optimizer, order_rng,
                steps: int, durations: Optional[List[float]] = None,
                order: Optional[np.ndarray] = None):
    """``steps`` optimiser steps of ``TASK_BATCH`` tasks (Algorithm 1's
    loop, as :func:`repro.core.meta_train` runs it); returns the losses
    and the shuffled order to continue from."""
    losses = []
    for _ in range(steps):
        if order is None or order.size == 0:
            order = order_rng.permutation(len(tasks))
        chunk = [tasks[int(i)] for i in order[:TASK_BATCH]]
        order = order[TASK_BATCH:]
        start = time.perf_counter()
        optimizer.zero_grad()
        loss = core_train.task_batch_loss(model, chunk)
        loss.backward()
        optim.clip_grad_norm(model.parameters(), GRAD_CLIP)
        optimizer.step()
        if durations is not None:
            durations.append(time.perf_counter() - start)
        losses.append(float(loss.data))
    return losses, order


def prefill(tasks: List[Task]) -> None:
    """Materialise each task's cached inputs (features, label stack,
    operators) so timed steps see the steady state."""
    for task in tasks:
        task.support_features()
        task.query_label_stack()
        graph_ops(task.graph)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up, then a timed ``run``, then untimed ``check``\\ s."""

    def __init__(self, seed: int, seconds: float, bundle: Optional[str],
                 recorder: Optional[SpanRecorder]):
        self.seed = seed
        self.seconds = seconds
        self.bundle = bundle
        self.recorder = recorder
        self.failed = 0
        self.errors: List[str] = []

    def phase(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.phase = name

    def check(self, ok: bool, what: str) -> None:
        """Count a failed op (or a failed post-run check) when not ``ok``."""
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


class MetaTrain(Workload):
    """Offline cost: batched meta-training, then cold held-out answers."""

    name = "meta_train"

    def setup(self) -> None:
        config = ScenarioConfig(num_train_tasks=TRAIN_TASKS,
                                num_valid_tasks=0,
                                num_test_tasks=TEST_TASKS,
                                subgraph_nodes=TRAIN_NODES,
                                num_support=SHOTS, num_query=QUERIES,
                                seed=self.seed)
        tasks = make_scenario("sgsc", DATASET, config)
        self.train_tasks, self.test_tasks = tasks.train, tasks.test
        prefill(self.train_tasks)
        self.model = build_model(self.train_tasks[0].features().shape[1],
                                 self.seed)
        self.model.train()
        self.optimizer = optim.Adam(self.model.parameters(),
                                    lr=LEARNING_RATE)
        self.order_rng = make_rng(self.seed + 1)
        self.losses, self.order = train_steps(
            self.model, self.train_tasks, self.optimizer, self.order_rng,
            WARMUP_STEPS)

    def run(self) -> Dict:
        """Training steps in ``ANSWER_ROUNDS`` rounds, each followed by a
        cold answer of every held-out task: both timings then sample the
        whole run.  ``answer_f1`` scores the last round (the trained
        model); the engine never decodes while a step runs."""
        steps = max(ANSWER_ROUNDS,
                    int(round(STEPS_PER_SECOND * self.seconds)))
        durations: List[float] = []
        answer_times = np.zeros((ANSWER_ROUNDS, len(self.test_tasks)))
        self.answers = []
        engine = CommunitySearchEngine(self.model)
        before = engine_counters(engine)
        order = self.order
        for round_index in range(ANSWER_ROUNDS):
            self.model.train()
            count = (steps // ANSWER_ROUNDS
                     + (round_index < steps % ANSWER_ROUNDS))
            losses, order = train_steps(self.model, self.train_tasks,
                                        self.optimizer, self.order_rng,
                                        count, durations, order)
            self.losses += losses
            self.model.eval()
            for index, task in enumerate(self.test_tasks):
                prefill([task])
                start = time.perf_counter()
                predictions = engine.answer_task(
                    task, method=engine.native_method)
                engine.detach(task)
                answer_times[round_index, index] = (time.perf_counter()
                                                    - start)
                # A hundred tasks' features are not all held at once.
                task.invalidate_feature_caches()
                self.answers.append((task, predictions))
        counters = counter_delta(before, engine_counters(engine))
        final = self.answers[-len(self.test_tasks):]
        f1 = [query_f1(p.members, p.ground_truth, p.query)
              for _, predictions in final for p in predictions]
        tasks_trained = steps * TASK_BATCH
        # The model changes between rounds, the work of an answer does not.
        best = answer_times.min(axis=0)
        return {
            "ops": steps + answer_times.size,
            "cost_s_per_op": ((sum(durations) + answer_times.sum())
                              / (steps + answer_times.size)),
            "answer_f1": mean_f1(f1),
            "throughput_per_s": tasks_trained / sum(durations),
            "latency_ms_p50": 1e3 * percentile(best, 50),
            "latency_ms_p90": 1e3 * percentile(best, 90),
            "named": {
                "train_tasks_per_s": tasks_trained / sum(durations),
                "step_ms_p50": 1e3 * percentile(durations, 50),
                "answer_ms_p50": 1e3 * percentile(best, 50),
                "answer_ms_p90": 1e3 * percentile(best, 90),
                "answer_ms_p50_all_rounds": 1e3 * percentile(answer_times,
                                                             50),
                "steps": steps, "answers": int(answer_times.size),
            },
            "determinism": {"answer_f1": mean_f1(f1),
                            "final_loss": self.losses[-1],
                            **{k: counters[k] for k in
                               ("hits", "misses", "encoded", "dirtied")}},
            "counters": counters,
        }

    def checks(self) -> None:
        for index, loss in enumerate(self.losses):
            self.check(math.isfinite(loss), f"step {index}: loss {loss}")
        for task, predictions in self.answers:
            missing = [p.query for p in predictions
                       if int(p.query) not in set(p.members.tolist())]
            self.check(not missing, f"{task.name}: queries {missing} not "
                       f"in their own answers")


class ServeBase(Workload):
    """Shared set-up of the serving workloads: sampled 600-node tasks
    served by a float32 engine loaded from the prebuilt bundle."""

    num_tasks = HOT_TASKS
    cache = HOT_CACHE

    def setup(self) -> None:
        self.tasks = self.sample_tasks()
        self.start_engine()
        self.rng = make_rng(self.seed + 1)

    def sample_tasks(self) -> List[Task]:
        dataset = load_dataset(DATASET)
        sampler = TaskSampler(dataset.graph, subgraph_nodes=SERVE_NODES,
                              num_support=SHOTS, num_query=QUERIES)
        rng = make_rng(SERVE_TASK_SEED)
        return [sampler.sample_task(rng, name=f"serve-{index}")
                for index in range(self.num_tasks)]

    def start_engine(self) -> None:
        """A fresh engine over ``self.tasks`` with the first ``cache`` of
        them attached and their contexts encoded."""
        self.engine = CommunitySearchEngine.from_bundle(
            self.bundle, dtype=SERVE_DTYPE, max_cached_contexts=self.cache)
        self.engine.attach_many(self.tasks[:self.cache])
        for task in self.tasks[:self.cache]:
            self.engine.predict_proba([task.queries[0].query], task)


class ServeHot(ServeBase):
    """Read path with a warm cache: gateway open and closed loops, then
    two threads reading the engine directly, in interleaved rounds."""

    name = "serve_hot"

    def setup(self) -> None:
        super().setup()
        self.pool = [(task, example) for task in self.tasks
                     for example in task.queries]
        self.closed_picks = self.rng.integers(len(self.pool), size=1 << 16)

    def run(self) -> Dict:
        before = engine_counters(self.engine)
        phases = asyncio.run(self._rounds())
        counters = counter_delta(before, engine_counters(self.engine))
        self.timed_counters = counters
        latencies = phases["latencies"]
        f1 = [query_f1(members, example.membership, example.query)
              for example, members in phases["answers"]]
        reads = phases["reads"]
        gateway_qps = phases["closed_completed"] / phases["closed_wall_s"]
        return {
            "ops": len(latencies) + phases["closed_completed"] + len(reads),
            "cost_s_per_op": ((phases["closed_wall_s"] + phases["read_wall_s"])
                              / (phases["closed_completed"] + len(reads))),
            "answer_f1": mean_f1(f1),
            "throughput_per_s": gateway_qps,
            "latency_ms_p50": 1e3 * percentile(latencies, 50),
            "latency_ms_p90": 1e3 * percentile(latencies, 90),
            "named": {
                "request_ms_p50": 1e3 * percentile(latencies, 50),
                "request_ms_p90": 1e3 * percentile(latencies, 90),
                "request_ms_p99": 1e3 * percentile(latencies, 99),
                "gateway_qps": gateway_qps,
                "queries_per_s": phases["read_nodes"] / phases["read_wall_s"],
                "read_ms_p50": 1e3 * percentile(reads, 50),
                "read_ms_p99": 1e3 * percentile(reads, 99),
                "gen_lag_ms_p99": 1e3 * percentile(phases["gen_lag"], 99),
                "requests": len(latencies),
                "closed_completed": phases["closed_completed"],
                "reads": len(reads),
            },
            "determinism": {"answer_f1": mean_f1(f1),
                            "requests": len(latencies),
                            **{k: counters[k] for k in
                               ("misses", "encoded", "dirtied")}},
            "counters": counters,
            "serve": phases["serve"],
        }

    async def _rounds(self) -> Dict:
        """``HOT_ROUNDS`` rounds of phases (a), (b), (c) behind one gateway:
        interleaving lets every phase sample the whole run, so a slow
        stretch of the host does not land on one phase only."""
        phases = {"latencies": [], "gen_lag": [], "answers": [],
                  "closed_completed": 0, "closed_wall_s": 0.0,
                  "reads": [], "read_nodes": 0, "read_wall_s": 0.0}
        self.samples = []
        share_a, share_b, share_c = (share * self.seconds / HOT_ROUNDS
                                     for share in HOT_SHARES)
        async with ServeGateway(self.engine, GatewayConfig()) as gateway:
            for round_index in range(HOT_ROUNDS):
                await self._open_loop(gateway, share_a, phases)
                await self._closed_loop(gateway, share_b, phases)
                # The gateway is idle here; blocking its loop is harmless.
                self._direct_reads(share_c, round_index, phases)
            stats = gateway.stats()
        phases["serve"] = {
            "queue_wait_ms_p50": 1e3 * stats.queue_wait.percentile(50),
            "queue_wait_ms_p99": 1e3 * stats.queue_wait.percentile(99),
            "requests_per_tick": stats.tick_batch_requests.mean,
            "ticks": stats.ticks,
            "gen_lag_ms_p99": 1e3 * percentile(phases["gen_lag"], 99)}
        return phases

    async def _open_loop(self, gateway: ServeGateway, seconds: float,
                         phases: Dict) -> None:
        """Poisson single-node requests at ``HOT_RATE``; latency counts
        from each request's due time."""
        loop = asyncio.get_running_loop()
        gaps = self.rng.exponential(1.0 / HOT_RATE,
                                    size=int(HOT_RATE * seconds * 2) + 16)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < seconds]
        picks = self.rng.integers(len(self.pool), size=arrivals.size)
        results: List = [None] * arrivals.size

        async def request(index: int, due: float) -> None:
            task, example = self.pool[int(picks[index])]
            try:
                answer = await gateway.submit([example.query], task)
            except QueueFull:
                self.check(False, f"open-loop request {index} rejected")
                return
            members = self._members(answer[0], example.query)
            results[index] = (loop.time() - due, example, members)
            if index % HOT_CHECK_EVERY == 0:
                self.samples.append((task, example.query, answer))

        start = loop.time() + 0.005
        pending = []
        for index, offset in enumerate(arrivals.tolist()):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            phases["gen_lag"].append(loop.time() - due)
            pending.append(loop.create_task(request(index, due)))
        await asyncio.gather(*pending)
        for result in results:
            if result is not None:
                phases["latencies"].append(result[0])
                phases["answers"].append(result[1:])

    async def _closed_loop(self, gateway: ServeGateway, seconds: float,
                           phases: Dict) -> None:
        """``HOT_OUTSTANDING`` clients, each submitting its next
        single-node request when the previous one is answered."""
        loop = asyncio.get_running_loop()
        begin = loop.time()
        deadline = begin + seconds
        completed = 0
        offset = phases["closed_completed"]

        async def client(worker: int) -> None:
            nonlocal completed
            position = offset + worker
            while loop.time() < deadline:
                task, example = self.pool[int(
                    self.closed_picks[position % self.closed_picks.size])]
                position += HOT_OUTSTANDING
                answer = await gateway.submit([example.query], task)
                completed += 1
                if completed % HOT_CHECK_EVERY == 0:
                    self.samples.append((task, example.query, answer))

        await asyncio.gather(*[client(worker)
                               for worker in range(HOT_OUTSTANDING)])
        phases["closed_completed"] += completed
        phases["closed_wall_s"] += loop.time() - begin

    def _direct_reads(self, seconds: float, round_index: int,
                      phases: Dict) -> None:
        """``HOT_THREADS`` threads calling ``predict_proba`` directly."""
        latencies: List[List[float]] = [[] for _ in range(HOT_THREADS)]
        barrier = threading.Barrier(HOT_THREADS + 1)
        deadline = [0.0]

        def client(worker: int) -> None:
            rng = make_rng([self.seed, round_index, worker])
            barrier.wait()
            position = worker
            while time.perf_counter() < deadline[0]:
                task = self.tasks[position % len(self.tasks)]
                position += 1
                batch = rng.integers(0, task.graph.num_nodes, size=HOT_BATCH)
                start = time.perf_counter()
                try:
                    self.engine.predict_proba(batch, task)
                except Exception as exc:    # noqa: BLE001 - counted
                    self.check(False, f"direct read raised {exc!r}")
                    continue
                latencies[worker].append(time.perf_counter() - start)

        threads = [threading.Thread(target=client, args=(worker,))
                   for worker in range(HOT_THREADS)]
        for thread in threads:
            thread.start()
        begin = time.perf_counter()
        deadline[0] = begin + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        phases["read_wall_s"] += time.perf_counter() - begin
        for worker in latencies:
            phases["reads"].extend(worker)
            phases["read_nodes"] += HOT_BATCH * len(worker)

    def _members(self, row: np.ndarray, query: int) -> np.ndarray:
        members = row >= self.engine.threshold
        members[int(query)] = True
        return np.flatnonzero(members)

    def checks(self) -> None:
        for task, query, answer in self.samples:
            direct = self.engine.predict_proba([query], task)
            self.check(answer.dtype == direct.dtype
                       and answer.tobytes() == direct.tobytes(),
                       f"{task.name}: gateway answer for {query} differs "
                       f"from predict_proba")
        self.check(self.timed_counters["encoded"] == 0,
                   f"{self.timed_counters['encoded']} contexts encoded "
                   f"in the timed phases")


class ServeChurn(ServeBase):
    """Writes beside reads over a working set twice the cache, as
    ``CHURN_ROUNDS`` replays of one op sequence, each from a fresh copy
    of the sampled tasks and a freshly warmed engine."""

    name = "serve_churn"
    num_tasks = CHURN_TASKS
    cache = CHURN_CACHE

    def sample_tasks(self) -> List[Task]:
        self.pristine = super().sample_tasks()
        return [fresh_copy(task) for task in self.pristine]

    def setup(self) -> None:
        super().setup()
        sequence_rng = make_rng(CHURN_SEQUENCE_SEED)
        ranks = sequence_rng.permutation(self.num_tasks)
        weights = 1.0 / (ranks + 1.0)               # Zipf(1) popularity
        self.count = max(CHURN_DELTA_EVERY, int(round(
            CHURN_OPS_PER_SECOND * self.seconds / CHURN_ROUNDS)))
        self.choices = sequence_rng.choice(self.num_tasks, size=self.count,
                                           p=weights / weights.sum())
        self.mutated = set()

    def _delta(self, graph: Graph, rng) -> GraphDelta:
        edges = graph.edges
        remove = edges[rng.choice(edges.shape[0], size=CHURN_EDGE_CHANGES,
                                  replace=False)]
        add = rng.integers(0, graph.num_nodes, size=(CHURN_EDGE_CHANGES, 2))
        return GraphDelta(add_edges=add, remove_edges=remove)

    def run(self) -> Dict:
        """The op sequence ``CHURN_ROUNDS`` times; an op's time is its
        fastest round.  Every round must give the first round's answers
        bitwise; ``answer_f1`` scores the first round."""
        times = np.zeros((CHURN_ROUNDS, self.count))
        is_delta = np.arange(self.count) % CHURN_DELTA_EVERY == (
            CHURN_DELTA_EVERY - 1)
        counters: Dict[str, float] = {}
        rows_repaired = 0
        for round_index in range(CHURN_ROUNDS):
            if round_index:
                self.phase("reset")
                self.engine = self.tasks = None     # free the last round's
                self.tasks = [fresh_copy(task) for task in self.pristine]
                self.start_engine()
                self.phase("timed")
            f1, digest, repaired, round_counters = self._round(
                times[round_index])
            if round_index == 0:
                first_f1, first_digest = f1, digest
                rows_repaired = repaired
            self.check(digest == first_digest and repaired == rows_repaired,
                       f"round {round_index}: answers or repairs differ "
                       f"from round 0")
            for key, value in round_counters.items():
                counters[key] = counters.get(key, 0) + value
        best = times.min(axis=0)
        reads, deltas = best[~is_delta], best[is_delta]
        answered = CHURN_READ_NODES * reads.size
        return {
            "ops": int(times.size),
            "cost_s_per_op": float(times.mean()),
            "answer_f1": mean_f1(first_f1),
            "throughput_per_s": answered / best.sum(),
            "latency_ms_p50": 1e3 * percentile(reads, 50),
            "latency_ms_p90": 1e3 * percentile(reads, 90),
            "named": {
                "queries_per_s": answered / best.sum(),
                "queries_per_s_all_rounds": (answered * CHURN_ROUNDS
                                             / times.sum()),
                "read_ms_p50": 1e3 * percentile(reads, 50),
                "read_ms_p90": 1e3 * percentile(reads, 90),
                "read_ms_p99": 1e3 * percentile(reads, 99),
                "delta_ms_p50": 1e3 * percentile(deltas, 50),
                "delta_ms_p90": 1e3 * percentile(deltas, 90),
                "reads": int(reads.size), "deltas": int(deltas.size),
                "round_s": times.sum(axis=1).tolist(),
            },
            "determinism": {"answer_f1": mean_f1(first_f1),
                            "rows_repaired": rows_repaired,
                            **{k: counters[k] for k in
                               ("hits", "misses", "encoded", "dirtied",
                                "evicted", "deltas")}},
            "counters": counters,
        }

    def _round(self, times: np.ndarray):
        """One pass over the op sequence, each op's time into ``times``."""
        f1: List[float] = []
        digest = hashlib.sha256()
        rows_repaired = 0
        before = engine_counters(self.engine)
        for position in range(self.count):
            index = int(self.choices[position])
            task = self.tasks[index]
            op_rng = make_rng([self.seed, position])
            if position % CHURN_DELTA_EVERY == CHURN_DELTA_EVERY - 1:
                delta = self._delta(task.graph, op_rng)
                start = time.perf_counter()
                report = self.engine.apply_delta(delta, task=task)
                times[position] = time.perf_counter() - start
                rows_repaired += int(report.rows_repaired)
                self.mutated.add(index)
                continue
            picked = op_rng.choice(len(task.queries), size=CHURN_READ_NODES,
                                   replace=False)
            examples = [task.queries[int(i)] for i in picked]
            start = time.perf_counter()
            result = self.engine.query([e.query for e in examples],
                                       task=task)
            times[position] = time.perf_counter() - start
            for example in examples:
                members = result[example.query]
                digest.update(members.tobytes())
                f1.append(query_f1(members, example.membership,
                                   example.query))
        counters = counter_delta(before, engine_counters(self.engine))
        return f1, digest.hexdigest(), rows_repaired, counters

    def checks(self) -> None:
        """Each mutated task against a cold rebuild from its final edges."""
        checker = CommunitySearchEngine.from_bundle(
            self.bundle, dtype=SERVE_DTYPE,
            max_cached_contexts=2 * len(self.tasks))
        dtype = checker.dtype
        for index in sorted(self.mutated):
            task = self.tasks[index]
            cold_task = fresh_copy(task)
            cold_task.name = f"{task.name}-cold"
            repaired_ops, cold_ops = graph_ops(task.graph, dtype), graph_ops(
                cold_task.graph, dtype)
            same = all(
                _same_csr(getattr(repaired_ops, name), getattr(cold_ops, name))
                for name in ("norm_adj", "row_norm_adj", "row_norm_adj_t"))
            same = same and all(
                np.array_equal(getattr(repaired_ops, name),
                               getattr(cold_ops, name))
                for name in ("edge_src", "edge_dst"))
            self.check(same, f"{task.name}: repaired operators differ from "
                       f"a cold rebuild")
            queries = [example.query for example in task.queries]
            live = checker.predict_proba(queries, task)
            rebuilt = checker.predict_proba(queries, cold_task)
            self.check(live.tobytes() == rebuilt.tobytes(),
                       f"{task.name}: answers differ from a cold rebuild")


def fresh_copy(task: Task) -> Task:
    """``task`` over a new graph built from copies of its arrays, with no
    caches filled."""
    graph = task.graph
    copy = Graph(graph.num_nodes, np.array(graph.edges),
                 attributes=np.array(graph.attributes),
                 communities=graph.communities, name=graph.name,
                 parent_nodes=graph.parent_nodes)
    return Task(copy, task.support, task.queries, name=task.name)


def _same_csr(a, b) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


WORKLOADS = {cls.name: cls for cls in (MetaTrain, ServeHot, ServeChurn)}


# ----------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run
# ----------------------------------------------------------------------
#: Layers reported per timed op of the workload.
TIMED_LAYERS = ("nn.matmul", "nn.spmm", "nn.backward", "nn.optim",
                "graph.collate", "graph.delta", "gnn.graph_ops",
                "gnn.conv0", "gnn.conv1", "gnn.conv2", "gnn.encoder",
                "tasks.features", "core.context", "core.aggregate",
                "core.decoder_transform", "core.decode", "core.loss",
                "api.predict", "api.apply_delta", "serve.tick")
COUNTED_LAYERS = ("nn.matmul", "nn.spmm", "graph.collate", "gnn.graph_ops",
                  "tasks.features", "core.context", "api.predict")
#: Layers reported as self time (duration minus child spans); every
#: other ``_ms`` metric is the inclusive wall time of its outermost spans.
SELF_TIME_LAYERS = ("gnn.encoder", "core.context", "core.decode",
                    "core.loss", "api.apply_delta")
#: Layers whose work is set-up: reported as total ms of the set-up phase.
SETUP_LAYERS = ("tasks.sample", "api.bundle_load", "api.attach")


def layer_metrics(recorder: SpanRecorder, result: Dict) -> Dict[str, float]:
    ops = result["ops"]
    timed = summarise([s for s in recorder.spans if s.phase == "timed"])
    setup = summarise([s for s in recorder.spans if s.phase == "setup"])
    empty = {"self_s": 0.0, "wall_s": 0.0, "calls": 0}
    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        entry = timed.get(name, empty)
        seconds = entry["self_s" if name in SELF_TIME_LAYERS else "wall_s"]
        metrics[f"{name}_ms"] = 1e3 * seconds / ops
    for name in COUNTED_LAYERS:
        metrics[f"{name}_calls"] = timed.get(name, empty)["calls"] / ops
    for name in SETUP_LAYERS:
        metrics[f"{name}_ms"] = 1e3 * setup.get(name, empty)["wall_s"]
    metrics["graph.rows_repaired"] = recorder.counts.get(
        "graph.rows_repaired", 0.0) / ops
    counters = result["counters"]
    lookups = counters["hits"] + counters["misses"]
    metrics["api.cache_hit_ratio"] = (counters["hits"] / lookups
                                      if lookups else 0.0)
    metrics["api.contexts_encoded"] = counters["encoded"] / ops
    metrics["api.contexts_dirtied_per_delta"] = (
        counters["dirtied"] / counters["deltas"] if counters["deltas"]
        else 0.0)
    predict_wall = timed.get("api.predict", empty)["wall_s"]
    busy = counters["decode_seconds"] + counters["context_seconds"]
    metrics["api.lock_wait_ms"] = 1e3 * max(predict_wall - busy, 0.0) / ops
    serve = result.get("serve", {})
    for key in ("queue_wait_ms_p50", "queue_wait_ms_p99",
                "requests_per_tick", "gen_lag_ms_p99"):
        metrics[f"serve.{key}"] = float(serve.get(key, 0.0))
    metrics["serve.ticks"] = serve.get("ticks", 0) / ops
    return metrics


# ----------------------------------------------------------------------
# Bundle training and the child entry point
# ----------------------------------------------------------------------
def train_bundle(path: str) -> None:
    """Meta-train the serving model once and save it as a ModelBundle."""
    config = ScenarioConfig(num_train_tasks=TRAIN_TASKS, num_valid_tasks=0,
                            num_test_tasks=1, subgraph_nodes=TRAIN_NODES,
                            num_support=SHOTS, num_query=QUERIES,
                            seed=BUNDLE_SEED)
    tasks = make_scenario("sgsc", DATASET, config).train
    model = build_model(tasks[0].features().shape[1], BUNDLE_SEED)
    model.train()
    optimizer = optim.Adam(model.parameters(), lr=LEARNING_RATE)
    steps = BUNDLE_EPOCHS * math.ceil(len(tasks) / TASK_BATCH)
    train_steps(model, tasks, optimizer, make_rng(BUNDLE_SEED + 1), steps)
    model.eval()
    ModelBundle.from_model(model, provenance={
        "benchmark": "perfbench", "dataset": DATASET,
        "steps": steps}).save(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", required=True,
                        choices=("measure", "setup", "traced",
                                 "train-bundle"))
    parser.add_argument("--bundle", default=None)
    parser.add_argument("--started", type=float, default=None,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    started = time.monotonic() if args.started is None else args.started

    if args.mode == "train-bundle":
        train_bundle(args.bundle)
        return 0

    recorder = tracer = None
    if args.mode == "traced":
        recorder = SpanRecorder()
        tracer = Tracer(recorder)
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.bundle,
                                        recorder)
    workload.phase("setup")
    workload.setup()
    setup_s = time.monotonic() - started
    output: Dict = {"setup_s": setup_s}
    if args.mode != "setup":
        workload.phase("timed")
        result = workload.run()
        output["peak_rss_mb"] = peak_rss_mb()
        workload.phase("check")
        if tracer is not None:
            tracer.restore()
            output["layers"] = layer_metrics(recorder, result)
            if args.spans_out:
                recorder.write(args.spans_out)
        try:
            workload.checks()
        except Exception as exc:            # noqa: BLE001 - reported
            workload.check(False, f"check raised {exc!r}")
        output.update(result)
        output.pop("counters", None)
        output.pop("serve", None)
        output.update(attempted=result["ops"],
                      failed=workload.failed, errors=workload.errors)
    output["host"] = fingerprint()
    output.setdefault("peak_rss_mb", peak_rss_mb())
    sys.stdout.write(json.dumps(output) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
