"""Micro-batch execution: turn one tick's requests into decoder passes.

One :class:`MicroBatcher` call is the synchronous heart of a gateway
tick: it takes the drained requests, drops the ones whose futures were
cancelled while they waited, groups the rest **per task session** (the
cached, decoder-transformed context is per-task, so the task is the
natural coalescing boundary), and answers each group with a single
:meth:`CommunitySearchEngine.predict_proba_many
<repro.api.engine.CommunitySearchEngine.predict_proba_many>` call — one
shared context fetch per group, per-request answers bitwise-identical
to direct ``predict_proba`` calls.

A request whose task was detached between submit and flush is *not* an
error: the engine transparently re-encodes the context (an LRU miss),
the request still gets its answer — sessions are a cache, not a lease.
A group whose decode raises (e.g. the task's graph was mutated into an
inconsistent state) fails only that group's futures, with the original
exception; other groups in the same tick are unaffected.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..api.engine import CommunitySearchEngine
from ..tasks.task import Task
from .queue import ServeRequest

__all__ = ["MicroBatcher", "TickResult"]


@dataclasses.dataclass
class TickResult:
    """What one flush actually did, for the gateway's stats layer."""

    completed: int = 0
    cancelled: int = 0
    failed: int = 0
    groups: int = 0
    nodes: int = 0
    #: Requests that were answered (for latency recording).
    answered: List[ServeRequest] = dataclasses.field(default_factory=list)


class MicroBatcher:
    """Executes one tick's coalesced requests against the engine."""

    def __init__(self, engine: CommunitySearchEngine):
        self.engine = engine

    def execute(self, requests: List[ServeRequest]) -> TickResult:
        result = TickResult()
        groups: Dict[Task, List[ServeRequest]] = {}
        for request in requests:
            if request.future.done():
                # Cancelled (or already failed) while queued — skip it
                # before it costs a decode.
                result.cancelled += 1
                continue
            groups.setdefault(request.task, []).append(request)
        result.groups = len(groups)
        for task, group in groups.items():
            self._execute_group(task, group, result)
        return result

    def _execute_group(self, task: Task, group: List[ServeRequest],
                       result: TickResult) -> None:
        try:
            answers = self.engine.predict_proba_many(
                [request.nodes for request in group], task=task)
        except Exception as exc:    # noqa: BLE001 - forwarded to callers
            for request in group:
                if not request.future.done():
                    request.future.set_exception(exc)
                    result.failed += 1
            return
        for request, answer in zip(group, answers):
            if request.future.done():   # cancelled during the decode
                result.cancelled += 1
                continue
            request.future.set_result(answer)
            result.completed += 1
            result.nodes += int(request.nodes.size)
            result.answered.append(request)
