"""What the process-pool engine adds to the conversion layer's failure
vocabulary (:mod:`repro.convert.errors`): the failure record of a
document that killed its worker, the bounded budget of pool rebuilds,
and one bisection step.  :meth:`repro.runtime.engine.CorpusEngine.recover_chunk`
is the one place that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.convert.errors import DocumentFailure

# The pseudo-stage recorded for documents that took their worker down
# with them (no pipeline stage ever raised).
WORKER_STAGE = "worker"


class PoolRebuildExhausted(RuntimeError):
    """Raised when worker crashes outnumber the rebuild budget."""


@dataclass
class RecoveryBudget:
    """Bounded retries for pool rebuilds during one engine run."""

    limit: int
    spent: int = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise PoolRebuildExhausted(
                f"worker pool broke {self.spent} times; "
                f"rebuild budget is {self.limit} (EngineConfig.max_pool_rebuilds)"
            )


def worker_crash_failure(
    doc_id: str, index: int, *, source: str | None = None
) -> DocumentFailure:
    """The failure record for a document whose conversion killed the
    worker process (identified by chunk bisection)."""
    return DocumentFailure(
        doc_id=doc_id,
        index=index,
        stage=WORKER_STAGE,
        error_type="WorkerCrash",
        message="worker process died while converting this document "
        "(BrokenProcessPool; isolated by chunk bisection)",
        source=source,
    )


def split_segment(
    base: int, sources: list[str]
) -> list[tuple[int, list[str]]]:
    """One bisection step: the (base, sources) halves of a multi-document
    segment, in document order.  Callers only split segments of length
    >= 2 (a single document that breaks the pool *is* the killer)."""
    mid = len(sources) // 2
    return [(base, sources[:mid]), (base + mid, sources[mid:])]
