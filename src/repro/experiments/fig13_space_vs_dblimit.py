"""Fig. 13: consumed space vs. per-machine database size limit.

Paper findings to reproduce: "A limit of 40,000 records makes no measurable
difference in the consumed space for any Lambda.  For Lambda = 2.5, even
with a limit of 8000 records (an order of magnitude smaller than the mean
database size), the system can still reclaim 38% of used space, compared to
the optimum of 46%."  The eviction policy discards the lowest-fingerprint
(smallest-file) record, so tight limits sacrifice small files first --
mirroring the Fig. 7 threshold result.

Scale note: the paper's x-axis runs 100..100,000 records against a mean
database of ~54,000 records (10.5M files * lambda / 585).  The scaled corpus
has proportionally smaller databases, so limits are expressed as fractions
of the expected mean database size R = lambda * F / L (Eq. 8); the rendered
table shows the absolute record limits used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import format_bytes, render_table
from repro.experiments.dfc_run import DfcConfig, DfcRun
from repro.experiments.pool import parallel_map
from repro.experiments.scales import PAPER_LAMBDAS, ExperimentScale
from repro.salad.model import expected_records_per_leaf
from repro.salad.salad import RunSettings
from repro.workload.corpus import Corpus
from repro.workload.generator import generate_corpus

#: Database limits as fractions of the expected mean database size.
DEFAULT_LIMIT_FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1, 2, 4)


@dataclass
class Fig13Result:
    limits: Tuple[int, ...]
    lambdas: Tuple[float, ...]
    consumed: Dict[float, List[int]]
    unlimited_consumed: Dict[float, int]
    expected_mean_records: float

    def consumed_series(self) -> Dict[str, List[int]]:
        return {f"Lambda={lam}": self.consumed[lam] for lam in self.lambdas}

    def render(self) -> str:
        table = render_table(
            "Fig. 13: consumed space vs. database size limit (records)",
            "db limit",
            self.limits,
            self.consumed_series(),
            x_formatter=lambda v: f"{v:,}",
            value_formatter=lambda v: format_bytes(v),
        )
        unlimited = ", ".join(
            f"Lambda={lam}: {format_bytes(v)}" for lam, v in self.unlimited_consumed.items()
        )
        return (
            f"{table}\n"
            f"mean database size (Eq. 8) ~ {self.expected_mean_records:,.0f} records; "
            f"no-limit consumed: {unlimited}"
        )


def _run_one_limit(task):
    """One (Lambda, db-limit) point; limit ``None`` = unlimited baseline.

    Module-level so process pools can pickle it; every point is an
    independent simulation over the shared (read-only) corpus.
    """
    corpus, lam, limit, seed, settings = task
    run_ = DfcRun(
        corpus,
        DfcConfig(
            target_redundancy=lam, database_capacity=limit, seed=seed, settings=settings
        ),
    )
    try:
        run_.build()
        run_.insert_all()
        return lam, limit, run_.consumed_bytes()
    finally:
        run_.close()


def run(
    scale: ExperimentScale,
    lambdas: Sequence[float] = PAPER_LAMBDAS,
    limit_fractions: Sequence[float] = DEFAULT_LIMIT_FRACTIONS,
    seed: int = 0,
    corpus: Corpus = None,
    workers: int = 1,
    settings: RunSettings = RunSettings(),
) -> Fig13Result:
    """Fig. 13 is *the* capacity-eviction experiment, so it exercises the
    backend eviction paths hardest; ``settings.db_backend`` selects the
    per-leaf store (contract-identical -- consumed space is unchanged)."""
    if corpus is None:
        corpus = generate_corpus(scale.corpus_spec(), seed=seed)
    file_count = corpus.total_files
    machine_count = len(corpus)
    mean_records = expected_records_per_leaf(machine_count, file_count, 2.0)
    limits = tuple(
        sorted({max(1, int(round(mean_records * frac))) for frac in limit_fractions})
    )
    tasks = [
        (corpus, lam, limit, seed, settings)
        for lam in lambdas
        for limit in (*limits, None)  # None = the no-limit baseline run
    ]
    results = parallel_map(_run_one_limit, tasks, workers)
    index = {limit: i for i, limit in enumerate(limits)}
    consumed: Dict[float, List[int]] = {lam: [0] * len(limits) for lam in lambdas}
    unlimited: Dict[float, int] = {}
    for lam, limit, bytes_ in results:
        if limit is None:
            unlimited[lam] = bytes_
        else:
            consumed[lam][index[limit]] = bytes_
    return Fig13Result(
        limits=limits,
        lambdas=tuple(lambdas),
        consumed=consumed,
        unlimited_consumed=unlimited,
        expected_mean_records=mean_records,
    )
