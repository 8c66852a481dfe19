"""Fig. 8: consumed space vs. machine failure probability.

The paper "tested the resilience of the DFC system to machine failure by
randomly failing the simulated machines", with the headline "With
Lambda = 2.5, even when machines fail half of the time, the system can still
reclaim 38% of used space, comparing favorably to the optimal value of 46%."

Failure model: desktops "fail half of the time" in the duty-cycle sense --
each message is lost with probability p because its recipient is down at
delivery time.  (Permanently crashing a p-fraction of machines cannot match
Fig. 8: the dead machines' own files would cap reclaim at ~23% for p = 0.5.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import format_bytes, render_table
from repro.experiments.dfc_run import DfcConfig, DfcRun
from repro.experiments.pool import parallel_map
from repro.experiments.scales import PAPER_LAMBDAS, ExperimentScale
from repro.salad.salad import RunSettings
from repro.workload.corpus import Corpus
from repro.workload.generator import generate_corpus

#: The paper's x-axis: failure probabilities 0 to 0.9.
PAPER_FAILURE_PROBABILITIES = tuple(i / 10 for i in range(10))


@dataclass
class Fig08Result:
    probabilities: Tuple[float, ...]
    lambdas: Tuple[float, ...]
    consumed: Dict[float, List[int]]  # per Lambda
    total_bytes: int
    reclaimed_at_half: Dict[float, float]  # reclaimed fraction at p = 0.5

    def consumed_series(self) -> Dict[str, List[int]]:
        return {f"Lambda={lam}": self.consumed[lam] for lam in self.lambdas}

    def render(self) -> str:
        table = render_table(
            "Fig. 8: consumed space vs. machine failure probability",
            "p(fail)",
            self.probabilities,
            self.consumed_series(),
            x_formatter=lambda p: f"{p:.1f}",
            value_formatter=lambda v: format_bytes(v),
        )
        extra = ", ".join(
            f"Lambda={lam}: {frac:.0%}" for lam, frac in self.reclaimed_at_half.items()
        )
        return f"{table}\nreclaimed at p=0.5 (paper: 38% at Lambda=2.5): {extra}"


def _run_one_point(task):
    """One (Lambda, p) simulation point (module-level for process pools).

    Each point is a fully independent DFC run, so the whole lambdas x
    probabilities grid fans out across a pool without any shared state.
    """
    corpus, lam, i, p, seed, settings = task
    run_ = DfcRun(
        corpus, DfcConfig(target_redundancy=lam, seed=seed + i, settings=settings)
    )
    try:
        run_.build()
        run_.set_failure_probability(p)
        run_.insert_all()
        return lam, i, run_.consumed_bytes(), run_.reclaimed_fraction()
    finally:
        run_.close()


def run(
    scale: ExperimentScale,
    lambdas: Sequence[float] = PAPER_LAMBDAS,
    probabilities: Sequence[float] = PAPER_FAILURE_PROBABILITIES,
    seed: int = 0,
    corpus: Corpus = None,
    workers: int = 1,
    settings: RunSettings = RunSettings(),
) -> Fig08Result:
    if corpus is None:
        corpus = generate_corpus(scale.corpus_spec(), seed=seed)
    tasks = [
        (corpus, lam, i, p, seed, settings)
        for lam in lambdas
        for i, p in enumerate(probabilities)
    ]
    results = parallel_map(_run_one_point, tasks, workers)
    consumed: Dict[float, List[int]] = {lam: [0] * len(probabilities) for lam in lambdas}
    reclaimed_at_half: Dict[float, float] = {}
    for lam, i, bytes_, reclaimed in results:
        consumed[lam][i] = bytes_
        if abs(probabilities[i] - 0.5) < 1e-9:
            reclaimed_at_half[lam] = reclaimed
    return Fig08Result(
        probabilities=tuple(probabilities),
        lambdas=tuple(lambdas),
        consumed=consumed,
        total_bytes=corpus.total_bytes,
        reclaimed_at_half=reclaimed_at_half,
    )
