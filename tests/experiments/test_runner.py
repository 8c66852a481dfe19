"""The experiments CLI."""

import json
import multiprocessing.context

import pytest

from repro.experiments import runner
from repro.experiments.scales import ExperimentScale, get_scale
from repro.experiments.threshold_sweep import run_threshold_sweep
from repro.obs.tracing import build_timelines
from repro.salad import salad as salad_module

TINY = ExperimentScale(
    name="tiny",
    machines=30,
    mean_files_per_machine=10,
    growth_max_leaves=30,
    fig15_small=15,
    fig15_large=30,
)


class TestRunExperiments:
    def test_subset_runs_and_renders(self):
        outputs = runner.run_experiments(["dataset", "model"], "small", seed=1)
        assert set(outputs) == {"dataset", "model"}
        assert "Dataset statistics" in outputs["dataset"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            runner.run_experiments(["fig99"], "small")


class TestScales:
    def test_known_scales(self):
        for name in ("small", "default", "full"):
            scale = get_scale(name)
            assert scale.machines > 0

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_full_scale_matches_paper(self):
        full = get_scale("full")
        assert full.machines == 585
        assert full.growth_max_leaves == 10_000


class TestCli:
    def test_main_with_args(self, capsys):
        assert runner.main(["--scale", "small", "--only", "dataset"]) == 0
        out = capsys.readouterr().out
        assert "[dataset]" in out
        assert "completed 1 experiments" in out

    def test_fig_topology_with_specs(self, capsys):
        assert (
            runner.main(
                [
                    "--scale", "small",
                    "--only", "fig-topology",
                    "--topology", "corporate,wan=8",
                    "--traffic", "rate=6,waves=4,contents=32",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fig_topology" in out
        assert "per-link-class message load" in out

    def test_bad_topology_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--only", "fig-topology", "--topology", "galaxy"])
        assert "unknown topology preset" in capsys.readouterr().err

    def test_bad_traffic_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--only", "fig-topology", "--traffic", "burst=2"])
        assert "unknown traffic key" in capsys.readouterr().err

    def test_trace_sampling_with_a_pool_matches_the_serial_run(self, tmp_path):
        """Sampled events travel back inside each sweep task's result, so a
        pooled run writes the timelines the serial run writes."""
        timelines = {}
        for workers in ("1", "2"):
            path = tmp_path / f"report-{workers}.json"
            code = runner.main(
                [
                    "--scale", "small",
                    "--only", "fig07", "fig14",
                    "--workers", workers,
                    "--trace-sample-rate", "0.05",
                    "--metrics-out", str(path),
                ]
            )
            assert code == 0
            traces = json.loads(path.read_text(encoding="utf-8"))["traces"]
            assert traces["experiments"] == ["fig07", "fig14"]
            timelines[workers] = build_timelines(traces["events"])
        assert timelines["1"]
        assert timelines["2"] == timelines["1"]

    def test_experiments_that_return_no_events_sample_nothing(
        self, tmp_path, monkeypatch
    ):
        """fig08's results carry no trace events, so its engines build no
        recorder, and the report names the experiments its traces cover."""
        built = []

        class CountingRecorder(salad_module.TraceRecorder):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(salad_module, "TraceRecorder", CountingRecorder)
        path = tmp_path / "report.json"
        code = runner.main(
            [
                "--scale", "small",
                "--only", "fig08",
                "--trace-sample-rate", "0.05",
                "--metrics-out", str(path),
            ]
        )
        assert code == 0
        assert built == []
        traces = json.loads(path.read_text(encoding="utf-8"))["traces"]
        assert traces["experiments"] == []
        assert traces["events"] == []

    def test_no_worker_count_survives_main(self, monkeypatch, capsys):
        """A --workers 2 run leaves nothing behind: a later default-argument
        sweep in the same process runs without building a pool."""
        assert runner.main(["--scale", "small", "--only", "dataset", "--workers", "2"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a default-argument sweep built a process pool")

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", refuse)
        sweep = run_threshold_sweep(TINY)
        assert len(sweep.lambdas) > 1
