"""Tests for the ``herald`` command-line interface."""

import ast
import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.exec import backends
from repro.experiment import load_report, write_report


class TestDescribe:
    def test_describe_lists_workloads_and_classes(self, capsys):
        assert main(["describe"]) == 0
        output = capsys.readouterr().out
        assert "arvr-a" in output
        assert "edge" in output and "cloud" in output


class TestSchedule:
    def test_schedule_fda_on_edge(self, capsys):
        assert main(["schedule", "--workload", "mlperf", "--chip", "edge",
                     "--design", "fda-nvdla"]) == 0
        output = capsys.readouterr().out
        assert "latency" in output
        assert "fda-nvdla-edge" in output

    def test_schedule_rda(self, capsys):
        assert main(["schedule", "--workload", "mlperf", "--chip", "edge",
                     "--design", "rda"]) == 0
        assert "rda-edge" in capsys.readouterr().out

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--design", "tpu"])

    def test_maelstrom_on_a_one_pe_chip_is_exit_2(self, tmp_path, capsys):
        """The default design's two-way partition search cannot split one
        PE: one error line naming the key, not a SearchError traceback."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "schedule", "workload": "arvr-a", "design": "maelstrom",
            "chip": {"class": "edge", "num_pes": 1}}), encoding="utf-8")
        assert main(["run", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: design: 2 sub-accelerators need at least one PE each, "
            "but chip 'edge' has 1\n")


class TestDse:
    _SMOKE = ["dse", "--workload", "arvr-a", "--chip", "edge",
              "--pe-steps", "4", "--bw-steps", "1"]

    def test_dse_parallel_jobs_match_serial(self, tmp_path, capsys,
                                            monkeypatch):
        # The smoke cell is far below the pool break-even; a zero break-even
        # keeps this test on real workers.
        monkeypatch.setattr(backends, "POOL_PLACEMENTS_PER_WORKER", 0)
        base = self._SMOKE
        assert main(base + ["--jobs", "1"]) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert "process pool (2 jobs)" in parallel_output
        serial_best = [line for line in serial_output.splitlines() if "best" in line]
        parallel_best = [line for line in parallel_output.splitlines() if "best" in line]
        assert serial_best == parallel_best

    def test_plain_dse_report_counts_its_executed_tasks(self, tmp_path,
                                                        capsys):
        """A run without a checkpoint still counts every task it ran."""
        report = str(tmp_path / "dse.json")
        assert main(["dse", "--workload", "arvr-a", "--chip", "edge",
                     "--pe-steps", "4", "--bw-steps", "2",
                     "--report", report]) == 0
        capsys.readouterr()
        loaded = load_report(report)
        assert loaded["details"]["points"] == 19
        assert loaded["timing"]["executed_tasks"] == 19.0
        assert loaded["timing"]["resumed_tasks"] == 0.0

    def test_dse_jobs_declined_below_pool_break_even(self, tmp_path, capsys):
        serial_report = str(tmp_path / "serial.json")
        pool_report = str(tmp_path / "pool.json")
        assert main(self._SMOKE + ["--report", serial_report]) == 0
        serial_output = capsys.readouterr().out
        assert main(self._SMOKE + ["--jobs", "2", "--report",
                                   pool_report]) == 0
        declined_output = capsys.readouterr().out
        assert ("execution backend: serial (in-process) (--jobs 2 declined: "
                "7828 layer placements, a pool worker needs "
                f"{backends.POOL_PLACEMENTS_PER_WORKER})") in declined_output
        assert ([line for line in serial_output.splitlines() if "best" in line]
                == [line for line in declined_output.splitlines()
                    if "best" in line])
        declined, serial = load_report(pool_report), load_report(serial_report)
        assert declined["timing"]["workers"] == serial["timing"]["workers"] == 1
        for section in ("metrics", "details"):
            assert declined[section] == serial[section]

    @pytest.mark.parametrize("steps", [["--pe-steps", "1000000"],
                                       ["--pe-steps", "1024"],
                                       ["--bw-steps", "1000000"]])
    def test_unbounded_design_space_is_refused_up_front(self, capsys, steps):
        """A step count whose sweep would run for hours (or more steps than
        PEs, once silently 1-PE steps) is exit 2 before any point is built."""
        start = time.perf_counter()
        code = main(["dse", "--workload", "arvr-a", "--chip", "edge"] + steps)
        elapsed = time.perf_counter() - start
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: search")
        assert elapsed < 1.0

    def test_valid_step_counts_of_a_huge_chip_come_fast(self, tmp_path,
                                                        capsys):
        """The error's divisor list costs sqrt(PEs) steps, not PEs."""
        spec_file = tmp_path / "dse.json"
        spec_file.write_text(json.dumps({
            "kind": "dse", "workload": "arvr-a", "search": {"pe_steps": 3},
            "chip": {"num_pes": 10 ** 8, "noc_gbps": 64, "buffer_mib": 8}}))
        start = time.perf_counter()
        assert main(["run", str(spec_file)]) == 2
        assert time.perf_counter() - start < 1.0
        assert ("valid step counts: 4, 5, 8, 10, 16, 20, 25, 32, 40, 50, 64, "
                "80, 100, 125, 128, 160, 200, 250, 256, 320"
                in capsys.readouterr().err)

    def test_dse_jobs_capped_by_sweep_size(self, capsys, monkeypatch):
        monkeypatch.setattr(backends, "POOL_PLACEMENTS_PER_WORKER", 7828 // 2)
        assert main(self._SMOKE + ["--jobs", "3"]) == 0
        assert ("execution backend: process pool (2 jobs) (--jobs 3 capped at "
                "2: 7828 layer placements, a pool worker needs 3914)"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("chip, pe_steps, valid", [
        ("edge", "3", "4, 8, 16, 32, 64, 128, 256, 512, 1024"),
        ("edge", "2", "4, 8, 16, 32, 64, 128, 256, 512, 1024"),
        ("edge", "61", "4, 8, 16, 32, 64, 128, 256, 512, 1024"),
        ("cloud", "24", "4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, "
                        "8192, 16384"),
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dse_pe_steps_must_divide_the_chip(self, chip, pe_steps, valid,
                                               jobs, capsys):
        assert main(["dse", "--chip", chip, "--pe-steps", pe_steps,
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: search.pe_steps: {pe_steps} does not "
                              f"divide the ")
        assert err.rstrip().endswith(f"valid step counts: {valid}")

    def test_spec_pe_steps_must_divide_the_chip(self, tmp_path, capsys):
        spec_file = tmp_path / "dse.json"
        spec_file.write_text(json.dumps({"kind": "dse", "chip": "edge",
                                         "search": {"pe_steps": 3}}))
        assert main(["run", str(spec_file)]) == 2
        assert ("error: search.pe_steps: 3 does not divide the 1024 PEs of "
                "chip 'edge'" in capsys.readouterr().err)

    def test_dse_imports_no_third_party_package(self):
        """The package is stdlib-only: a full ``herald dse`` run in a fresh
        interpreter never imports numpy.  A serial run builds no pool, so it
        never imports the process-pool machinery either."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = ("import sys\n"
                  "from repro.cli import main\n"
                  "assert main(['dse', '--workload', 'arvr-a', '--chip', "
                  "'edge', '--pe-steps', '4', '--bw-steps', '1']) == 0\n"
                  "print('loaded:', sorted(name for name in ('numpy', "
                  "'multiprocessing', 'concurrent.futures.process') "
                  "if name in sys.modules))\n")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "loaded: []"

    def test_dse_report_spawns_no_child_process(self, tmp_path):
        """Stamping the report's platform never resolves the processor
        name, which spawns ``uname -p``: a ``herald dse --report`` run never
        imports ``subprocess``."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        report = str(tmp_path / "report.json")
        script = ("import sys\n"
                  "from repro.cli import main\n"
                  "assert main(['dse', '--workload', 'arvr-a', '--chip', "
                  "'edge', '--pe-steps', '4', '--bw-steps', '1', "
                  f"'--report', {report!r}]) == 0\n"
                  "print('subprocess' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "False"
        assert load_report(report)["environment"]["platform"]


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Every package under ``src/repro``: the re-export tables (``repro``,
#: ``core``, ``exec``, ``serve``, ``analysis``) and the eager ones.
_PACKAGES = ("repro", "repro.accel", "repro.analysis", "repro.core",
             "repro.dataflow", "repro.exec", "repro.experiment",
             "repro.maestro", "repro.models", "repro.serve", "repro.workloads")


def _loaded_after(script, prefixes):
    """Run ``script`` in a fresh interpreter; return the loaded modules
    whose names start with one of ``prefixes``."""
    script += ("\nimport sys\n"
               f"print(sorted(name for name in sys.modules if name.startswith("
               f"{tuple(prefixes)!r})))\n")
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    return ast.literal_eval(result.stdout.splitlines()[-1])


class TestImportBoundary:
    """Each command imports only what it runs: the DSE stack loads with
    ``repro.cli``, and each serving command imports its serving modules
    inside its own branch.  Every check runs in a fresh interpreter."""

    def test_cli_import_loads_no_serving_module(self):
        assert _loaded_after("import repro.cli", ["repro.serve"]) == []

    @pytest.mark.parametrize("argv", [
        TestDse._SMOKE,
        ["schedule", "--workload", "arvr-a", "--chip", "edge", "--design",
         "rda"],
    ], ids=["dse", "schedule"])
    def test_batch_commands_load_no_serving_checkpoint_or_pool(self, argv):
        loaded = _loaded_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n",
            ["repro.serve", "repro.exec.checkpoint", "repro.analysis.sweeps",
             "multiprocessing"])
        assert loaded == []

    def test_serve_spec_loads_only_the_serving_modules_it_runs(
            self, tmp_path):
        spec = tmp_path / "serve.json"
        spec.write_text(json.dumps({
            "kind": "serve", "workload": "arvr-a", "design": "fda-nvdla",
            "streaming": {"frames": 1}, "sustained": {"enabled": False}}),
            encoding="utf-8")
        loaded = _loaded_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['run', {str(spec)!r}]) == 0\n",
            ["repro.serve.", "repro.exec.checkpoint"])
        assert loaded == ["repro.serve.simulator", "repro.serve.trace",
                          "repro.serve.workload"]

    @pytest.mark.parametrize("package", _PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        script = (f"import importlib\n"
                  f"package = importlib.import_module({package!r})\n"
                  f"listed = set(dir(package))\n"
                  f"for name in package.__all__:\n"
                  f"    assert name in listed, name\n"
                  f"    exec(f'from {package} import {{name}}')\n"
                  f"print('resolved', len(package.__all__))\n")
        env = dict(os.environ, PYTHONPATH=_SRC)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.startswith("resolved ")

    def test_unknown_names_are_attribute_errors(self):
        import repro.serve

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.serve.Nope  # noqa: B018
        with pytest.raises(ImportError):
            from repro.serve import Nope  # noqa: F401

    def test_choice_tuples_name_the_registries(self):
        from repro.choices import ROUTER_POLICY_NAMES, TRAFFIC_KINDS
        from repro.serve.router import ROUTER_POLICIES
        from repro.serve.traffic import TrafficSpec

        assert tuple(ROUTER_POLICIES) == ROUTER_POLICY_NAMES
        for kind in TRAFFIC_KINDS:
            assert TrafficSpec(kind, "resnet50", 30.0, 1).kind == kind


class TestNonFiniteNumbers:
    """NaN fails every comparison, so a bound check alone lets it (and the
    infinities) through; every numeric input rejects them explicitly."""

    @staticmethod
    def _exit_code(argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code

    @staticmethod
    def _regressed_pair(tmp_path):
        current = str(tmp_path / "current.json")
        assert main(["schedule", "--design", "rda", "--report", current]) == 0
        baseline = load_report(current)
        for name in baseline["metrics"]:
            baseline["metrics"][name] *= 0.5
        baseline_path = str(tmp_path / "baseline.json")
        write_report(baseline, baseline_path)
        return current, baseline_path

    def test_report_diff_nan_tolerance_is_exit_2(self, tmp_path, capsys):
        current, baseline = self._regressed_pair(tmp_path)
        assert main(["report-diff", current, baseline]) == 1
        capsys.readouterr()
        assert self._exit_code(["report-diff", current, baseline,
                                "--tolerance", "nan"]) == 2
        assert ("--tolerance: must be a finite number (got nan)"
                in capsys.readouterr().err)

    def test_run_baseline_nan_tolerance_is_exit_2(self, tmp_path, capsys):
        _, baseline = self._regressed_pair(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "schedule", "design": "rda"}),
                        encoding="utf-8")
        capsys.readouterr()
        assert self._exit_code(["run", str(spec), "--baseline", baseline,
                                "--tolerance", "nan"]) == 2
        assert ("--tolerance: must be a finite number (got nan)"
                in capsys.readouterr().err)

    def test_serve_nan_fps_scale_is_exit_2(self, capsys):
        assert main(["serve", "--design", "fda-nvdla", "--frames", "1",
                     "--fps-scale", "nan", "--skip-sustained"]) == 2
        assert ("error: streaming.fps_scale: expected a finite number "
                "(got nan)" in capsys.readouterr().err)

    def test_infinite_jitter_is_exit_2(self, capsys):
        assert main(["serve", "--design", "fda-nvdla", "--frames", "1",
                     "--jitter-ms", "inf", "--skip-sustained"]) == 2
        assert ("error: streaming.jitter_ms: expected a finite number "
                "(got inf)" in capsys.readouterr().err)

    def test_spec_nan_fps_scale_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "serve", "design": "fda-nvdla",
            "streaming": {"frames": 1, "fps_scale": float("nan")}}),
            encoding="utf-8")
        assert main(["run", str(spec)]) == 2
        assert ("streaming.fps_scale: expected a finite number (got nan)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind, extra, metric", [
        ("schedule", {"design": {"kind": "fda", "style": "nvdla"}},
         "latency_s"),
        ("dse", {"search": {"pe_steps": 4, "bw_steps": 1}},
         "fda_latency_s"),
    ])
    def test_non_finite_metric_is_exit_2_without_a_report(
            self, tmp_path, capsys, monkeypatch, kind, extra, metric):
        """A metric that is not finite (here every latency, patched to
        infinity: no valid spec reaches one since the load checks refuse
        overflowing clocks) names the metric and writes no report, instead
        of a file ``load_report`` rejects."""
        from repro.core.schedule import Schedule

        monkeypatch.setattr(Schedule, "makespan_seconds",
                            property(lambda schedule: float("inf")))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict({
            "kind": kind, "workload": "arvr-a", "chip": "edge"}, **extra)),
            encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["run", str(spec), "--report", str(report)]) == 2
        assert (f"error: metric {metric!r} is not a finite number (inf)"
                in capsys.readouterr().err)
        assert not report.exists()

    @pytest.mark.parametrize("chip, design, message", [
        ({"class": "edge", "noc_bandwidth_bytes_per_s": 1,
          "dram_bandwidth_bytes_per_s": 1, "clock_hz": 1e300},
         {"kind": "fda", "style": "nvdla"},
         "chip: a 1e+300 Hz clock over 1 B/s takes 1e+300 cycles per byte, "
         "above the 1.341e+154 at which cycle counts can overflow"),
        ({"class": "edge", "clock_hz": 1e160},
         {"kind": "hda", "styles": ["nvdla", "shidiannao"],
          "bw_partition_bytes_per_s": [1, 1e9]},
         "design.bw_partition_bytes_per_s[0]: a 1e+160 Hz clock over 1 B/s "
         "takes 1e+160 cycles per byte, above the 1.341e+154 at which cycle "
         "counts can overflow"),
    ], ids=["chip", "partition"])
    def test_overflowing_clock_is_exit_2_before_scheduling(
            self, tmp_path, capsys, monkeypatch, chip, design, message):
        """A clock so fast over its links that cycle counts can overflow is
        refused at load, before anything is scheduled: it used to schedule
        the whole workload and end at the finite-metric check."""
        from repro.core.scheduler import HeraldScheduler

        def no_scheduling(*args, **kwargs):
            raise AssertionError("scheduled a refused chip")

        monkeypatch.setattr(HeraldScheduler, "schedule", no_scheduling)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "schedule", "workload": "arvr-a", "design": design,
            "chip": chip}), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["run", str(spec), "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize("chip, message", [
        ({"class": "edge", "noc_gbps": 1e-300},
         "chip.noc_gbps: 1e-291 B/s is below the physical floor of 1 B/s"),
        ({"class": "edge", "dram_gbps": 1e-300},
         "chip.dram_gbps: 1e-291 B/s is below the physical floor of 1 B/s"),
        ({"class": "edge", "clock_hz": 1e-300},
         "chip.clock_hz: 1e-300 Hz is below the physical floor of 1 Hz"),
    ], ids=["noc", "dram", "clock"])
    def test_underflowing_rate_is_exit_2_before_scheduling(
            self, tmp_path, capsys, monkeypatch, chip, message):
        """A rate below its physical floor is refused at load: one error
        line naming the key, no schedule built, no report written."""
        from repro.core.scheduler import HeraldScheduler

        def no_scheduling(*args, **kwargs):
            raise AssertionError("scheduled a refused chip")

        monkeypatch.setattr(HeraldScheduler, "schedule", no_scheduling)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "schedule", "workload": "arvr-a",
            "design": {"kind": "fda", "style": "nvdla"}, "chip": chip}),
            encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["run", str(spec), "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()


class TestUnwritableReport:
    @pytest.mark.parametrize("argv", [
        ["schedule", "--design", "rda"],
        ["dse", "--workload", "arvr-a", "--chip", "edge", "--pe-steps", "4",
         "--bw-steps", "1"],
    ], ids=["schedule", "dse"])
    def test_unwritable_report_path_is_one_error_line_and_exit_2(
            self, tmp_path, capsys, argv):
        path = str(tmp_path / "missing" / "report.json")
        assert main(argv + ["--report", path]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot write report {path!r}: "
                       f"No such file or directory\n")


class TestServe:
    def test_serve_reports_sla_metrics(self, capsys):
        assert main(["serve", "--workload", "arvr-a", "--chip", "edge",
                     "--design", "fda-nvdla", "--frames", "1",
                     "--skip-sustained"]) == 0
        output = capsys.readouterr().out
        for model in ("resnet50", "unet", "mobilenet_v2"):
            assert model in output
        for column in ("p50", "p95", "p99", "miss", "backlog", "drop"):
            assert column in output

    def test_serve_reports_sustained_fps(self, capsys):
        assert main(["serve", "--workload", "arvr-a", "--chip", "cloud",
                     "--design", "fda-nvdla", "--frames", "1"]) == 0
        assert "sustained FPS" in capsys.readouterr().out

    def test_serve_is_deterministic_under_jitter(self, capsys):
        args = ["serve", "--workload", "arvr-a", "--chip", "edge",
                "--design", "fda-nvdla", "--frames", "1",
                "--jitter-ms", "2.5", "--seed", "11", "--skip-sustained"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_serve_sustained_search_knobs_are_honoured(self, capsys):
        assert main(["serve", "--workload", "arvr-a", "--chip", "cloud",
                     "--design", "fda-nvdla", "--frames", "1",
                     "--sustained-lo", "0.001", "--sustained-hi", "4",
                     "--sustained-probes", "2"]) == 0
        output = capsys.readouterr().out
        assert "sustained FPS" in output
        if "none" not in output:
            # 2 bisection probes + 2 bracket probes at most.
            assert any(f"{count} probes" in output for count in (1, 2, 3, 4))

    def test_serve_rejects_inverted_sustained_brackets(self, capsys):
        assert main(["serve", "--workload", "arvr-a", "--chip", "cloud",
                     "--design", "fda-nvdla", "--frames", "1",
                     "--sustained-lo", "4", "--sustained-hi", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: sustained.lo: must be below "
                                "sustained.hi (got lo=4, hi=2)\n")
        # The bracket error must fire before any simulation work (no report
        # output precedes it).
        assert captured.out == ""

    @pytest.mark.parametrize("scale", ["1e300", "1e-6"])
    def test_extreme_accepted_rates_keep_one_row_per_line(self, capsys,
                                                          scale):
        # Fixed-point rates and deadlines grow to hundreds of digits here.
        assert main(["serve", "--design", "fda-nvdla", "--frames", "1",
                     "--fps-scale", scale, "--skip-sustained"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum("FPS x" in line for line in lines) == 6
        assert max(len(line) for line in lines) <= 160


class TestFleet:
    def test_fleet_reports_per_chip_rows(self, capsys):
        assert main(["fleet", "--workload", "arvr-a", "--chip", "edge",
                     "--design", "fda-nvdla", "--chips", "2",
                     "--policy", "round-robin", "--frames", "1"]) == 0
        output = capsys.readouterr().out
        assert "Fleet report" in output
        assert "fda-nvdla-edge[0]" in output
        assert "fda-nvdla-edge[1]" in output
        for column in ("util", "p99", "miss", "backlog"):
            assert column in output

    def test_fleet_jobs_match_serial(self, capsys):
        base = ["fleet", "--workload", "arvr-a", "--chip", "edge",
                "--design", "fda-nvdla", "--chips", "2",
                "--policy", "earliest-completion", "--frames", "1"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "process pool (2 jobs)" in parallel
        serial_rows = [line for line in serial.splitlines()
                       if "Fleet report" in line or "util" in line]
        parallel_rows = [line for line in parallel.splitlines()
                         if "Fleet report" in line or "util" in line]
        assert serial_rows == parallel_rows

    @pytest.mark.parametrize("argv, jobs", [
        (["--workload", "mlperf", "--chip", "mobile", "--chips", "3",
          "--online"], 3),
        (["--workload", "arvr-a", "--chip", "cloud", "--chips", "1",
          "--frames", "1", "--min-chips", "--max-chips", "2"], 2),
    ])
    def test_fleet_pool_is_capped_at_the_chip_count(self, capsys, argv,
                                                    jobs):
        """A fleet run never has more tasks at once than its largest fleet
        has chips, so ``--jobs 8`` starts (and names) at most that many
        workers."""
        assert main(["fleet", "--design", "fda-nvdla", "--jobs", "8"]
                    + argv) == 0
        assert (f"execution backend: process pool ({jobs} jobs)\n"
                in capsys.readouterr().out)

    def test_fleet_min_chips_search(self, capsys):
        assert main(["fleet", "--workload", "arvr-a", "--chip", "cloud",
                     "--design", "fda-nvdla", "--chips", "1",
                     "--frames", "1", "--min-chips", "--max-chips", "2"]) == 0
        assert "min chips for SLA" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--policy", "coin-flip"])


class TestFleetOnline:
    _BASE = ["fleet", "--workload", "arvr-a", "--chip", "edge",
             "--design", "fda-nvdla", "--chips", "2",
             "--policy", "least-outstanding", "--frames", "1"]

    def test_online_traffic_quickstart(self, capsys):
        assert main(self._BASE + ["--online", "--traffic", "poisson"]) == 0
        output = capsys.readouterr().out
        assert "arvr-a-poisson" in output
        assert "traced frames" in output
        assert "Fleet report" in output
        assert "closed loop:" in output
        assert "re-dispatched" in output and "stolen" in output

    def test_online_faults_and_autoscale_report(self, capsys):
        assert main(self._BASE + [
            "--online", "--fault", "die:1@0.01",
            "--fault", "slow:0@0.001-0.005x2.5", "--autoscale", "5"]) == 0
        output = capsys.readouterr().out
        assert "closed loop:" in output
        assert "autoscale [" in output
        assert "pending, active" in output

    def test_online_run_is_deterministic(self, capsys):
        argv = self._BASE + ["--online", "--traffic", "bursty",
                             "--fault", "die:0@0.01"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_fault_requires_online(self, capsys):
        assert main(self._BASE + ["--fault", "die:0@0.01"]) == 2
        assert (capsys.readouterr().err
                == "error: faults: not a setting of kind 'fleet'\n")

    def test_autoscale_requires_online(self, capsys):
        assert main(self._BASE + ["--autoscale", "5"]) == 2
        assert (capsys.readouterr().err
                == "error: autoscale: not a setting of kind 'fleet'\n")

    def test_traffic_conflicts_with_jitter(self, capsys):
        assert main(self._BASE + ["--online", "--traffic", "poisson",
                                  "--jitter-ms", "1"]) == 2
        assert ("error: traffic: arrival jitter applies to the periodic "
                "trace only" in capsys.readouterr().err)

    def test_all_chips_dead_is_a_clean_error(self, capsys):
        assert main(self._BASE + ["--online", "--fault", "die:0@0",
                                  "--fault", "die:1@0"]) == 2
        err = capsys.readouterr().err
        assert "error: cannot dispatch onto an empty fleet" in err

    def test_tiny_autoscale_interval_is_a_clean_error(self, capsys):
        assert main(self._BASE + ["--online", "--autoscale", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert "error: autoscale interval_s 1e-303 is too small" in err

    def test_fault_naming_a_missing_chip_is_a_clean_error(self, capsys):
        assert main(self._BASE + ["--online", "--fault", "die:7@0.01"]) == 2
        assert "only 2 chips" in capsys.readouterr().err

    def test_unknown_traffic_kind_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--online", "--traffic", "lumpy"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lumpy'" in capsys.readouterr().err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--workload", "bogus"])

    @pytest.mark.parametrize("argv, message", [
        (["dse", "--jobs", "0"],
         "exec.jobs: expected a positive int (got 0)"),
        (["dse", "--jobs", "-2"],
         "exec.jobs: expected a positive int (got -2)"),
        (["dse", "--pe-steps", "-4"],
         "search.pe_steps: expected an int >= 2 (got -4)"),
        (["dse", "--pe-steps", "1"],
         "search.pe_steps: expected an int >= 2 (got 1)"),
        (["dse", "--bw-steps", "0"],
         "search.bw_steps: expected a positive int (got 0)"),
        (["dse", "--bw-steps", "-1"],
         "search.bw_steps: expected a positive int (got -1)"),
        (["serve", "--frames", "0"],
         "streaming.frames: expected a positive int (got 0)"),
        (["serve", "--fps-scale", "0"],
         "streaming.fps_scale: expected a number > 0 (got 0)"),
        (["serve", "--jitter-ms", "-1"],
         "streaming.jitter_ms: expected a number >= 0 (got -1)"),
        (["serve", "--sustained-lo", "0"],
         "sustained.lo: expected a number > 0 (got 0)"),
        (["serve", "--sustained-probes", "0"],
         "sustained.probes: expected a positive int (got 0)"),
        (["serve", "--sustained-tolerance", "-0.5"],
         "sustained.tolerance: expected a number >= 0 (got -0.5)"),
        (["fleet", "--chips", "0"],
         "fleet.chips: expected a positive int (got 0)"),
        (["fleet", "--jobs", "0"],
         "exec.jobs: expected a positive int (got 0)"),
        (["fleet", "--max-chips", "0"],
         "min_chips.max_chips: expected a positive int (got 0)"),
        (["fleet", "--fps-scale", "-1"],
         "streaming.fps_scale: expected a number > 0 (got -1)"),
        (["fleet", "--autoscale", "0"],
         "autoscale: not a setting of kind 'fleet'"),
        (["fleet", "--autoscale", "-2"],
         "autoscale: not a setting of kind 'fleet'"),
        (["fleet", "--fault", "nonsense"],
         "faults: not a setting of kind 'fleet'"),
        (["fleet", "--fault", "slow:0@0.1x2"],
         "faults: not a setting of kind 'fleet'"),
        (["dse", "--jobs", "two"],
         "argument --jobs: invalid int value: 'two'"),
    ])
    def test_bad_numeric_arguments_rejected_before_running(self, argv,
                                                           message, capsys):
        """Invalid counts/steps fail fast, before anything runs, with one
        error line: the parser's for a non-number, else the schema's."""
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error: " in line]
        assert len(errors) == 1 and errors[0].endswith("error: " + message)


class TestArgvFuzz:
    """Seeded fuzz of every sub-command's argv: swapped flag values,
    dropped, duplicated and reordered flags.  ``run_experiment`` is
    patched, so an argv that validates exits 0 without running; every
    other mutant must end in exit 2 with one ``error:`` line."""

    _GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "experiments")
    _VALUES = ["0", "-1", "nan", "inf", "-inf", "1e400", str(10 ** 400), "x",
               "", "1e", "edge", "--", "0.5"]

    @staticmethod
    def _bases(tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "schedule", "workload": "arvr-a",
                                    "design": "rda"}), encoding="utf-8")
        report = os.path.join(TestArgvFuzz._GOLDEN, "schedule_rda.report.json")
        out = str(tmp_path / "out.json")
        return [
            ["describe"],
            ["schedule", "--workload", "arvr-a", "--chip", "edge", "--design",
             "rda", "--metric", "latency", "--report", out],
            ["dse", "--workload", "arvr-a", "--chip", "edge", "--pe-steps",
             "4", "--bw-steps", "1", "--jobs", "1", "--partial-ok",
             "--checkpoint", str(tmp_path / "ck"), "--resume", "--report", out],
            ["serve", "--workload", "arvr-a", "--chip", "edge", "--design",
             "fda-nvdla", "--metric", "edp", "--frames", "1", "--fps-scale",
             "1.5", "--jitter-ms", "0.5", "--seed", "3", "--sustained-lo",
             "0.5", "--sustained-hi", "2", "--sustained-probes", "3",
             "--sustained-tolerance", "0.1", "--optimize-sla", "--report", out],
            ["serve", "--design", "fda-nvdla", "--frames", "1",
             "--skip-sustained"],
            ["fleet", "--workload", "arvr-a", "--chip", "edge", "--design",
             "fda-nvdla", "--metric", "edp", "--chips", "2", "--policy",
             "least-outstanding", "--frames", "1", "--fps-scale", "1",
             "--jitter-ms", "0.5", "--seed", "0", "--jobs", "1",
             "--min-chips", "--max-chips", "3", "--partial-ok",
             "--checkpoint", str(tmp_path / "fk"), "--report", out],
            ["fleet", "--design", "fda-nvdla", "--chips", "2", "--frames", "1",
             "--online", "--traffic", "poisson", "--fault", "die:1@0.05",
             "--fault", "slow:0@0.001-0.005x2.5", "--autoscale", "5"],
            ["run", str(spec), "--report", out, "--baseline", report,
             "--tolerance", "0.1"],
            ["report-diff", report, report, "--tolerance", "0"],
        ]

    @staticmethod
    def _units(argv):
        """The sub-command, then each flag with its value (if any), then
        each positional, as units the mutations move around."""
        units, index = [], 1
        while index < len(argv):
            if (argv[index].startswith("--") and index + 1 < len(argv)
                    and not argv[index + 1].startswith("--")):
                units.append([argv[index], argv[index + 1]])
                index += 2
            else:
                units.append([argv[index]])
                index += 1
        return units

    def _mutant(self, base, rng):
        units = self._units(base)
        for _ in range(rng.randint(1, 3)):
            operation = rng.randrange(5)
            if operation == 4 or not units:  # a stray value
                units.insert(rng.randint(0, len(units)),
                             [rng.choice(self._VALUES)])
            elif operation == 0:
                rng.choice(units)[-1] = rng.choice(self._VALUES)
            elif operation == 1:
                units.pop(rng.randrange(len(units)))
            elif operation == 2:
                units.insert(rng.randint(0, len(units)),
                             list(rng.choice(units)))
            else:
                rng.shuffle(units)
        return base[:1] + [token for unit in units for token in unit]

    def test_mutated_argv_exit_0_or_2_with_one_error_line(
            self, tmp_path, capsys, monkeypatch):
        import functools
        import random

        from repro import cli
        from repro.experiment.runner import ExperimentOutcome

        monkeypatch.setattr(cli, "run_experiment",
                            lambda spec, **_: ExperimentOutcome(exit_code=0))
        # One parser serves every mutant (building it is most of a call).
        monkeypatch.setattr(cli, "_build_parser",
                            functools.lru_cache(cli._build_parser))
        rng = random.Random("argv-fuzz")
        exits = {0: 0, 2: 0}
        for base in self._bases(tmp_path):
            assert main(base) == 0, base
            capsys.readouterr()
            for _ in range(10 if base == ["describe"] else 400):
                argv = self._mutant(base, rng)
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
                err = capsys.readouterr().err
                assert code in exits, (argv, code, err)
                assert "Traceback" not in err, (argv, err)
                assert sum("error:" in line
                           for line in err.splitlines()) == (code == 2), \
                    (argv, err)
                exits[code] += 1
        assert min(exits.values()) > 300, exits
        assert not os.path.exists(tmp_path / "out.json")

    def test_a_huge_fleet_is_exit_2_at_once(self, capsys):
        """Every replica is built up front, so a fleet of 10**400 chips
        never finished; above ``MAX_FLEET_CHIPS`` it is refused at load."""
        for flag in ("--chips", "--max-chips"):
            argv = ["fleet", "--design", "fda-nvdla", "--min-chips", flag,
                    str(10 ** 400)]
            started = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - started < 5
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "more than the 10,000" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--frames", str(10 ** 400), "--skip-sustained"],
         "frames is more than the 1,000,000 a stream simulates"),
        (["--sustained-probes", str(10 ** 400), "--sustained-tolerance", "0"],
         "probes is more than the 2,100 a bisection of a float bracket can "
         "use"),
    ], ids=["frames", "probes"])
    def test_unbounded_serving_work_is_exit_2_at_once(
            self, flags, message, capsys, monkeypatch):
        """A frame count or a probe budget like 10**400 never finished; it
        is refused at load.  The run is patched to fail, so a spec that
        slips through fails here instead of hanging."""
        from repro import cli

        def refuse(spec, **_):
            raise AssertionError("the spec reached the runner")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        started = time.perf_counter()
        assert main(["serve", "--design", "fda-nvdla"] + flags) == 2
        assert time.perf_counter() - started < 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_an_empty_positional_after_double_dash_is_exit_2(self, capsys):
        """argparse (Python 3.9-3.13) binds ``[]`` to BASELINE in
        ``report-diff -- REPORT --``; that once ended in a TypeError."""
        report = os.path.join(self._GOLDEN, "schedule_rda.report.json")
        for argv in (["report-diff", "--", report, "--"],
                     ["report-diff", report, "--", "--"]):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
            err = capsys.readouterr().err
            assert code == 2, (argv, err)
            assert sum("error:" in line for line in err.splitlines()) == 1


def _exit_code(argv):
    """``main(argv)``'s exit code, an argparse refusal's included."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


class TestFlagAndFileRejectAlike:
    """The schema is the one validator of herald input: each argv the CLI
    refuses, and the file holding the mapping that argv compiles to, end in
    the same single ``error:`` line, exit 2 and no output."""

    _STREAMING = {"frames": 4, "fps_scale": 1.0, "jitter_ms": 0.0, "seed": 0}
    _BASE = {
        "dse": {"kind": "dse", "workload": "arvr-a", "chip": "edge",
                "search": {"pe_steps": 8, "bw_steps": 4},
                "exec": {"jobs": 1}},
        "serve": {"kind": "serve", "workload": "arvr-a", "chip": "edge",
                  "design": "maelstrom", "metric": "edp",
                  "streaming": _STREAMING,
                  "sustained": {"enabled": True, "lo": 1.0 / 256.0,
                                "hi": 8.0, "probes": 10, "tolerance": 0.0},
                  "optimize_sla": False},
        "fleet": {"kind": "fleet", "workload": "arvr-a", "chip": "edge",
                  "design": "maelstrom", "metric": "edp",
                  "streaming": _STREAMING,
                  "fleet": {"chips": 2, "policy": "earliest-completion"},
                  "min_chips": {"enabled": False, "max_chips": 8},
                  "exec": {"jobs": 1}},
    }

    @pytest.mark.parametrize("argv, changes, run_flags", [
        # The six cross-flag rules.
        (["serve", "--sustained-lo", "4", "--sustained-hi", "2"],
         {"sustained.lo": 4.0, "sustained.hi": 2.0}, []),
        (["fleet", "--fault", "die:0@0.01"], {"faults": ["die:0@0.01"]}, []),
        (["fleet", "--autoscale", "5"],
         {"autoscale": {"interval_ms": 5.0, "max_chips": 2}}, []),
        (["fleet", "--online", "--traffic", "poisson", "--jitter-ms", "1"],
         {"kind": "closed-loop", "traffic": "poisson",
          "streaming.jitter_ms": 1.0}, []),
        (["dse", "--resume"], {}, ["--resume"]),
        (["fleet", "--resume"], {}, ["--resume"]),
        (["fleet", "--online", "--checkpoint", "sweep.ckpt"],
         {"kind": "closed-loop"}, ["--checkpoint", "sweep.ckpt"]),
        (["fleet", "--online", "--partial-ok"],
         {"kind": "closed-loop", "exec.partial_ok": True}, []),
        # Each numeric flag out of its range.
        (["dse", "--pe-steps", "1"], {"search.pe_steps": 1}, []),
        (["dse", "--bw-steps", "0"], {"search.bw_steps": 0}, []),
        (["dse", "--jobs", "0"], {"exec.jobs": 0}, []),
        (["serve", "--frames", "0"], {"streaming.frames": 0}, []),
        (["serve", "--fps-scale", "nan"],
         {"streaming.fps_scale": float("nan")}, []),
        (["serve", "--jitter-ms", "-1"], {"streaming.jitter_ms": -1.0}, []),
        (["serve", "--sustained-lo", "0"], {"sustained.lo": 0.0}, []),
        (["serve", "--sustained-hi", "-8"], {"sustained.hi": -8.0}, []),
        (["serve", "--sustained-probes", "0"], {"sustained.probes": 0}, []),
        (["serve", "--sustained-tolerance", "-0.5"],
         {"sustained.tolerance": -0.5}, []),
        (["fleet", "--chips", "0"], {"fleet.chips": 0}, []),
        (["fleet", "--frames", "-3"], {"streaming.frames": -3}, []),
        (["fleet", "--fps-scale", "-1"], {"streaming.fps_scale": -1.0}, []),
        (["fleet", "--jitter-ms", "inf"],
         {"streaming.jitter_ms": float("inf")}, []),
        (["fleet", "--jobs", "0"], {"exec.jobs": 0}, []),
        (["fleet", "--max-chips", "0"], {"min_chips.max_chips": 0}, []),
        (["fleet", "--online", "--autoscale", "0"],
         {"kind": "closed-loop",
          "autoscale": {"interval_ms": 0.0, "max_chips": 2}}, []),
        # A malformed fault clause where faults apply.
        (["fleet", "--online", "--fault", "slow:0@0.1x2"],
         {"kind": "closed-loop", "faults": ["slow:0@0.1x2"]}, []),
    ])
    def test_the_flag_and_the_file_give_one_error_line(
            self, argv, changes, run_flags, tmp_path, capsys, monkeypatch):
        from repro import cli

        mapping = json.loads(json.dumps(self._BASE[argv[0]]))
        for dotted, value in changes.items():
            *parents, key = dotted.split(".")
            section = mapping
            for parent in parents:
                section = section[parent]
            section[key] = value
        validate, compiled = cli.experiment_from_spec, []

        def recording(spec, *args, **kwargs):
            compiled.append(json.dumps(spec))  # NaN-safe, order-sensitive
            return validate(spec, *args, **kwargs)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "experiment_from_spec", recording)
        flag_code = _exit_code(argv)
        flag = capsys.readouterr()
        assert compiled == [json.dumps(mapping)]

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(mapping), encoding="utf-8")
        file_code = _exit_code(["run", str(spec_file)] + run_flags)
        file = capsys.readouterr()
        assert (flag_code, flag.out) == (file_code, file.out) == (2, "")
        assert flag.err == file.err
        assert len(flag.err.splitlines()) == 1
        assert flag.err.startswith("error: ")
        assert not (tmp_path / "sweep.ckpt").exists()


class TestTraceCycleResolution:
    """A serving trace whose latest deadline is past 2**53 cycles at the
    chip's clock, where a float stops counting cycles exactly, is refused
    before anything runs; it once printed wrong SLA numbers."""

    @pytest.mark.parametrize("argv, setting", [
        # A ~1 s unet frame released at ~4e306 cycles reported p50 0.000 ms.
        (["serve", "--design", "fda-nvdla", "--frames", "1",
          "--fps-scale", "1e-300", "--skip-sustained"], "streaming"),
        # Releases at the 1e-308 lower bracket overflowed to inf cycles, so
        # the search printed "sustained FPS: none" though 1/256 sustains.
        (["serve", "--design", "fda-nvdla", "--frames", "1",
          "--sustained-lo", "1e-308", "--sustained-probes", "3"],
         "sustained.lo"),
        # The online fleet reported a p99 of 6.279 ms.
        (["fleet", "--online", "--design", "fda-nvdla", "--chips", "2",
          "--frames", "1", "--fps-scale", "1e-300"], "streaming"),
    ], ids=["serve", "sustained", "closed-loop"])
    def test_a_trace_past_2_53_cycles_is_exit_2(self, argv, setting, capsys):
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {setting}: the trace's "
                                       f"latest deadline")
        assert "past the 2**53 cycles" in captured.err
        assert captured.err.count("\n") == 1
