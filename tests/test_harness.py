import copy
import csv
import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import R_OF_RHO_4
from test_schemacheck import _subschemas, _values
from sivjp import cli, flow, harness
from sivjp.cli import main
from sivjp.errors import ConfigError, NumericError, RunawayRateError
from sivjp.harness import (ExperimentConfig, classify_limit, cmd_fixed_points,
                           cmd_localize, cmd_scan, cmd_simulate, cmd_validate,
                           validation_report)
from sivjp.engine import MomentTrace, OccupationStats
from sivjp.equilibria import find_fixed_points
from sivjp.markov import TelegraphState
from sivjp.model import ModelSpec
from sivjp.potentials import cos2_potential
from sivjp.schemacheck import schema_error

BASE = {
    "name": "smoke",
    "master_seed": 4242,
    "model": {"potential": "zero", "rho": 0.0, "lambda_min": 1.0},
    "sivjp": {"T": 200.0, "record_stride": 50.0},
    "sweep": {"seeds": 3},
}


def write_config(tmp_path, cfg_dict, fname="config.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(cfg_dict))
    return str(path)


class TestConfig:
    def test_schema_accepts_base(self):
        ExperimentConfig.from_dict(BASE)

    def test_schema_rejects_bad_potential(self):
        bad = copy.deepcopy(BASE)
        bad["model"]["potential"] = "quartic"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_schema_rejects_negative_horizon(self):
        bad = copy.deepcopy(BASE)
        bad["sivjp"]["T"] = -5.0
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_schema_rejects_unknown_keys(self):
        bad = copy.deepcopy(BASE)
        bad["extra"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_y0_without_x0_rejected(self, tmp_path):
        # without x0 the start is drawn with velocity +1, so a lone y0
        # would be silently dropped
        for given in ({"y0": -1}, {"x0": None, "y0": 1}):
            bad = copy.deepcopy(BASE)
            bad["sivjp"].update(given)
            with pytest.raises(ConfigError, match="x0"):
                ExperimentConfig.from_dict(bad)
        out = str(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, bad), "--out", out,
                     "--quiet", "simulate"]) == 2
        good = copy.deepcopy(BASE)
        good["sivjp"].update(x0=0.5, y0=-1)
        run = ExperimentConfig.from_dict(good).build_sivjp(rho=0.0, stream_index=0)
        assert run.z0 == TelegraphState(0.5, -1)

    def test_run_count_bound(self):
        # localize.N and sweep.seeds times the number of rhos, at and past MAX_RUNS
        raw = copy.deepcopy(BASE)
        raw["localize"] = {"N": harness.MAX_RUNS}
        raw["sweep"] = {"rhos": [1.0, 2.0], "seeds": harness.MAX_RUNS // 2}
        ExperimentConfig.from_dict(raw)
        for section, key in (("localize", "N"), ("sweep", "seeds")):
            bad = copy.deepcopy(raw)
            bad[section][key] += 1
            with pytest.raises(ConfigError, match="MAX_RUNS"):
                ExperimentConfig.from_dict(bad)

    def test_model_hash_stable_and_rho_sensitive(self):
        cfg = ExperimentConfig.from_dict(BASE)
        assert cfg.model_hash() == cfg.model_hash()
        assert cfg.model_hash(rho=1.0) != cfg.model_hash(rho=2.0)


class TestSimulate:
    def test_smoke_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(BASE)
        out = str(tmp_path / "out")
        res = cmd_simulate(cfg, out)
        assert len(res["summaries"]) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["runs"]) == 3
        fps = json.loads((tmp_path / "out" / "fixed_points.json").read_text())
        assert summary["model_hash"] == fps["model_hash"]
        for k in range(3):
            assert (tmp_path / "out" / f"smoke_seed{k:04d}.csv").exists()

    def test_supercritical_classified_as_sink(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["model"]["rho"] = 4.0
        raw["sivjp"]["T"] = 10000.0
        raw["sivjp"]["record_stride"] = 200.0
        raw["sweep"]["seeds"] = 20
        cfg = ExperimentConfig.from_dict(raw)
        res = cmd_simulate(cfg, str(tmp_path / "out"), threads=4)
        labels = [s["classification"] for s in res["summaries"]]
        assert len(labels) == 20
        assert labels.count("converged-to-sink") >= 18

    def test_determinism_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict(BASE)
        cmd_simulate(cfg, str(tmp_path / "a"))
        cmd_simulate(cfg, str(tmp_path / "b"))
        for k in range(3):
            fa = (tmp_path / "a" / f"smoke_seed{k:04d}.csv").read_bytes()
            fb = (tmp_path / "b" / f"smoke_seed{k:04d}.csv").read_bytes()
            assert fa == fb
        sa = (tmp_path / "a" / "summary.json").read_bytes()
        sb = (tmp_path / "b" / "summary.json").read_bytes()
        assert sa == sb

    def test_thread_count_invariance(self, tmp_path):
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            cmd_simulate(ExperimentConfig.from_dict(BASE), str(out), threads=threads)
            csvs = [
                (out / f"smoke_seed{k:04d}.csv").read_bytes() for k in range(3)]
            outputs.append(csvs)
        assert outputs[0] == outputs[1]


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records each pool's size and
    maps in process, so that no worker process starts."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    @classmethod
    def install(cls, monkeypatch) -> list:
        monkeypatch.setattr(cls, "sizes", [], raising=False)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", cls)
        return cls.sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestCLI:
    def test_simulate_exit_zero(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--out", out, "--quiet", "simulate"]) == 0
        assert os.path.exists(os.path.join(out, "summary.json"))

    @pytest.mark.parametrize("section, patch, command", [
        ("sivjp", {"T": -1.0}, "simulate"),
        # json reads the Infinity and NaN literals; the checks must not
        ("sivjp", {"T": math.inf}, "simulate"),
        ("sivjp", {"r": math.inf}, "simulate"),
        ("sivjp", {"record_t0": math.inf, "log_stride": True, "record_stride": 2.0},
         "simulate"),
        ("sivjp", {"mu0": [math.nan, 0.0]}, "simulate"),
        ("flow", {"start": [0.1, 0.0], "T_flow": math.inf}, "flow"),
        ("model", {"rho": math.inf}, "fixed-points"),
        ("model", {"rho": math.inf}, "simulate"),
        ("sweep", {"rhos": [1.0, math.nan]}, "scan"),
        ("model", {"lambda_min": math.inf}, "fixed-points"),
        ("model", {"lambda_min": math.inf}, "simulate"),
        ("sivjp", {"x0": math.inf}, "simulate"),
        ("localize", {"delta": math.nan}, "fixed-points"),
        ("localize", {"rho_min": math.nan}, "fixed-points"),
        # schedules of ~1e13 snapshots, refused before they are built
        ("sivjp", {"T": 1e13, "record_stride": 1.0}, "simulate"),
        ("sivjp", {"T": 1e13, "log_stride": True, "record_stride": 1.000000000001},
         "simulate"),
        # flow horizons of ~1e300 steps, refused before they are integrated
        ("flow", {"start": [0.1, 0.0], "T_flow": 1e300, "dt": 0.1}, "flow"),
        ("flow", {"start": [0.1, 0.0], "T_flow": 5.0, "dt": 1e-300}, "flow"),
        # runs of more than MAX_PROPOSALS expected proposals, refused at load:
        # lam_bar * T overflows, or the run would take years
        ("model", {"lambda_min": 1e308}, "simulate"),
        ("model", {"potential": "two_well", "rho": 30.0, "lambda_min": 1e308}, "localize"),
        ("model", {"potential": "two_well", "rho": 1e16}, "localize"),
        ("sweep", {"rhos": [1.0, 1e16]}, "scan"),
        # a census whose tilted density underflows, refused before the output
        # directory is made
        ("model", {"potential": "cos2", "rho": 400.0}, "fixed-points"),
        ("model", {"potential": "cos2", "rho": 400.0}, "simulate"),
        ("sweep", {"rhos": [1.0, 400.0]}, "scan"),
        # job lists of more than MAX_RUNS runs, refused before they are built
        ("sweep", {"seeds": 10**30}, "simulate"),
        ("sweep", {"rhos": [1.0, 2.0], "seeds": 5001}, "scan"),
        # MAX_SNAPSHOTS + 1 snapshots before T: the count that the run's
        # schedule refuses must be refused at load
        ("sivjp", {"T": 2000001.5, "record_stride": 1.0}, "simulate"),
        # log(T / record_t0) / log(record_stride) is inf / inf: a NaN count
        ("sivjp", {"log_stride": True, "record_stride": math.inf, "record_t0": 5e-324},
         "simulate"),
        # no shadowing window fits: e^2 is longer than [0.5, 5] in ratio, and
        # every window up to T = 200 holds fewer than 50 snapshots at stride 10
        ("sivjp", {"T": 5.0, "log_stride": True, "record_stride": 1.02, "record_t0": 0.5},
         "shadow"),
        ("sivjp", {"record_stride": 10.0}, "shadow"),
        # a shadowing flow of 2e7 steps, more than MAX_FLOW_STEPS, refused before
        # the run (section None: the patch maps sections to their updates); the
        # log schedule gives the one anchor s = 0
        (None, {"sivjp": {"T": 10.0, "log_stride": True, "record_stride": 1.02,
                          "record_t0": 0.5},
                "flow": {"dt": 1e-7}}, "shadow"),
    ], ids=["negative_T", "infinite_T", "infinite_r", "infinite_record_t0", "nan_mu0",
            "infinite_T_flow", "infinite_rho_fixed_points", "infinite_rho_simulate",
            "nan_sweep_rho_scan", "infinite_lambda_min_fixed_points",
            "infinite_lambda_min_simulate", "infinite_x0_simulate",
            "nan_localize_delta_fixed_points", "nan_localize_rho_min_fixed_points",
            "dense_linear_schedule_simulate", "dense_log_schedule_simulate",
            "long_T_flow", "tiny_dt_flow", "huge_lambda_min_simulate",
            "huge_lambda_min_localize", "huge_rho_localize", "huge_sweep_rho_scan",
            "underflow_fixed_points", "underflow_simulate", "underflow_scan",
            "huge_seeds_simulate", "seeds_times_rhos_scan", "snapshot_count_edge_simulate",
            "nan_log_schedule_simulate", "short_log_schedule_shadow",
            "sparse_linear_schedule_shadow", "tiny_dt_shadow"])
    def test_invalid_config_exit_two_no_files(self, tmp_path, capsys, monkeypatch, section,
                                              patch, command):
        def no_run(cfg):
            raise AssertionError("a run started before the config was refused")

        monkeypatch.setattr(harness, "run_sitp", no_run)
        bad = copy.deepcopy(BASE)
        for sec, update in (patch.items() if section is None else [(section, patch)]):
            bad.setdefault(sec, {}).update(update)
        path = write_config(tmp_path, bad)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--out", out, "--quiet", command]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_zero_threads_exit_two_no_files(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, BASE), "--out", out,
                     "--threads", "0", "--quiet", "simulate"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    # 4098 is one step past THRESHOLD_GRID.n, the finest grid the package uses
    @pytest.mark.parametrize("quad_n", [0, 5, 4098])
    def test_bad_quad_n_exit_two_no_files(self, tmp_path, capsys, quad_n):
        out = str(tmp_path / "out")
        assert main(["--out", out, "--quiet", "validate", "--quad-n", str(quad_n)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    # one past each end of SeedSpec's 64-bit range, which validate checks too
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_bad_validate_seed_exit_two_no_files(self, tmp_path, capsys, seed):
        out = str(tmp_path / "out")
        assert main(["--seed", str(seed), "--out", out, "--quiet", "validate"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_too_many_threads_exit_two_no_files_no_pool(self, tmp_path, capsys,
                                                        monkeypatch):
        sizes = RecordingPool.install(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, BASE), "--out", out,
                     "--threads", "65", "--quiet", "simulate"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)
        assert sizes == []

    def test_pool_no_larger_than_the_jobs(self, monkeypatch):
        sizes = RecordingPool.install(monkeypatch)
        assert harness._map_ordered(pow, [(2, 1), (2, 2), (2, 3)], threads=8) == [2, 4, 8]
        assert harness._map_ordered(pow, [(3, k) for k in range(60)], threads=2) \
            == [3 ** k for k in range(60)]
        assert sizes == [3, 2]

    def test_progress_on_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["--config", path, "--out", str(tmp_path / "out"), "fixed-points"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "1 fixed points: 1 Sink\n"

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["--quiet", "simulate"]) == 2

    def test_scan_empty_sweep_exit_two(self, tmp_path):
        bad = copy.deepcopy(BASE)
        bad["sweep"] = {"rhos": [], "seeds": 2}
        path = write_config(tmp_path, bad)
        assert main(["--config", path, "--out", str(tmp_path / "o"),
                     "--quiet", "scan"]) == 2

    def test_seed_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(["--config", path, "--out", out1, "--seed", "7",
                     "--quiet", "simulate"]) == 0
        assert main(["--config", path, "--out", out2, "--seed", "8",
                     "--quiet", "simulate"]) == 0
        a = (tmp_path / "s1" / "smoke_seed0000.csv").read_bytes()
        b = (tmp_path / "s2" / "smoke_seed0000.csv").read_bytes()
        assert a != b

    def test_flow_command(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["model"]["rho"] = 1.0
        raw["flow"] = {"start": [0.5, 0.0], "T_flow": 5.0, "dt": 0.02}
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--out", out, "--quiet", "flow"]) == 0
        text = (tmp_path / "out" / "smoke_flow.csv").read_text()
        assert text.splitlines()[0] == "s,a,b"

    @pytest.mark.parametrize("params", [
        {"potential": "two_well", "params": {"values": [0, 1, 0, 1]}},
        {"potential": "cos2", "params": {"a1": 5.0}},
        {"potential": "custom_grid", "params": {"values": [0, float("nan"), 0, 1]}},
        {"potential": "two_well", "params": {"a1": float("inf")}},
        {"potential": "custom_grid", "params": {"values": [0, float("inf"), 0, 1]}},
    ], ids=["param-of-another-kind", "ignored-param", "nan-values", "infinite-a1",
            "infinite-values"])
    def test_bad_potential_params_exit_two(self, tmp_path, capsys, params):
        raw = copy.deepcopy(BASE)
        raw["model"].update(params)
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--out", out, "--quiet", "fixed-points"]) == 2
        assert capsys.readouterr().err.startswith("error: potential ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, owner, attr, exc", [
        ("simulate", harness, "run_sitp", RunawayRateError("proposal budget exceeded")),
        ("flow", flow, "integrate_flow", NumericError("non-finite flow state")),
    ])
    def test_run_failure_exit_four(self, tmp_path, monkeypatch, capsys,
                                   command, owner, attr, exc):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(owner, attr, failing)
        raw = copy.deepcopy(BASE)
        raw["flow"] = {"start": [0.5, 0.0], "T_flow": 5.0}
        path = write_config(tmp_path, raw)
        assert main(["--config", path, "--out", str(tmp_path / "out"),
                     "--quiet", command]) == 4
        assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"

    def test_shadow_flow_failing_halving_check_exit_four(self, tmp_path, capsys):
        # at dt = 0.1 the window flows of shadow_demo miss HALVING_TOL
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "shadow_demo.json").read_text())
        raw["sivjp"]["T"] = 100.0
        raw["flow"] = {"dt": 0.1}
        out = str(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, raw), "--out", out,
                     "--quiet", "shadow"]) == 4
        assert capsys.readouterr().err.startswith(
            "error: NumericError: integrate_flow: step-halving check failed")
        assert not os.path.exists(out)

    def test_failed_scan_exit_four_names_the_rows(self, tmp_path, monkeypatch, capsys):
        def failing(run):
            raise RunawayRateError("proposal budget exceeded")

        monkeypatch.setattr(harness, "run_sitp", failing)
        raw = copy.deepcopy(BASE)
        raw["sweep"]["rhos"] = [1.0]
        path = write_config(tmp_path, raw)
        assert main(["--config", path, "--out", str(tmp_path / "out"),
                     "--quiet", "scan"]) == 4
        assert capsys.readouterr().err == \
            "error: SweepError: cmd_scan: 3 of 3 rows failed (more than 10%)\n"


# a config every command runs in milliseconds; its arrays hold every item
# the probes below replace
CONTRACT_BASE = {
    "name": "contract",
    "master_seed": 5,
    "model": {"potential": "cos2", "rho": 1.0, "lambda_min": 1.0},
    "sivjp": {"T": 1.0, "record_stride": 1.0, "mu0": [0.0, 0.0]},
    "sweep": {"rhos": [1.0], "seeds": 1},
    "flow": {"start": [0.1, 0.0], "T_flow": 0.1, "dt": 0.1},
    "localize": {"N": 1, "T": 1.0, "rho_min": 0.5},
}
# the commands that read each section (sweep.seeds: simulate and scan)
READERS = {"master_seed": ("simulate", "scan", "localize", "shadow"),
           "model": ("fixed-points", "flow", "simulate", "scan", "localize", "shadow"),
           "sivjp": ("simulate", "scan", "shadow"), "sweep": ("scan",),
           "flow": ("flow", "shadow"), "localize": ("localize",)}


def _readers(path):
    return ("simulate", "scan") if path == ("sweep", "seeds") else READERS[path[0]]


def _numeric_fields():
    """(path, subschema) of every numeric field and array item of the schema."""
    for path, sub in _subschemas(harness.config_schema()):
        types = sub.get("type", [])
        if {"number", "integer"} & set([types] if isinstance(types, str) else types):
            yield path, sub


def _numeric_probes():
    """(path, value, config) for every numeric field set in CONTRACT_BASE to
    each schema-passing probe value of test_schemacheck._values and to 1e308."""
    for path, sub in _numeric_fields():
        seen = set()
        for value in _values(sub) + [1e308]:
            if (type(value), repr(value)) in seen:
                continue
            seen.add((type(value), repr(value)))
            raw = copy.deepcopy(CONTRACT_BASE)
            if path[:2] == ("model", "params"):  # the potential that takes the param
                raw["model"].update({"potential": "custom_grid",
                                     "params": {"values": [0.1, -0.2, 0.3, 0.0]}}
                                    if path[2] == "values" else
                                    {"potential": "two_well", "params": {"a1": 0.2, "a2": -0.5}})
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            if schema_error(raw, harness.config_schema()) is None:
                yield path, value, raw


def _run_contract(tmp_path, capsys, raw, command):
    """(exit code, how `main` on this config and command breaks the CLI
    contract or None). The contract: the exit code is 0, 2, 3 or 4, no
    exception escapes, a non-zero exit prints an error line, and exit 2
    leaves no output directory."""
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    out = str(case / "out")
    try:
        code = main(["--config", write_config(case, raw), "--out", out, "--quiet", command])
    except Exception as exc:
        capsys.readouterr()
        return None, f"{type(exc).__name__} escaped: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 2, 3, 4):
        return code, f"exit {code}"
    if code and not any(line.startswith(("error: ", "i/o error: "))
                        for line in err.splitlines()):
        return code, f"exit {code} without an error line: {err!r}"
    if code == 2 and os.path.exists(out):
        return code, "exit 2 left an output directory"
    return code, None


class TestCLIContract:
    def test_every_numeric_probe_keeps_the_contract(self, tmp_path, capsys):
        violations, probed, codes = [], set(), set()
        for path, value, raw in _numeric_probes():
            probed.add(path)
            for command in _readers(path):
                code, problem = _run_contract(tmp_path, capsys, raw, command)
                codes.add(code)
                if problem is not None:
                    violations.append((".".join(map(str, path)), value, command, problem))
        assert violations == []
        assert probed == {path for path, _ in _numeric_fields()}
        assert {0, 2, 4} <= codes  # runs, refusals and failed runs were all reached

    def test_escaping_exception_breaks_the_contract(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not mapped to an exit code")

        monkeypatch.setattr(cli, "cmd_fixed_points", broken)
        _, problem = _run_contract(tmp_path, capsys, CONTRACT_BASE, "fixed-points")
        assert problem == "ValueError escaped: not mapped to an exit code"


class TestFixedPointsCommand:
    def test_cos2_censuses(self, tmp_path):
        for rho, n_expected in ((1.0, 1), (3.0, 3), (4.0, 5)):
            raw = copy.deepcopy(BASE)
            raw["model"] = {"potential": "cos2", "rho": rho, "lambda_min": 1.0}
            cfg = ExperimentConfig.from_dict(raw)
            payload = cmd_fixed_points(cfg, str(tmp_path / f"fp{rho}"))
            assert len(payload["census"]) == n_expected
            assert "rho_c" in payload["thresholds"]
            assert payload["thresholds"]["rho_c"] == pytest.approx(1.3827529554, abs=1e-8)
        # subcritical census is a single sink
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "cos2", "rho": 1.0, "lambda_min": 1.0}
        payload = cmd_fixed_points(ExperimentConfig.from_dict(raw),
                                   str(tmp_path / "fp_sub"))
        assert payload["census"][0]["stability"] == "Sink"

    def test_zero_potential_single_sink(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "zero", "rho": 1.0, "lambda_min": 1.0}
        cfg = ExperimentConfig.from_dict(raw)
        payload = cmd_fixed_points(cfg, str(tmp_path / "fp0"))
        assert len(payload["census"]) == 1
        assert payload["census"][0]["stability"] == "Sink"


class TestScan:
    def test_pitchfork_scan(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["sivjp"]["T"] = 2000.0
        raw["sivjp"]["record_stride"] = 100.0
        raw["sweep"] = {"rhos": [1.0, 4.0], "seeds": 3}
        cfg = ExperimentConfig.from_dict(raw)
        csv_path = cmd_scan(cfg, str(tmp_path / "scan"))
        with open(csv_path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "rho,seed,a_final,b_final,r_final,nearest_fp,dist,status"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 6
        r_by_rho = {}
        for row in rows:
            r_by_rho.setdefault(float(row[0]), []).append(float(row[4]))
        assert np.median(r_by_rho[1.0]) < 0.2
        assert np.median(r_by_rho[4.0]) > 0.6
        info = json.loads((tmp_path / "scan" / "smoke_scan_info.json").read_text())
        assert info["n_failed"] == 0
        assert 0.0 <= info["theta_ks_uniform"] <= 1.0

    def test_thread_count_invariance(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "cos2", "rho": 0.0, "lambda_min": 1.0}
        raw["sweep"] = {"rhos": [0.8, 2.8], "seeds": 3}
        cfg = ExperimentConfig.from_dict(raw)
        for threads in (1, 2):
            cmd_scan(cfg, str(tmp_path / f"t{threads}"), threads=threads)
        for suffix in ("_scan.csv", "_scan_census.json", "_scan_info.json"):
            one = (tmp_path / "t1" / f"smoke{suffix}").read_bytes()
            assert one == (tmp_path / "t2" / f"smoke{suffix}").read_bytes(), suffix

    def test_failed_runs_become_error_rows(self, tmp_path, monkeypatch):
        # 10 rows: one failed run sits on the 10% line (exit 0), two are
        # above it (exit 4); the rows of the other runs stay as they were
        raw = copy.deepcopy(BASE)
        raw["model"]["rho"] = 1.0
        raw["sweep"] = {"rhos": [1.0], "seeds": 10}
        path = write_config(tmp_path, raw)
        real_run = harness.run_sitp
        failing = set()

        def flaky(run):
            if run.seed.stream_index in failing:
                raise RunawayRateError(f"budget exceeded, stream {run.seed.stream_index}")
            return real_run(run)

        monkeypatch.setattr(harness, "run_sitp", flaky)

        def scan(tag, bad):
            failing.clear()
            failing.update(bad)
            out = tmp_path / tag
            code = main(["--config", path, "--out", str(out), "--quiet", "scan"])
            with open(out / "smoke_scan.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            info = json.loads((out / "smoke_scan_info.json").read_text())
            return code, rows, info

        code, clean, info = scan("clean", ())
        assert code == 0 and info["n_failed"] == 0
        for tag, bad, want_code in (("one", {3}, 0), ("two", {3, 7}, 4)):
            code, rows, info = scan(tag, bad)
            assert code == want_code
            assert info["n_failed"] == len(bad) and info["n_rows"] == 10
            for k, (row, ok) in enumerate(zip(rows, clean)):
                if k in bad:
                    assert row == ["1", str(k), "", "", "", "", "",
                                   f"error:RunawayRateError: budget exceeded, stream {k}"]
                else:
                    assert row == ok


class TestLocalize:
    def test_single_well_rejected(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "cos2", "params": {}, "rho": 30.0,
                        "lambda_min": 1.0}
        raw["localize"] = {"N": 2, "T": 100.0}
        # cos2 has two minima; a true single well must be rejected instead
        raw["model"] = {"potential": "two_well", "params": {"a1": 1.0, "a2": 0.0},
                        "rho": 30.0, "lambda_min": 1.0}
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="minima"):
            cmd_localize(cfg, str(tmp_path / "loc"))

    def test_w_from_exact_moments(self, tmp_path):
        # int dist^2(z, x0) d mu_T = 2 - 2 (a cos x0 + b sin x0) of the
        # same-seed engine run with horizon localize.T
        from sivjp import run_sitp
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "two_well", "params": {"a1": 0.2, "a2": -0.5},
                        "rho": 30.0, "lambda_min": 1.0}
        raw["localize"] = {"N": 3, "T": 300.0}
        cfg = ExperimentConfig.from_dict(raw)
        payload = cmd_localize(cfg, str(tmp_path / "loc"))
        assert len(payload["runs"]) == 3
        for k, run in enumerate(payload["runs"]):
            trace = run_sitp(dataclasses.replace(
                cfg.build_sivjp(rho=30.0, stream_index=k), t_end=300.0))
            a, b = trace.final.a, trace.final.b
            assert run["seed"] == k
            assert run["w"] == [2.0 - 2.0 * (a * math.cos(x0) + b * math.sin(x0))
                                for x0 in payload["minima"]]

    def test_infinite_horizon_exit_two_no_files(self, tmp_path, capsys):
        # the schema passes an Infinity literal; the run config must reject it
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "two_well", "params": {"a1": 0.2, "a2": -0.5},
                        "rho": 30.0, "lambda_min": 1.0}
        raw["localize"] = {"N": 2, "T": math.inf}
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--out", out, "--quiet", "localize"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_huge_run_count_exit_two_no_files(self, tmp_path, capsys):
        # refused at load, before a job list of range(N) runs is built
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "two_well", "params": {"a1": 0.2, "a2": -0.5},
                        "rho": 30.0, "lambda_min": 1.0}
        raw["localize"] = {"N": 10**12}
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "out")
        assert main(["--config", path, "--out", out, "--quiet", "localize"]) == 2
        assert "MAX_RUNS" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_weak_attraction_rejected(self, tmp_path):
        raw = copy.deepcopy(BASE)
        raw["model"] = {"potential": "two_well", "rho": 0.5, "lambda_min": 1.0}
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="attraction"):
            cmd_localize(cfg, str(tmp_path / "loc"))

    def test_gibbs_occupancy_at_rho_zero(self, tmp_path):
        # with no interaction the occupation near each well matches the
        # Gibbs weights of exp(-U); at rho = 0 the engine is exactly the
        # telegraph process, whose log is binned here
        from sivjp import (PeriodicGrid, SeedSpec, occupation_histogram,
                           simulate_telegraph)
        from sivjp.potentials import two_well_potential, local_minima
        from sivjp.geometry import TWO_PI
        pot = two_well_potential()
        minima = local_minima(pot)
        grid = PeriodicGrid(256)
        nodes = grid.nodes
        gibbs = np.exp(-pot.v(nodes))
        gibbs /= gibbs.sum()
        phi = 1.0  # angular window around each minimum
        want = []
        got = np.zeros(len(minima))
        for x0 in minima:
            mask = np.abs(np.mod(nodes - x0 + np.pi, TWO_PI) - np.pi) < phi
            want.append(float(gibbs[mask].sum()))
        n_runs = 4
        for k in range(n_runs):
            log = simulate_telegraph(pot, 1.0, TelegraphState(0.0, 1), 20000.0,
                                     SeedSpec(777, k))
            hist = occupation_histogram(log, grid) / log.t_final
            for i, x0 in enumerate(minima):
                mask = np.abs(np.mod(nodes - x0 + np.pi, TWO_PI) - np.pi) < phi
                got[i] += float(hist[mask].sum()) / n_runs
        assert np.max(np.abs(got - np.array(want))) < 0.1


class TestValidate:
    def test_all_checks_pass(self):
        report = validation_report(master_seed=0)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert report["all_passed"], f"failed checks: {failed}"

    @pytest.mark.parametrize("quad_n", [3, 6])
    def test_negative_control_quadrature(self, quad_n):
        # injecting a corrupted grid must fail the named exactness check:
        # n=3 violates the grid invariant outright, n=6 breaks exactness
        # for the harmonics the check exercises
        report = validation_report(master_seed=0, quad_n=quad_n)
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["quad-trig-exactness"]["passed"]
        assert not report["all_passed"]

    def test_report_byte_identical(self, tmp_path):
        cmd_validate(out_dir=str(tmp_path / "v1"), master_seed=3)
        cmd_validate(out_dir=str(tmp_path / "v2"), master_seed=3)
        a = (tmp_path / "v1" / "validate_report.json").read_bytes()
        b = (tmp_path / "v2" / "validate_report.json").read_bytes()
        assert a == b

    def test_cli_validate_exit_zero(self, tmp_path):
        assert main(["--out", str(tmp_path / "v"), "--quiet", "validate"]) == 0


def _fake_trace(a_vals, b_vals):
    n = len(a_vals)
    return MomentTrace(times=np.linspace(0.0, 1000.0, n), a_vals=np.asarray(a_vals),
                       b_vals=np.asarray(b_vals), x_vals=np.zeros(n), y_vals=np.ones(n),
                       final=OccupationStats(r=1.0, t=1000.0, a=a_vals[-1], b=b_vals[-1]),
                       final_state=TelegraphState(0.0, 1),
                       n_events=0, n_proposals=0)


class TestClassification:
    def test_near_saddle_and_unresolved(self):
        model = ModelSpec(potential=cos2_potential(), rho=2.0 * 1.3827529554)
        census = find_fixed_points(model)

        def fake(a, b):
            return _fake_trace(np.full(101, a), np.full(101, b))

        label, _, dist = classify_limit(fake(0.001, 0.0), census)
        assert label == "near-saddle" and dist < 0.05
        a_star = max(r.a for r in census)
        label, _, _ = classify_limit(fake(a_star - 0.01, 0.0), census)
        assert label == "converged-to-sink"
        label, _, _ = classify_limit(fake(0.4, 0.3), census)
        assert label == "unresolved"

    def test_ring_classified_radially(self):
        # with no exterior potential the tail may drift along the circle of
        # fixed points at r(rho); its last 10% sweeps an arc of about 0.4,
        # so no single census point is within 0.05 of all of it
        census = find_fixed_points(ModelSpec(rho=4.0))
        theta = np.linspace(0.0, 5.0, 101)
        trace = _fake_trace(R_OF_RHO_4 * np.cos(theta), R_OF_RHO_4 * np.sin(theta))
        assert classify_limit(trace, census, ring=R_OF_RHO_4)[0] == "converged-to-sink"
        assert classify_limit(trace, census)[0] == "unresolved"
        assert classify_limit(trace, census, ring=R_OF_RHO_4 + 0.1)[0] == "unresolved"
