"""Front-door behavior: exit statuses, manifests, reproducibility."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import burgerslab
from burgerslab.cli import main
from burgerslab.grids import (GridPath, RandomnessSpec, SampleGrid,
                              rng_state_write, write_json, write_jsonl)
from burgerslab import experiments, fbm
from burgerslab.acceptance import _TINY_CONFIGS, CHECKS, Check, run_checks
from burgerslab.experiments import (
    EXPERIMENTS,
    OPTIONS,
    ConfigError,
    RunConfig,
    load_config_file,
    parse_value,
    run_experiment,
)

from oracles import assert_check_rows, check_rows, generator_fbm_exact

ROOT = Path(__file__).resolve().parents[1]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestExitCodes:
    def test_malformed_config_names_field(self, tmp_path, capsys):
        status = main(["sample", "--spacing", "-2",
                       "--out", str(tmp_path / "x")])
        assert status == 1
        assert "spacing" in capsys.readouterr().err

    def test_invalid_hurst(self, tmp_path, capsys):
        status = main(["dim", "--hurst", "1.5", "--out", str(tmp_path / "x")])
        assert status == 1
        assert "hurst" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        status = main(["rerun", str(tmp_path / "nope.json")])
        assert status == 1

    def test_failed_check_exits_3(self, tmp_path):
        status = main(["persist", "--hurst", "0.5",
                       "--horizon", "8,16,32,64", "--replicas", "300",
                       "--seed", "4", "--out", str(tmp_path / "p"),
                       "--opt", "slope-tol=0", "--check"])
        assert status == 3  # no fitted slope equals the exponent exactly

    # both fail at ccdf48f: after its Monte Carlo, the run printed a
    # ValueError traceback and removed its directory
    @pytest.mark.parametrize("flags, status", [([], 2), (["--check"], 3)])
    def test_unfittable_ladder_is_a_degenerate_fit(self, tmp_path, capsys,
                                                   flags, status):
        out = tmp_path / "p"
        assert main(["persist", "--hurst", "0.5", "--horizon", "4,8,16,32",
                     "--replicas", "100", "--opt", "level=-3",
                     "--out", str(out), *flags]) == status
        fit = json.loads((out / "fits.json").read_text())["fbm_max h=0.5"]
        assert fit["degenerate"] is True and fit["slope"] is None
        assert fit["excluded"] == [4.0, 8.0, 16.0, 32.0]
        assert len((out / "records.jsonl").read_text().splitlines()) == 4
        assert "FAIL exponent fbm_max h=0.5" in capsys.readouterr().out

    # all fail at e7c0d46, whose records and fits gave no reason
    @pytest.mark.parametrize("horizons, level, reasons, fit_reason", [
        ("8,64,512,4096", "0", [None] * 2 + ["below_reliability_floor"] * 2,
         None),
        ("256,512,1024,2048", "0", ["below_reliability_floor"] * 4,
         "fewer_than_2_reliable_horizons"),
        ("4,8,16,32", "100", [None] * 4, "equal_values")])
    def test_excluded_estimates_say_why(self, tmp_path, horizons, level,
                                        reasons, fit_reason):
        out = tmp_path / "p"
        assert main(["persist", "--hurst", "0.5", "--horizon", horizons,
                     "--replicas", "200", "--opt", f"level={level}",
                     "--seed", "1", "--out", str(out)]) == 2
        rows = [json.loads(line) for line in
                (out / "records.jsonl").read_text().splitlines()]
        assert [row.get("reason") for row in rows] == reasons
        fit = json.loads((out / "fits.json").read_text())["fbm_max h=0.5"]
        assert fit.get("reason") == fit_reason
        assert ("degenerate" in fit) == (fit_reason is not None)

    # fails at ccdf48f: the criterion exited 1 with a config error
    def test_unfittable_criterion_fails(self, capsys):
        assert main(["check", "--only", "max-exponent",
                     "--set", "max-exp.replicas=100",
                     "--set", "max-exp.level=-3"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("FAIL max-exponent")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 32)])
    def test_out_of_range_seed_leaves_no_directory(self, tmp_path, capsys,
                                                   seed):
        out = tmp_path / "p"
        status = main(["persist", "--hurst", "0.5", "--horizon", "4,8",
                       "--replicas", "100", "--seed", seed, "--out", str(out)])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err
        assert not out.exists()


class TestBadValues:
    """A value that does not parse exits 1 with a config error naming its
    field, before the output directory is made."""

    ARGS = ["persist", "--hurst", "0.5", "--horizon", "4,8",
            "--replicas", "100", "--seed", "1"]

    @staticmethod
    def assert_config_error(status, capsys, out, field):
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--replicas", "abc", "replicas"), ("--seed", "1.5", "seed"),
        ("--spacing", "abc", "spacing"), ("--hurst", "abc", "hurst"),
        ("--horizon", "4,x", "horizons")])
    def test_bad_flag(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "p"
        status = main(self.ARGS + [flag, value, "--out", str(out)])
        self.assert_config_error(status, capsys, out, field)

    @pytest.mark.parametrize("argv, field", [
        (["persist", "--hurst", "0.5", "--horizon", "nan,8"], "horizons"),
        (["persist", "--hurst", "0.5", "--horizon", "4,inf"], "horizons"),
        (["sample", "--spacing", "nan"], "spacing")])
    def test_non_finite_value(self, tmp_path, capsys, argv, field):
        out = tmp_path / "p"
        status = main(argv + ["--out", str(out)])
        self.assert_config_error(status, capsys, out, field)

    @pytest.mark.parametrize("flag, value, field", [
        ("--replicas", "50", "replicas"), ("--horizon", "8.5", "horizons"),
        ("--horizon", "0.5", "horizons"), ("--spacing", "2", "spacing")])
    def test_persist_precondition(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "p"
        status = main(self.ARGS + [flag, value, "--out", str(out)])
        self.assert_config_error(status, capsys, out, field)

    @pytest.mark.parametrize("argv, field", [
        (["persist", "--hurst", "0.5", "--horizon", "4,8", "--opt",
          "events=bogus"], "option events"),
        (["persist", "--hurst", "0.5", "--horizon", "3", "--spacing", "0.3",
          "--opt", "events=ifbm_punctured"], "option events"),
        (["chain", "--hurst", "0.5", "--opt", "n=1"], "option n"),
        (["dim", "--opt", "time=0"], "option time"),
        (["dim", "--opt", "time=nan"], "option time"),
        (["solve", "--opt", "time=-1"], "option time"),
        (["dim", "--opt", "grid-log2=-3"], "option grid-log2"),
        (["dim", "--opt", "grid-log2=abc"], "option grid-log2"),
        (["dim", "--opt", "grid-log2=1.5"], "option grid-log2"),
        (["dim", "--opt", "grid-log2=8", "--opt", "slope-tol=abc"],
         "option slope-tol"),
        (["dim", "--opt", "grid-log2=8", "--opt", "target-h0.5=abc"],
         "option target-h0.5"),
        (["persist", "--hurst", "0.5", "--horizon", "4,8", "--opt",
          "slope-tol=abc"], "option slope-tol"),
        (["rkhs-verify", "--opt", "half-points=7"], "option half-points"),
        (["rkhs-verify", "--opt", "half-points=40"], "option half-points"),
        (["rkhs-verify", "--opt", "half-points=0"], "option half-points"),
        (["rkhs-verify", "--opt", "trend=bogus"], "option trend"),
        (["rkhs-verify", "--opt", "trend=psi*abc"], "option trend"),
        (["rkhs-verify", "--opt", "trend=covcol@0.3"], "option trend"),
        (["rkhs-verify", "--opt", "level=abc"], "option level"),
        # each case below fails at 177040a: it ran with the option ignored,
        # or printed a traceback and left an empty directory
        (["persist", "--hurst", "0.5", "--horizon", "4,8", "--opt",
          "levle=2"], "levle"),
        (["persist", "--hurst", "0.5", "--horizon", "4,8", "--opt",
          "level=nan"], "option level"),
        (["dim", "--hurst", "0.5", "--opt", "target-h0.4=0.1"], "target-h0.4"),
        (["sample", "--opt", "points=0"], "option points"),
        (["sample", "--opt", "method=exact", "--opt", "points=5000"],
         "option points"),
        (["solve", "--opt", "half-points=0"], "option half-points"),
        (["sample", "--opt", "method=bogus"], "option method"),
        # dim's target is H itself, with no option to move it; criterion
        # 07's dim.target-h<H> keys are the negative control
        (["dim", "--hurst", "0.5", "--opt", "target-h0.5=0.9"],
         "target-h0.5"),
        # each case below ran and exited 0 while horizons and spacing were
        # fields of every experiment; only persist, sample and solve read them
        (["dim", "--spacing", "0.5"], "unknown option spacing for dim"),
        (["chain", "--horizon", "8"], "unknown option horizons for chain"),
        (["rkhs-verify", "--spacing", "0.5"],
         "unknown option spacing for rkhs-verify"),
        (["sample", "--horizon", "4"], "unknown option horizons for sample"),
        # each case below fails at b5c9f51: a repeated input ran the whole
        # Monte Carlo into a traceback, or wrote one h= key for two cells
        (["persist", "--hurst", "0.5,0.5", "--horizon", "4,8,16,32"],
         "hurst"),
        (["persist", "--horizon", "4,4,8,16"], "option horizons"),
        (["persist", "--horizon", "4,8,16,32", "--opt",
          "events=fbm_max,fbm_max"], "option events"),
        (["dim", "--hurst", "0.5,0.5", "--opt", "grid-log2=8"], "hurst"),
        (["chain", "--hurst", "0.5,0.5", "--opt", "n=4"], "hurst"),
        # each case below fails at b5c9f51: a traceback from a non-finite
        # grid or potential or a trend with no norm, or inf coordinates
        (["solve", "--spacing", "1e300", "--opt", "half-points=4"],
         "option spacing and time"),
        (["solve", "--opt", "time=1e-320", "--opt", "half-points=4"],
         "time"),
        (["solve", "--spacing", "1e308", "--opt", "half-points=4"],
         "option spacing"),
        (["dim", "--opt", "time=1e-320", "--opt", "grid-log2=6"],
         "option time"),
        (["rkhs-verify", "--hurst", "0.999999"], "hurst 0.999999"),
        (["rkhs-verify", "--hurst", "1e-9"], "hurst 1e-09"),
        (["sample", "--spacing", "1e308", "--opt", "points=4"],
         "option spacing")])
    def test_bad_experiment_option(self, tmp_path, capsys, argv, field):
        out = tmp_path / "p"
        status = main(argv + ["--replicas", "100", "--out", str(out)])
        self.assert_config_error(status, capsys, out, field)

    # fails at 3185de9 with a FactorizationError traceback, as does
    # --hurst 0.999999 at 4095 points, whose factorization takes about 1 s;
    # with an H before it, that H's files are written first
    @pytest.mark.parametrize("hurst", ["0.999999", "0.5,0.999999"])
    def test_exact_sample_without_factor(self, tmp_path, capsys, monkeypatch,
                                         hurst):
        covariance = fbm.fbm_covariance
        monkeypatch.setattr(fbm, "fbm_covariance", lambda h, x, y: (
            np.ones(np.broadcast(x, y).shape) if h > 0.9
            else covariance(h, x, y)))
        argv = ["sample", "--hurst", hurst, "--replicas", "2",
                "--opt", "method=exact", "--opt", "points=16"]
        out = tmp_path / "p"
        status = main(argv + ["--out", str(out)])
        self.assert_config_error(status, capsys, out, "field hurst 0.999999")
        # a directory that was there is kept, with no result file in it
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == 1
        assert os.listdir(out) == []

    # each once passed validation, and the run then asked for a spectrum of
    # 2^41 points or more, or refused replica 2^32 mid-run; the runners are
    # removed, so no run can start
    @pytest.mark.parametrize("argv, field", [
        (["--horizon", "64,128,256,1099511627776"], "horizons"),
        (["--horizon", "64,128", "--spacing", str(2.0 ** -40)], "spacing"),
        (["--horizon", "524289"], "horizons"),
        (["--horizon", "64", "--replicas", str(2 ** 32 + 1)], "replicas")])
    def test_oversized_run(self, tmp_path, capsys, monkeypatch, argv, field):
        monkeypatch.setattr(experiments, "_RUNNERS", {})
        out = tmp_path / "p"
        status = main(["persist", "--hurst", "0.5", *argv, "--out", str(out)])
        self.assert_config_error(status, capsys, out, field)

    def test_largest_accepted_run(self):
        # 2^19 steps per side and 2^32 replicas, through validate only
        RunConfig("persist", replicas=2 ** 32,
                  options={"horizons": (2.0 ** 19,)}).validate()
        RunConfig("persist", options={"horizons": (1.0,),
                                      "spacing": 2.0 ** -19}).validate()

    def test_dim_grid_cap(self):
        RunConfig("dim", options={"grid-log2": "20"}).validate()
        # through validate only: a grid this large is never built
        for log2n in ("0", "21", "40"):
            with pytest.raises(ConfigError, match="option grid-log2"):
                RunConfig("dim", options={"grid-log2": log2n}).validate()

    def test_rkhs_half_points_cap(self):
        for half in ("2", "30"):
            RunConfig("rkhs-verify", options={"half-points": half}).validate()
        for half in ("32", "31", "-2"):
            with pytest.raises(ConfigError, match="option half-points"):
                RunConfig("rkhs-verify", options={"half-points": half}).validate()

    # the upper caps fail at 177040a, which accepted any larger value: chain
    # n and solve half-points of 10^8 then ran out of memory
    @pytest.mark.parametrize("experiment, key, good, bad, others", [
        ("chain", "n", ["2", "262144"], ["1", "262145", "100000000"], {}),
        ("solve", "half-points", ["1", "524288"],
         ["0", "524289", "100000000"], {}),
        ("sample", "points", ["1", "1048576"], ["0", "1048577"], {}),
        ("sample", "points", ["4095"], ["4096", "5000"], {"method": "exact"})])
    def test_option_cap(self, experiment, key, good, bad, others):
        # through validate only: a grid this large is never built
        for value in good:
            RunConfig(experiment, options={**others, key: value}).validate()
        for value in bad:
            with pytest.raises(ConfigError, match=f"option {key}"):
                RunConfig(experiment,
                          options={**others, key: value}).validate()

    # fails at 177040a: a misspelt --set key was ignored and the check ran
    @pytest.mark.parametrize("key", ["telescoping.lenght", "dim.replicas"])
    def test_undeclared_check_setting(self, tmp_path, capsys, monkeypatch,
                                      key):
        calls = []
        spy = Check(lambda ov: calls.append(ov) or {"rows": [{"pass": True}]},
                    CHECKS["telescoping"].settings)
        monkeypatch.setitem(CHECKS, "telescoping", spy)
        report = tmp_path / "report.json"
        status = main(["check", "--only", "telescoping", "--set", f"{key}=4",
                       "--out", str(report)])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert calls == []
        # the report path was probed, and the file the probe made is gone
        assert not report.exists()
        # a declared key reaches the check typed, beside the defaults
        assert main(["check", "--only", "telescoping",
                     "--set", "telescoping.length=4"]) == 0
        assert calls == [{"telescoping.sequences": 1000,
                          "telescoping.length": 4}]

    def test_malformed_worker_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BURGERSLAB_WORKERS", "two")
        out = tmp_path / "p"
        status = main(self.ARGS + ["--out", str(out)])
        self.assert_config_error(status, capsys, out, "BURGERSLAB_WORKERS")

    @pytest.mark.parametrize("text", ["{\n", "{}\n", "[]\n"])
    def test_truncated_manifest(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        again = tmp_path / "again"
        status = main(["rerun", str(manifest), "--out", str(again)])
        self.assert_config_error(status, capsys, again, "manifest.json")

    def test_bad_config_file_value(self, tmp_path, capsys):
        self.test_bad_config_file_line(tmp_path, capsys, "replicas = many",
                                       "replicas")

    # both fail at 177040a: 100 replicas ran, and check was False
    @pytest.mark.parametrize("line, field", [
        ("replicsa = 5", "replicsa"), ("check = ture", "check")])
    def test_bad_config_file_line(self, tmp_path, capsys, line, field):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"hurst = 0.5\nhorizons = 4,8\n{line}\n")
        out = tmp_path / "p"
        status = main(["persist", "--config", str(cfg_file), "--out", str(out)])
        self.assert_config_error(status, capsys, out, field)

    # each printed a traceback before the paths were checked where they are
    # opened: IsADirectoryError, UnicodeDecodeError, FileExistsError and
    # NotADirectoryError; at ccdf48f an empty --out wrote the run into the
    # working directory, and at 17d119b check --out "" ran the check, wrote
    # no report and exited 0
    @pytest.mark.parametrize("argv, field", [
        (["rerun", "{dir}"], "manifest"),
        (["rerun", "{latin1}"], "manifest"),
        (["persist", "--config", "{dir}"], "config"),
        (["persist", "--config", "{latin1}"], "config"),
        (ARGS + ["--out", "{file}"], "out"),
        (ARGS + ["--out", "{file}/p"], "out"),
        (ARGS + ["--out", ""], "field out"),
        (["check", "--only", "telescoping", "--set", "telescoping.sequences=5",
          "--out", ""], "field out")])
    def test_unusable_path(self, tmp_path, capsys, monkeypatch, argv, field):
        monkeypatch.chdir(tmp_path)
        paths = {"dir": tmp_path / "dir", "latin1": tmp_path / "latin1",
                 "file": tmp_path / "file"}
        paths["dir"].mkdir()
        paths["latin1"].write_bytes("hurst = 0.5  # café\n".encode("latin-1"))
        paths["file"].write_text("kept\n")
        argv = [arg.format(**paths) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "p")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {field} ")
        # no directory made, and the paths named are as they were
        assert sorted(os.listdir(tmp_path)) == ["dir", "file", "latin1"]
        assert os.listdir(paths["dir"]) == []
        assert paths["file"].read_text() == "kept\n"

    def test_check_report_into_directory(self, tmp_path, capsys, monkeypatch):
        calls = []
        spy = Check(lambda ov: calls.append(ov) or {"rows": [{"pass": True}]},
                    CHECKS["telescoping"].settings)
        monkeypatch.setitem(CHECKS, "telescoping", spy)
        status = main(["check", "--only", "telescoping",
                       "--set", "telescoping.sequences=50",
                       "--out", str(tmp_path)])
        assert status == 1
        assert capsys.readouterr().err.startswith("config error: out ")
        assert os.listdir(tmp_path) == []
        # the path fails before any check runs
        assert calls == []

    def test_bool_spellings(self):
        for raw in ("true", "TRUE", "1", "yes", "Yes", True):
            assert parse_value(raw, False, "check") is True
        for raw in ("false", "False", "0", "no", "NO", False):
            assert parse_value(raw, True, "check") is False

    def test_bool_is_no_number(self):
        for raw, default in ((True, 1), (False, 1.0), ([1.0, True], ())):
            with pytest.raises(ConfigError, match="option x must parse"):
                parse_value(raw, default, "option x")

    # both fail at ccdf48f: the bool ran as 1.0, and the rerun exited 0
    @pytest.mark.parametrize("argv, options, field", [
        (["dim", "--replicas", "2", "--opt", "grid-log2=6"],
         {"time": True, "grid-log2": 6}, "option time"),
        (["persist", "--horizon", "4,8,16,32", "--replicas", "100"],
         {"horizons": [True, 8, 16, 32]}, "option horizons")])
    def test_bool_manifest_option(self, tmp_path, capsys, argv, options,
                                  field):
        assert main(argv + ["--hurst", "0.5",
                            "--out", str(tmp_path / "p")]) in (0, 2)
        manifest = tmp_path / "p" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["config"]["options"] = options
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        capsys.readouterr()
        status = main(["rerun", str(manifest), "--out", str(again)])
        self.assert_config_error(status, capsys, again, field)

    def test_bad_manifest_value(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path / "p")]) == 0
        manifest = tmp_path / "p" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["config"]["replicas"] = "many"
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        status = main(["rerun", str(manifest), "--out", str(again)])
        self.assert_config_error(status, capsys, again, "replicas")

    # each fails at b5c9f51: a string of options printed a traceback, and
    # each number ran truncated (2 replicas, 1, seed 1, n = 4)
    @pytest.mark.parametrize("change, field", [
        ({"options": "x"}, "options"), ({"replicas": 2.5}, "replicas"),
        ({"replicas": True}, "replicas"), ({"seed": 1.9}, "seed"),
        ({"options": {"n": 4.7}}, "option n")])
    def test_typed_manifest_value(self, tmp_path, capsys, change, field):
        assert main(["chain", "--hurst", "0.5", "--replicas", "10",
                     "--opt", "n=8", "--out", str(tmp_path / "p")]) == 0
        manifest = tmp_path / "p" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["config"].update(change)
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        status = main(["rerun", str(manifest), "--out", str(again)])
        self.assert_config_error(status, capsys, again, field)

    def test_unhashable_manifest_experiment(self, tmp_path, capsys):
        # printed a TypeError traceback while the name was looked up in the
        # option tables before it was checked
        assert main(self.ARGS + ["--out", str(tmp_path / "p")]) == 0
        manifest = tmp_path / "p" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["config"]["experiment"] = ["persist"]
        manifest.write_text(json.dumps(doc))
        again = tmp_path / "again"
        status = main(["rerun", str(manifest), "--out", str(again)])
        self.assert_config_error(status, capsys, again, "experiment")

    def test_flag_strings_give_typed_manifest(self, tmp_path):
        out, again = tmp_path / "p", tmp_path / "again"
        assert main(self.ARGS + ["--spacing", "1", "--out", str(out)]) == 0
        want = asdict(RunConfig("persist", hurst=(0.5,), replicas=100, seed=1,
                                out=str(out),
                                options={"horizons": "4,8", "spacing": "1"}))
        config = json.loads(read_bytes(out / "manifest.json"))["config"]
        # compared as JSON text, where 1 and 1.0 differ
        assert json.dumps(config, sort_keys=True) == \
            json.dumps(want, sort_keys=True)
        assert main(["rerun", str(out / "manifest.json"),
                     "--out", str(again)]) == 0
        rerun = json.loads(read_bytes(again / "manifest.json"))["config"]
        assert json.dumps({**rerun, "out": str(out)}, sort_keys=True) == \
            json.dumps(want, sort_keys=True)


def _raising_runner(cfg, outdir):
    (outdir / "records.jsonl").write_text("half written\n")
    raise RuntimeError("runner failed")


class TestRunDirectory:
    """A run that fails removes the directory it made, keeps one that
    existed, and writes no manifest."""

    def test_failed_run_removes_directory_it_made(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setitem(experiments._RUNNERS, "sample", _raising_runner)
        out = tmp_path / "new" / "p"
        with pytest.raises(RuntimeError, match="runner failed"):
            run_experiment(RunConfig("sample", out=str(out)))
        assert not (tmp_path / "new").exists()

    def test_failed_run_keeps_existing_directory(self, tmp_path, monkeypatch):
        monkeypatch.setitem(experiments._RUNNERS, "sample", _raising_runner)
        out = tmp_path / "p"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        with pytest.raises(RuntimeError, match="runner failed"):
            run_experiment(RunConfig("sample", out=str(out)))
        assert (out / "notes.txt").read_text() == "kept\n"
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt",
                                                         "records.jsonl"]

    def test_manifest_written_last_and_whole(self, tmp_path, monkeypatch):
        names = []

        def runner(cfg, outdir):
            names.extend(p.name for p in outdir.iterdir())
            return {"checks": []}
        monkeypatch.setitem(experiments._RUNNERS, "sample", runner)
        out = tmp_path / "p"
        assert run_experiment(RunConfig("sample", out=str(out)))[0] == 0
        assert names == []
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        json.loads((out / "manifest.json").read_text())


class TestOptionDefaults:
    """Defaults that reach no result file, read from the returned
    summary."""

    def test_dim_checks_carry_default_tol_and_target(self, tmp_path):
        _, summary = run_experiment(RunConfig(
            "dim", hurst=(0.3, 0.6), replicas=1, seed=1,
            out=str(tmp_path / "d"), options={"grid-log2": "10"}))
        assert [(c["lo"], c["hi"]) for c in summary["checks"]] == \
            [(0.3 - 0.1, 0.3 + 0.1), (0.6 - 0.1, 0.6 + 0.1)]
        # one replica has no SE
        assert [c["se"] for c in summary["checks"]] == [0.0, 0.0]
        assert_check_rows(summary["checks"])

    def test_persist_check_tolerance_per_event(self, tmp_path):
        def tolerances(out, **options):
            _, summary = run_experiment(RunConfig(
                "persist", hurst=(0.5,), replicas=100, seed=1, check=True,
                out=str(tmp_path / out),
                options={"horizons": (4.0, 8.0, 16.0, 32.0),
                         "events": "fbm_max,ifbm_one_sided,ifbm_two_sided",
                         **options}))
            assert_check_rows(summary["checks"])
            assert all(c["se"] > 0 for c in summary["checks"])
            return {c["name"]: (c["lo"], c["hi"]) for c in summary["checks"]}
        # ifbm_two_sided has no known exponent, so no check
        assert tolerances("p") == {
            "exponent fbm_max h=0.5": (0.5 - 0.07, 0.5 + 0.07),
            "exponent ifbm_one_sided h=0.5": (0.25 - 0.08, 0.25 + 0.08)}
        assert tolerances("q", **{"slope-tol": "0.2"}) == {
            "exponent fbm_max h=0.5": (0.5 - 0.2, 0.5 + 0.2),
            "exponent ifbm_one_sided h=0.5": (0.25 - 0.2, 0.25 + 0.2)}


def _readme_tables() -> dict:
    """{experiment or 'check': {key: default}} from README's option tables:
    a line holding only `name`, then rows | `key` | `default` | ..."""
    tables, current = {}, None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("`") and line.endswith("`") and line.count("`") == 2:
            current = tables.setdefault(line.strip("`"), {})
        cells = [cell.strip() for cell in line.split("|")]
        if (current is not None and len(cells) > 3
                and cells[1].startswith("`") and cells[2].startswith("`")):
            current[cells[1].strip("`")] = cells[2].strip("`")
    return tables


def test_readme_lists_every_option_and_default():
    want = {exp: {key: str(row.default) for key, row in OPTIONS[exp].items()}
            for exp in EXPERIMENTS}
    want["check"] = {key: str(row.default) for check in CHECKS.values()
                     for key, row in check.settings.items()}
    assert _readme_tables() == want


def test_every_export_is_used_or_documented():
    """Each name ``burgerslab`` exports is used in the package outside its
    own definition and ``__init__.py``, or named in README; and the imports
    of ``__init__.py`` are the one export list."""
    package = Path(burgerslab.__file__).parent
    exported = [alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"`[\w.]*?(\w+)`", readme))
    assert len(exported) > 30
    assert [p.name for p in package.glob("*.py")
            if "__all__" in p.read_text()] == []
    assert sorted(set(exported) - used - named) == []


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        args = ["persist", "--hurst", "0.4", "--horizon", "4,8,16,32",
                "--replicas", "200", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_bytes(a / "records.jsonl") == read_bytes(b / "records.jsonl")
        assert read_bytes(a / "fits.json") == read_bytes(b / "fits.json")

    def test_manifest_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        status = main(["chain", "--hurst", "0.5", "--replicas", "300",
                       "--seed", "5", "--opt", "n=8", "--out", str(out)])
        assert status == 0
        again = tmp_path / "again"
        assert main(["rerun", str(out / "manifest.json"),
                     "--out", str(again)]) == 0
        assert read_bytes(out / "chain.json") == read_bytes(again / "chain.json")

    # the layout manifests had while horizons and spacing were fields of
    # every experiment: both at the top of the config, typed
    @pytest.mark.parametrize("argv, old", [
        (["persist", "--hurst", "0.5", "--horizon", "4,8", "--replicas",
          "100"], {"horizons": [4.0, 8.0], "spacing": 1.0}),
        (["sample", "--replicas", "2", "--spacing", "0.5", "--opt",
          "points=16"], {"horizons": [], "spacing": 0.5}),
        (["dim", "--replicas", "2", "--opt", "grid-log2=10"],
         {"horizons": [], "spacing": 1.0})])
    def test_old_layout_manifest_reruns_byte_identical(self, tmp_path, argv,
                                                       old):
        out, again = tmp_path / "run", tmp_path / "again"
        assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        for key in ("horizons", "spacing"):
            doc["config"]["options"].pop(key, None)
        doc["config"].update(old)
        manifest.write_text(json.dumps(doc))
        assert main(["rerun", str(manifest), "--out", str(again)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            if name != "manifest.json":
                assert read_bytes(out / name) == read_bytes(again / name)

    def test_worker_cap_does_not_change_outputs(self, tmp_path, monkeypatch):
        cfg = RunConfig("dim", hurst=(0.4, 0.6), replicas=2, seed=3,
                        options={"grid-log2": "11"})
        import dataclasses
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        run_experiment(dataclasses.replace(cfg, out=str(tmp_path / "w1")))
        monkeypatch.setenv("BURGERSLAB_WORKERS", "2")
        run_experiment(dataclasses.replace(cfg, out=str(tmp_path / "w2")))
        assert read_bytes(tmp_path / "w1" / "records.jsonl") == \
            read_bytes(tmp_path / "w2" / "records.jsonl")


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# dimension experiment\n"
            "experiment = dim\n"
            "hurst = 0.5\n"
            "replicas = 2\n"
            "seed = 11\n"
            "grid-log2 = 11\n")
        doc = load_config_file(cfg_file)
        assert doc["grid-log2"] == "11"
        out = tmp_path / "out"
        status = main(["dim", "--config", str(cfg_file), "--replicas", "3",
                       "--out", str(out)])
        assert status in (0, 2)
        manifest = json.loads(read_bytes(out / "manifest.json"))
        assert manifest["config"]["replicas"] == 3  # flag beat the file
        assert manifest["config"]["seed"] == 11

    def test_bad_line_reports_location(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("replicas 100\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config_file(bad)


def _standard_json(outdir) -> int:
    """The number of JSON documents in the .json and .jsonl files of
    ``outdir``, each parsed as standard JSON, which has no NaN or
    Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not standard JSON")
    docs = 0
    for path in sorted(outdir.iterdir()):
        if path.suffix in (".json", ".jsonl"):
            text = path.read_text()
            for doc in [text] if path.suffix == ".json" else text.splitlines():
                json.loads(doc, parse_constant=refuse)
                docs += 1
    return docs


class TestArtifacts:
    def test_non_finite_floats_written_as_null(self, tmp_path):
        write_json(tmp_path / "a.json",
                   {"x": [math.nan, (math.inf, 1.5)], "y": {"z": -math.inf}})
        write_jsonl(tmp_path / "b.jsonl", [{"x": math.nan}, {"x": 2.0}])
        assert _standard_json(tmp_path) == 3
        assert json.loads((tmp_path / "a.json").read_text()) == \
            {"x": [None, [None, 1.5]], "y": {"z": None}}
        assert (tmp_path / "b.jsonl").read_text() == \
            '{"x": null}\n{"x": 2.0}\n'

    # the first two fail at ccdf48f: dim's degenerate fits wrote
    # "max_residual": NaN on every line, and rkhs-verify's level wrote
    # "lhs": NaN; the third fails at e7c0d46 with a ZeroDivisionError, for
    # every replica stays below the level (p = 1, whose SE is 0/0)
    @pytest.mark.parametrize("argv, file, key", [
        (["dim", "--replicas", "6", "--opt", "grid-log2=5"],
         "records.jsonl", "max_residual"),
        (["rkhs-verify", "--replicas", "200", "--opt", "trend=combined1",
          "--opt", "level=-1"], "shift.json", "lhs"),
        (["rkhs-verify", "--replicas", "200", "--opt", "trend=zero",
          "--opt", "level=100"], "shift.json", "lhs")])
    def test_result_files_are_standard_json(self, tmp_path, argv, file, key):
        out = tmp_path / "r"
        assert main(argv + ["--hurst", "0.5", "--out", str(out)]) == 2
        assert _standard_json(out) >= 2
        assert f'"{key}": null' in (out / file).read_text()

    def test_tiny_configs_write_standard_json(self, tmp_path):
        for cfg in _TINY_CONFIGS:
            out = tmp_path / cfg.experiment
            assert run_experiment(replace(cfg, out=str(out)))[0] in (0, 2)
            assert _standard_json(out) >= 2

    def test_persist_record_fields(self, tmp_path):
        out = tmp_path / "p"
        assert main(["persist", "--hurst", "0.5", "--horizon", "4,8",
                     "--replicas", "150", "--seed", "2",
                     "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                (out / "records.jsonl").read_text().splitlines()]
        assert {"p", "se", "replicas", "seed", "spacing", "event",
                "horizon"} <= set(rows[0])

    def test_sample_and_solve_outputs(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sample", "--hurst", "0.5", "--replicas", "2",
                     "--seed", "1", "--opt", "points=16",
                     "--out", str(out)]) == 0
        assert (out / "path_h0.5_r0.csv").exists()
        out2 = tmp_path / "sv"
        assert main(["solve", "--hurst", "0.5", "--replicas", "1",
                     "--seed", "1", "--opt", "half-points=32",
                     "--out", str(out2)]) == 0
        assert (out2 / "solution_h0.5_r0.csv").exists()
        assert (out2 / "clusters_h0.5_r0.jsonl").exists()

    def test_chain_json_keyed_by_relation(self, tmp_path):
        out = tmp_path / "c"
        assert main(["chain", "--hurst", "0.6", "--replicas", "200",
                     "--seed", "3", "--opt", "n=8", "--out", str(out)]) == 0
        doc = json.loads(read_bytes(out / "chain.json"))
        relations = doc["h=0.6"]["relations"]
        # every relation is a check row under its own name, keys sorted
        names = ["eq10", "eq11", "eq14", "eq15", "eq16", "eq16 pathwise",
                 "eq17", "telescoping"]
        assert list(relations) == names
        rows = check_rows(relations)
        assert [row["name"] for row in rows] == names
        # the counts and the exact-arithmetic relation have no SE, and
        # every other relation a positive one
        no_se = ["eq16", "eq16 pathwise", "telescoping"]
        assert [row["name"] for row in rows if row["se"] is None] == no_se
        assert all(row["se"] > 0 for row in rows if row["name"] not in no_se)
        assert_check_rows(rows)
        assert doc["h=0.6"]["pass"] == all(row["pass"] for row in rows)

    # fails at e7c0d46 for covcol, whose printed row read covcol@1*0.1 and
    # whose shift.json read cov_col@1x0.1
    @pytest.mark.parametrize("trend", ["combined0", "combined1", "psi",
                                       "psi*0.2", "covcol@1*0.1", "zero"])
    def test_shift_row_has_one_name(self, tmp_path, capsys, trend):
        out = tmp_path / "r"
        main(["rkhs-verify", "--hurst", "0.5", "--replicas", "200",
              "--opt", "half-points=8", "--opt", f"trend={trend}", "--check",
              "--out", str(out)])
        printed = [line.split(" ", 1)[1] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith(("PASS ", "FAIL "))]
        written = json.loads(read_bytes(out / "shift.json"))["h=0.5"]["name"]
        assert printed == [written] == [f"shift bound {trend} h=0.5"]

    # fails at e7c0d46, which factorized once per replica, 6 times
    def test_exact_sample_factorizes_once_per_hurst(self, tmp_path,
                                                    monkeypatch):
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: shapes.append(a.shape) or cholesky(a))
        out = tmp_path / "s"
        assert main(["sample", "--hurst", "0.3,0.7", "--replicas", "3",
                     "--seed", "2", "--opt", "method=exact",
                     "--opt", "points=16", "--out", str(out)]) == 0
        assert shapes == [(16, 16)] * 2
        # each file is the replica's own exact path, on its own factor
        grid = SampleGrid.one_sided(1.0, 16)
        for h in (0.3, 0.7):
            for rep in range(3):
                GridPath(grid, generator_fbm_exact(h, grid, RandomnessSpec(
                    2, rep)), "fbm").to_csv(tmp_path / "want.csv")
                assert read_bytes(out / f"path_h{h:g}_r{rep}.csv") == \
                    read_bytes(tmp_path / "want.csv")

    def test_rkhs_verify_output(self, tmp_path):
        out = tmp_path / "r"
        assert main(["rkhs-verify", "--hurst", "0.5", "--replicas", "2000",
                     "--seed", "6", "--opt", "half-points=8",
                     "--opt", "trend=covcol@1*0.1", "--opt", "level=1",
                     "--out", str(out)]) == 0
        doc = json.loads(read_bytes(out / "shift.json"))
        assert {"p_trended", "p_plain", "norm", "lhs", "rhs",
                "pass"} <= set(doc["h=0.5"])
        assert doc["h=0.5"]["se"] > 0
        assert_check_rows(check_rows(doc))


class TestProvenance:
    def test_manifest_records_rng_versions_and_workers(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("BURGERSLAB_WORKERS", "1")
        out = tmp_path / "s"
        assert main(["sample", "--replicas", "1", "--opt", "points=4",
                     "--out", str(out)]) == 0
        prov = json.loads(read_bytes(out / "manifest.json"))["provenance"]
        assert prov["rng"].startswith("numpy PCG64, SeedSequence((seed, replica))")
        assert prov["rng_state_write"] == rng_state_write()
        assert prov["rng_state_write"] in ("direct", "generator")
        assert prov["numpy"] == np.__version__
        assert "scipy" not in prov  # not a runtime dependency
        assert prov["hull"] == "numpy"
        assert prov["workers"] == 1

    def test_cli_import_skips_scipy_stats_and_special(self):
        src = str(Path(burgerslab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        # nor does a fit, degenerate or not, import numpy.ma
        code = ("import sys, burgerslab.cli; "
                "from burgerslab.fitting import fit_scaling; "
                "fit_scaling([0.5, 0.25, 0.125], [2.0, 4.0, 8.0]); "
                "fit_scaling([0.5, 0.25], [3.0, 3.0]); "
                "print(sorted(m for m in ('scipy.stats', 'scipy.special', "
                "'numpy.ma') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_runs_with_scipy_unimportable(self, tmp_path):
        """numpy is the only runtime dependency: with scipy blocked the
        package imports, runs every experiment at a tiny scale and the
        checks that once used scipy, and solves the Clopper-Pearson bound
        for counts >= 1."""
        src = str(Path(burgerslab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "BURGERSLAB_WORKERS": "1"}
        code = textwrap.dedent(f"""\
            import dataclasses, json, sys
            sys.modules["scipy"] = None
            import burgerslab, burgerslab.cli
            from burgerslab.acceptance import _TINY_CONFIGS
            from burgerslab.experiments import run_experiment
            from burgerslab.persistence import _binom_upper
            statuses = [run_experiment(dataclasses.replace(
                cfg, out=r"{tmp_path}" + "/" + cfg.experiment))[0]
                for cfg in _TINY_CONFIGS]
            check = burgerslab.cli.main([
                "check", "--only", "sampler-equivalence,inequality-chain",
                "--set", "sampler-eq.replicas=200",
                "--set", "sampler-eq.points=16",
                "--set", "chain.replicas=400", "--set", "chain.n=8"])
            print(json.dumps([statuses, check,
                              [_binom_upper(k, 1000) for k in (1, 3, 999)]]))
            """)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        statuses, check, uppers = json.loads(done.stdout.splitlines()[-1])
        # the statuses and bounds with scipy importable
        assert statuses == [0] * 6 and check == 0
        assert uppers == pytest.approx([0.012921398147702089,
                                        0.01717479031684895,
                                        0.9999999683282571], rel=1e-9)


class TestCheckCommand:
    def test_list_names(self, capsys):
        assert main(["check", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "dimension" in names and "rkhs" in names

    def test_unknown_check_name(self, capsys):
        assert main(["check", "--only", "bogus"]) == 1

    def test_negative_control_breaks_dimension_target(self):
        base = {"dim.replicas": "4", "dim.grid-log2": "13",
                "dim.slope-tol": "0.3"}
        good = run_checks(["dimension"], base)[0]
        assert good.passed
        broken = run_checks(["dimension"],
                            {**base, "dim.target-h0.5": "0.9"})[0]
        assert not broken.passed

    # each failed at 646da9d: a ZeroDivisionError traceback, a config error
    # that named no key, and a PASS that the check could not have failed
    @pytest.mark.parametrize("check, key, value", [
        ("burgers-oracle", "burgers.particles", "0"),
        ("telescoping", "telescoping.length", "1"),
        ("sampler-equivalence", "sampler-eq.replicas", "1")])
    def test_override_out_of_range_names_key(self, capsys, check, key,
                                              value):
        status = main(["check", "--only", check, "--set", f"{key}={value}"])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and key in captured.err
        assert "PASS" not in captured.out

    def test_replica_settings_capped(self):
        # through the rules only: 2^32 + 1 replicas once passed them, and
        # the check ran until a replica index left [0, 2^32)
        rows = {key: row for check in CHECKS.values()
                for key, row in check.settings.items()
                if key.endswith((".replicas", ".sequences", ".paths"))}
        assert len(rows) == 11
        for key, row in rows.items():
            assert row.ok(2 ** 32) and not row.ok(2 ** 32 + 1), key

    def test_bad_override_names_key(self, capsys):
        status = main(["check", "--only", "telescoping",
                       "--set", "telescoping.length=abc"])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "telescoping.length" in err

    def test_check_report_written(self, tmp_path):
        report = tmp_path / "report.json"
        status = main(["check", "--only", "telescoping",
                       "--set", "telescoping.sequences=50",
                       "--out", str(report)])
        assert status == 0
        doc = json.loads(report.read_text())
        assert doc["telescoping"]["pass"] is True
