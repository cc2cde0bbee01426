import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolab import cli
from parabolab import mixed_norms as mn
from parabolab import pde_solver as pde
from parabolab import sde_mc as sde
from parabolab import variational as vr
from parabolab.embeddings import ExponentConfig
from parabolab.mixed_norms import INF


def _default(kind, name):
    return cli.EXPERIMENTS[kind][1][name][0]


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "norms", "bogus": 1}))
        assert cli.main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_parameter(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "norms", "parameters": {"nope": 1}}))
        assert cli.main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_rejected_config_replaces_stale_report(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        for stale in ("report.json", "meta.json"):
            (out / stale).write_text("stale\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "norms", "parameters": {"nope": 1}}))
        assert cli.main(["norms", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "validation" and "nope" in err["message"]
        assert err["kind"] == "norms" and err["config_hash"] is None
        assert not (out / "report.json").exists() and not (out / "meta.json").exists()

    def test_kind_mismatch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "sde"}))
        assert cli.main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_parameter_range_checked_before_compute(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "sde", "parameters": {"dt": 0.5}}))
        assert cli.main(["sde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_fixture_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "pde", "parameters": {"fixture": "wat"}}))
        assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_coefficient_error_is_validation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "pde", "parameters": {"fixture": "example-6.1"}}))
        assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["error"] == "validation" and "d >= 3" in err["message"]

    def test_sde_start_length_must_match_d(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "sde", "parameters": {"x0": [0.0, 0.0, 0.0]}}))
        assert cli.main(["sde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["error"] == "validation" and "x0" in err["message"]

    @pytest.mark.parametrize("kind, params", [
        ("pde", {"T": "inf"}),
        ("sde", {"T": "inf"}),
        ("pde", {"box": "inf"}),
    ], ids=["pde-T", "sde-T", "pde-box"])
    def test_non_finite_extent_is_validation(self, tmp_path, capsys, kind, params):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        (name,) = params
        assert err["error"] == "validation" and f"parameter {name} " in err["message"]
        assert "Traceback" not in capsys.readouterr().err

    # T / dt above the cap, or not whole: the run is rejected, not stepped to a
    # rounded horizon
    @pytest.mark.parametrize("kind, params", [
        ("pde", {"T": 1e300}),
        ("sde", {"T": 1e300}),
        ("pde", {"T": 1e308, "dt": 0.001}),
        ("degiorgi", {"dt": 1e-300}),
        ("pde", {"T": 0.5, "dt": 0.03}),
        ("sde", {"T": 0.5, "dt": 0.003}),
        ("degiorgi", {"dt": 0.015}),
    ], ids=["pde-T", "sde-T", "pde-T-over-dt-overflows", "degiorgi-dt", "pde-not-whole",
            "sde-not-whole", "degiorgi-not-whole"])
    def test_step_count_capped(self, tmp_path, capsys, monkeypatch, kind, params):
        # the library's whole-step rule must reject these before anything is allocated
        monkeypatch.setattr(pde, "solve", lambda *a, **k: pytest.fail("solve was called"))
        monkeypatch.setattr(sde, "_path_noise", lambda *a, **k: pytest.fail("paths were drawn"))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["error"] == "validation"
        assert f"is not a whole number of steps in 1..{mn.MAX_STEPS}" in err["message"]
        assert not (tmp_path / "o" / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["norms", "variational", "sde"])
    @pytest.mark.parametrize("flag, config_seed", [
        ("-1", None),
        (str(2**64), None),
        (None, True),
    ], ids=["flag-negative", "flag-2**64", "config-true"])
    def test_bad_seed_is_validation(self, tmp_path, capsys, kind, flag, config_seed):
        out = tmp_path / "o"
        argv = [kind, "--out", str(out)]
        if flag is not None:
            argv += ["--seed", flag]
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"kind": kind, "seed": config_seed}))
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "validation" and "seed" in err["message"]
        assert not (out / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["sde", "--out", str(out), "--seed", str(2**64 - 1)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 2**64 - 1

    def test_degiorgi_level_inside_schema_but_negative_is_validation(self, tmp_path, capsys):
        # the schema admits level >= 0, so a negative level exits 2 at load time, before the run
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "degiorgi", "parameters": {"level": -1e-13}}))
        out = tmp_path / "o"
        assert cli.main(["degiorgi", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "validation" and "nonnegative" in err["message"]
        assert not (out / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["alpha", "beta", "lambda"])
    def test_sde_small_negative_parameter_is_validation(self, tmp_path, capsys, name):
        # the sde schema admits [0, hi] for these, so -1e-13 exits 2 at load time
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "sde", "parameters": {name: -1e-13}}))
        out = tmp_path / "o"
        assert cli.main(["sde", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "validation" and "nonnegative" in err["message"]
        assert not (out / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("level,want", [(0.0, 0.0), (-0.0, 0.0), (0.5, 0.5), ("inf", INF)])
    def test_degiorgi_schema_admits_nonnegative_levels(self, tmp_path, level, want):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "degiorgi", "parameters": {"level": level}}))
        assert cli.load_config(cfg, "degiorgi", 0, None).parameters["level"] == want

    @pytest.mark.parametrize("level", [-1e-13, -5e-324, math.nan, True, "0"])
    def test_degiorgi_schema_rejects_other_levels(self, tmp_path, level):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "degiorgi", "parameters": {"level": level}}))
        with pytest.raises(cli.ValidationError):
            cli.load_config(cfg, "degiorgi", 0, None)

    # bytes that are not UTF-8, nesting past the recursion limit, an integer past
    # Python's 4300-digit conversion limit: each used to escape with a traceback
    @pytest.mark.parametrize("content", [
        b'{"kind": "norms", "seed": "\xff"}',
        b"[" * 200000 + b"]" * 200000,
        b'{"kind": "norms", "seed": ' + b"1" * 4301 + b"}",
    ], ids=["not-utf8", "nested-200000", "int-4301-digits"])
    def test_malformed_config_file_is_validation(self, tmp_path, capsys, content):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(content)
        out = tmp_path / "o"
        assert cli.main(["norms", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err
        assert "Traceback" not in err
        assert json.loads((out / "error.json").read_text())["error"] == "validation"

    def test_memory_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate the path array")

        monkeypatch.setattr(sde, "euler_maruyama", out_of_memory)
        out = tmp_path / "o"
        assert cli.main(["sde", "--out", str(out), "--seed", "1"]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "numerical" and "allocate" in err["message"]
        assert not (out / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err


class TestExperiments:
    def test_norms_constant_fixture_reports_unit_value(self, tmp_path):
        out = tmp_path / "norms"
        assert cli.main(["norms", "--out", str(out), "--seed", "1"]) == 0
        rep = json.loads((out / "report.json").read_text())
        mixed = [r for r in rep["records"] if r["op"] == "mixed_norm"]
        assert mixed[0]["value"] == 1.0
        assert rep["version"] and rep["config_hash"]
        # the sampled field is exported in the grid format
        assert (out / "field.json").exists() and (out / "field.bin").exists()
        g = mn.load_grid_function(out / "field")
        assert np.all(g.values == 1.0)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["sde", "--out", str(out), "--seed", "42"]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sde", "--out", str(a), "--seed", "1"]) == 0
        assert cli.main(["sde", "--out", str(b), "--seed", "2"]) == 0
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["config_hash"] != rb["config_hash"]
        assert ra["sup_moment"] != rb["sup_moment"]

    def test_variational_reports_oracle_convergence(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "variational", "parameters": {
            "n_components": 2, "n_instances": 3, "knot_count": 17}, "seed": 7}))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["variational", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((a / "report.json").read_text())["instances"]
        assert len(rows) == 3
        for row in rows:
            assert row["converged"] is (row["fw_gap"] <= 1e-7 * row["oracle"])
            assert row["oracle"] <= row["explicit"] * (1 + 1e-12)
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_variational_rows_carry_lower_and_iterations(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "variational", "parameters": {
            "n_components": 1, "n_instances": 6, "knot_count": 17}, "seed": 3}))
        out = tmp_path / "v"
        assert cli.main(["variational", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["instances"]
        rng = np.random.default_rng(3)
        convex = [bool(np.all(p.alphas >= p.ps))
                  for p in (vr._random_problem(rng, 1) for _ in rows)]
        assert True in convex and False in convex
        for row, is_convex in zip(rows, convex):
            assert isinstance(row["iterations"], int) and row["iterations"] >= 0
            if is_convex:
                assert row["lower"] == row["oracle"] - row["fw_gap"] <= row["oracle"]
            else:
                assert row["lower"] is None
        first = vr.oracle_infimum(vr._random_problem(np.random.default_rng(3), 1), 17)
        assert (rows[0]["iterations"], rows[0]["lower"]) == (first.iterations, first.lower)

    # the schema's knot bound is the library's: 2 knots solve, 1 exits 2 at load time
    @pytest.mark.parametrize("knots, rc", [(2, 0), (1, 2)])
    def test_variational_knot_count_bound(self, tmp_path, knots, rc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "variational", "parameters": {
            "n_components": 1, "n_instances": 1, "knot_count": knots}}))
        assert cli.main(["variational", "--config", str(cfg), "--out", str(tmp_path / "v")]) == rc

    def test_variational_solves_each_problem_once(self, tmp_path, monkeypatch):
        solved, instances = [], []
        oracle = vr.oracle_infimum
        knot_count = _default("variational", "knot_count")

        def counting(prob, knots=41):
            arrays = (prob.alphas, prob.ps, prob.betas, prob.f_samples)
            solved.append((prob.tau, prob.delta, knots) + tuple(a.tobytes() for a in arrays))
            instances.append(prob)
            return oracle(prob, knots)

        monkeypatch.setattr(vr, "oracle_infimum", counting)
        out = tmp_path / "v"
        assert cli.main(["variational", "--out", str(out), "--seed", "42"]) == 0
        assert solved and len(set(solved)) == len(solved)
        # each row holds the oracle value and the bound's right side for its instance
        rows = json.loads((out / "report.json").read_text())["instances"]
        assert len(rows) == len(instances)
        for row, prob in zip(rows, instances):
            lhs = oracle(prob, knot_count).value
            expo, rhs, c_fit = vr.sa3_bound_rhs(prob)
            assert (row["gap"], row["oracle"], row["exponent"], row["rhs_value"],
                    row["c_fit"]) == (prob.gap, lhs, expo, rhs, c_fit)
            assert row["bounded"] is (lhs <= c_fit * rhs)

    def test_embed_writes_sweep_table(self, tmp_path):
        out = tmp_path / "embed"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "embed", "parameters": {"n_points": 20}}))
        assert cli.main(["embed", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["n_rows"] == 60
        assert (out / "sweep.csv").exists()
        row = rep["rows"][0]
        assert {"d", "p0", "p", "q", "predicate", "value"} <= set(row)

    def test_degiorgi_diagnostic_rows(self, tmp_path):
        out = tmp_path / "dg"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "degiorgi", "parameters": {"nx": 50, "dt": 0.04}}))
        assert cli.main(["degiorgi", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        ops = {r["op"] for r in rep["diagnostics"]}
        assert ops == {"energy_estimate", "local_max"}
        for row in rep["diagnostics"]:
            assert {"run_id", "op", "lhs", "rhs", "ratio", "gamma_fit"} <= set(row)

    def test_degiorgi_diagnostics_pinned(self, tmp_path):
        # float.hex of both rows at nx 50, dt 0.04; the two equal level terms of the
        # energy estimate are one masked norm, computed once
        out = tmp_path / "dg"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "degiorgi", "parameters": {"nx": 50, "dt": 0.04}}))
        assert cli.main(["degiorgi", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["diagnostics"]
        got = {r["op"]: tuple(float(r[k]).hex() for k in ("lhs", "rhs", "ratio"))
               for r in rows}
        assert got == {
            "energy_estimate": ("0x1.6943474b6d201p-2", "0x1.895209112209ap+4",
                                "0x1.d644f4d366ce4p-7"),
            "local_max": ("0x1.5dc8e9f8a065ep-2", "0x1.2dd1cdf4c1259p+1",
                          "0x1.28af0132e8627p-3"),
        }
        assert float(rows[0]["gamma_fit"]).hex() == "-0x1.eaaebae226d31p-45"

    # small configs of the kinds that criterion 12 does not rerun, and the
    # files each one writes beside report.json and meta.json
    RERUN_CONFIGS = {
        "embed": ({"n_points": 30}, {"sweep.csv"}),
        "variational": ({"n_instances": 2, "knot_count": 17}, {"best_profile.csv"}),
        "pde": ({"nx": 16, "dt": 0.05, "T": 0.2}, {"solution.json", "solution.bin"}),
        "degiorgi": ({"nx": 40, "dt": 0.1}, {"diagnostics.csv"}),
    }

    @pytest.mark.parametrize("kind", sorted(RERUN_CONFIGS))
    def test_rerun_is_byte_identical(self, tmp_path, kind):
        params, written = self.RERUN_CONFIGS[kind]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            assert cli.main([kind, "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
        names = [sorted(p.name for p in out.iterdir() if p.name != "meta.json") for out in outs]
        assert names[0] == names[1] == sorted(written | {"report.json"})
        for name in names[0]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_sde_reports_floor_hits(self, tmp_path):
        # the raw Prop. 6.1 field clamps |x| at the floor; every path starts there
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "sde", "parameters": {
            "family": "prop-6.1", "d": 3, "alpha": 0.3, "n": "inf", "x0": [0, 0, 0]}}))
        reports = []
        for argv in (["--config", str(cfg)], []):
            out = tmp_path / str(len(reports))
            assert cli.main(["sde", *argv, "--seed", "42", "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["floor_hits"] > 0
        assert reports[1]["parameters"]["family"] == "brownian" and reports[1]["floor_hits"] == 0

    def test_pde_solution_export(self, tmp_path):
        out = tmp_path / "pde"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "pde",
                                   "parameters": {"nx": 24, "dt": 0.05, "T": 0.2}}))
        assert cli.main(["pde", "--config", str(cfg), "--out", str(out)]) == 0
        u = mn.load_grid_function(out / "solution")
        assert u.d == 2 and np.all(np.isfinite(u.values))
        rep = json.loads((out / "report.json").read_text())
        assert "max_principle" in rep and "hypotheses" in rep and "grad_sup" in rep

    def test_pde_rotation_drift_uses_the_periodic_cutoff(self, tmp_path):
        nx = 16
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "pde", "parameters": {
            "fixture": "rotation-drift", "nx": nx, "dt": 0.05, "T": 0.1}}))
        assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        p = {name: _default("pde", name) for name in ("p0", "p4", "q4", "box")}
        exp_cfg = ExponentConfig(d=2, p0=p["p0"], p4=p["p4"], q4=p["q4"])
        h = 2 * p["box"] / nx
        want = pde.check_hypotheses(pde.rotation_drift_field(pure=False), exp_cfg,
                                    (-p["box"],) * 2, (h, h), (nx, nx))
        assert rep["hypotheses"]["b2_norm"] == want.b2_norm


FIXTURES_STDOUT = """\
{
 "brownian": {
  "condition": "no constraints (sigma = I, b = 0)",
  "kind": "sde"
 },
 "bump": {
  "condition": "none",
  "kind": "test-function"
 },
 "constant": {
  "condition": "none",
  "kind": "test-function"
 },
 "diagonal-power": {
  "condition": "alpha real, R >= 1, n >= 1 or inf",
  "kind": "pde"
 },
 "example-6.1": {
  "condition": "d >= 3, 0 < alpha < min(d/2 - 1, 1/2 + 1/(d-1))",
  "kind": "pde+sde"
 },
 "example-6.2": {
  "condition": "d = 2, 0 < alpha < 1/4",
  "kind": "pde+sde"
 },
 "identity": {
  "condition": "d in {1,2,3}",
  "kind": "pde"
 },
 "indicator": {
  "condition": "none",
  "kind": "test-function"
 },
 "prop-6.1": {
  "condition": "d >= 3, 0 < alpha < min(d/2 - 1, 1/2 + 1/(d-1)), 0 < beta < 2*alpha, lambda >= 0",
  "kind": "sde"
 },
 "random": {
  "condition": "none",
  "kind": "test-function"
 },
 "rotation-drift": {
  "condition": "d = 2, div b = 0",
  "kind": "pde"
 }
}
"""


class TestFixtures:
    def test_stdout_snapshot(self, capsys):
        # the catalog reads the solver fixtures, the SDE families and the norm fixtures
        assert cli.main(["fixtures"]) == 0
        assert capsys.readouterr().out == FIXTURES_STDOUT

    def test_norm_fixtures_are_the_schema_choices(self):
        check = cli.EXPERIMENTS["norms"][1]["fixture"][1]
        for name in cli.NORM_FIXTURES:
            assert check("fixture", name) == name
        with pytest.raises(cli.ValidationError, match="bump"):
            check("fixture", "gaussian")

    def test_catalog_contents(self, capsys):
        assert cli.main(["fixtures"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert "example-6.1" in catalog
        assert "min(d/2 - 1, 1/2 + 1/(d-1))" in catalog["example-6.1"]["condition"]
        for entry in catalog.values():
            assert "condition" in entry and "kind" in entry

    def test_acceptance_subset_via_cli(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "acceptance", "parameters": {"criteria": [2, 4]}}))
        rc = cli.main(["acceptance", "--config", str(cfg), "--out", str(tmp_path / "acc")])
        assert rc == 0
        rep = json.loads((tmp_path / "acc" / "report.json").read_text())
        assert [r["index"] for r in rep["criteria"]] == [2, 4]
        assert rep["all_passed"] is True

    @pytest.mark.parametrize("criteria", [[13], [0], [2.7], [True], [2, 13]],
                             ids=["past-last", "zero", "float", "bool", "one-bad"])
    def test_bad_criterion_index_is_validation(self, tmp_path, capsys, criteria):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "acceptance", "parameters": {"criteria": criteria}}))
        out = tmp_path / "acc"
        assert cli.main(["acceptance", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "validation" and "criteria" in err["message"]
        assert not (out / "report.json").exists()
        assert "[PASS]" not in capsys.readouterr().out  # rejected before any criterion ran


_ANY_EXPONENT = st.one_of(st.floats(1.0, 8.0), st.just("inf"))

# small configs of the cheap kinds; every value passes the schema, so with a
# valid seed any failure happens inside ``cli.run``
CHEAP_CONFIGS = st.one_of(
    st.tuples(st.just("norms"), st.fixed_dictionaries({
        "fixture": st.sampled_from(["constant", "bump", "indicator", "random"]),
        "d": st.integers(1, 2), "nt": st.integers(2, 8), "nx": st.integers(2, 8),
        "p": st.floats(1.0, 8.0), "q": _ANY_EXPONENT,
        "lattice_step": st.floats(0.05, 1.0)})),
    st.tuples(st.just("embed"), st.fixed_dictionaries({
        "d": st.integers(1, 3), "p0": st.one_of(st.floats(0.6, 8.0), st.just("inf")),
        "n_points": st.integers(1, 5)})),
    st.tuples(st.just("pde"), st.fixed_dictionaries({
        "fixture": st.sampled_from(sorted(pde.PDE_FIXTURES)),
        "d": st.integers(1, 3), "alpha": st.floats(0.01, 1.0), "R": st.floats(1.0, 3.0),
        "n": st.one_of(st.integers(1, 8), st.just("inf")), "nx": st.integers(4, 10),
        "dt": st.sampled_from([0.05, 0.1, 0.5]), "T": st.sampled_from([0.1, 0.2]),
        "box": st.floats(0.5, 4.0), "p0": st.one_of(st.floats(0.6, 8.0), st.just("inf")),
        "p4": _ANY_EXPONENT, "q4": _ANY_EXPONENT})),
    st.tuples(st.just("sde"), st.fixed_dictionaries({
        "family": st.sampled_from(sorted(sde.SDE_FAMILIES)), "d": st.integers(1, 3),
        "alpha": st.floats(0.0, 1.0), "beta": st.floats(0.0, 1.0),
        "lambda": st.floats(0.0, 2.0), "n_paths": st.integers(2, 20),
        "dt": st.sampled_from([0.005, 0.01]), "T": st.sampled_from([0.02, 0.05]),
        "x0": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)})),
    st.tuples(st.just("degiorgi"), st.fixed_dictionaries({
        "nx": st.integers(4, 24), "dt": st.sampled_from([0.1, 0.25, 0.5]),
        # the schema's range [0, inf] and negative levels next to it, which exit 2 at load time
        "level": st.one_of(st.floats(-1e-12, 0.0, exclude_min=True, exclude_max=True),
                           st.floats(0.0)),
        "p4": st.one_of(st.floats(2.0, 8.0), st.just("inf"))})),
)


class TestExitContract:
    # a bool, negative or >= 2**64 seed exits 2 in ``load_config`` before
    # ``cli.run`` starts; such seeds take half to three quarters of the draws,
    # so 160 examples keep at least about the 40 valid-seed runs of a narrower
    # seed strategy
    @settings(max_examples=160, deadline=None, derandomize=True)  # seeded, like every check
    @given(CHEAP_CONFIGS, st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**70, -1),
                                    st.integers(2**64, 2**70), st.booleans()))
    def test_exit_codes_and_no_stale_outputs(self, kind_params, seed):
        kind, params = kind_params
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            out.mkdir()
            for stale in ("report.json", "meta.json", "error.json"):
                (out / stale).write_text("stale\n")
            cfg = Path(tmp) / "c.json"
            cfg.write_text(json.dumps({"kind": kind, "parameters": params, "seed": seed}))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([kind, "--config", str(cfg), "--out", str(out)])
            assert rc in (0, 2, 3, 4)
            if isinstance(seed, bool) or not 0 <= seed < 2**64:
                assert rc == 2
            if rc == 0:
                assert not (out / "error.json").exists()
                assert json.loads((out / "report.json").read_text())["kind"] == kind
            else:
                assert json.loads((out / "error.json").read_text())["kind"] == kind
                assert not (out / "report.json").exists()
                assert not (out / "meta.json").exists()
