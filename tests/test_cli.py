"""Config schema, hashing, CLI subcommands, and exit-code contract."""

import csv
import io
import json
import math

import numpy as np
import pytest

from rspde import semigroup
from rspde.cli import _write_csv, cmd_bounds, main
from rspde.config import (
    ConfigError,
    build_grid,
    build_model,
    config_hash,
    dumps_config,
    initial_field,
    parse_config,
    validate_config,
)
from rspde.grid_noise import make_grid
from rspde.heat import heat_apply, spectral_basis
from rspde.verify import check_eps_convergence


def base_config(**overrides):
    cfg = {
        "grid": {"n_space": 31, "dt": 1e-3, "t_final": 0.05},
        "model": {"name": "constant", "params": {"b0": 0.0, "s0": 0.0}},
        "run": {"mode": "reflected", "n_paths": 1, "seed": 7,
                "save_at": [0.05], "h_modes": [0.5]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(dumps_config(cfg))
    return str(path)


def read_output_csv(path):
    """Data rows of an output CSV, skipping the provenance comment line."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestConfigSchema:
    def test_round_trip(self):
        cfg = base_config()
        assert parse_config(dumps_config(cfg)) == cfg

    def test_hash_stable_and_sensitive(self):
        cfg = base_config()
        h1 = config_hash(cfg)
        assert h1 == config_hash(json.loads(dumps_config(cfg)))
        cfg2 = base_config()
        cfg2["run"]["seed"] = 8
        assert config_hash(cfg2) != h1

    def test_rejects_small_n_space_naming_field(self):
        cfg = base_config()
        cfg["grid"]["n_space"] = 2
        with pytest.raises(ConfigError, match="grid.n_space"):
            validate_config(cfg)

    def test_rejects_bad_mode(self):
        cfg = base_config()
        cfg["run"]["mode"] = "magic"
        with pytest.raises(ConfigError, match="run.mode"):
            validate_config(cfg)

    def test_rejects_missing_eps_for_penalized(self):
        cfg = base_config()
        cfg["run"]["mode"] = "penalized"
        with pytest.raises(ConfigError, match="run.eps"):
            validate_config(cfg)

    def test_rejects_unknown_model(self):
        cfg = base_config()
        cfg["model"]["name"] = "fancy"
        with pytest.raises(ConfigError, match="model.name"):
            validate_config(cfg)

    def test_rejects_bad_model_params(self):
        cfg = base_config()
        cfg["model"] = {"name": "sin_modulated", "params": {"nope": 1.0}}
        with pytest.raises(ConfigError, match="model.params"):
            validate_config(cfg)

    def test_rejects_non_mesh_t_final(self):
        cfg = base_config()
        cfg["grid"]["t_final"] = 0.0505
        with pytest.raises(ConfigError, match="grid.t_final"):
            validate_config(cfg)

    @pytest.mark.parametrize("block, key, value", [
        ("check", "ladder", [1.0, 0.0]),
        ("check", "ladder", []),
        ("check", "eps_ladder", []),
        ("check", "eps_ladder", [1e-2, -1e-3]),
        ("check", "eps_big", 0.0),
        ("check", "eps_small", -1.0),
        ("check", "functional", {"kind": "clipped_affine"}),
        ("check", "functional", {"kind": "clipped_affine", "direction_modes": [1.0],
                                 "slope": 2.0}),
        ("run", "eps_ladder", []),
        ("check", "ladder", [1.0, 2.0]),
        ("run", "eps_ladder", [1e-2, math.inf]),
    ])
    def test_rejects_bad_ladder_eps_or_functional_naming_field(self, block, key, value):
        cfg = base_config(check={"name": "continuity"})
        cfg[block][key] = value
        with pytest.raises(ConfigError, match=f"{block}.{key}"):
            validate_config(cfg)

    def test_initial_field_projection_reported(self):
        grid = make_grid(31, 1e-3, 0.05)
        field, clip = initial_field(grid, [0.0, 0.3])  # second mode dips negative
        assert np.all(field >= 0.0)
        assert clip > 0.0


class TestSimulate:
    def test_minimal_heat_config_matches_semigroup(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        first_line = (out / "trajectory_000.csv").read_text().splitlines()[0]
        assert first_line.startswith("# config_hash=") and "seed=7" in first_line
        rows = read_output_csv(out / "trajectory_000.csv")
        assert len(rows) == 31
        u = np.array([float(r["u"]) for r in rows])
        e1 = spectral_basis(31).modes[0]
        expected = heat_apply(0.5 * e1, 0.05)
        assert np.max(np.abs(u - expected)) < 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == 7

    def test_rerun_identical_excluding_timestamp(self, tmp_path):
        cfg = base_config()
        cfg["run"]["mode"] = "reflected"
        cfg["model"] = {"name": "sin_modulated", "params": {}}
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory_000.csv").read_bytes() == (out2 / "trajectory_000.csv").read_bytes()
        assert (out1 / "ledger_000.csv").read_bytes() == (out2 / "ledger_000.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created_at"), m2.pop("created_at")
        assert m1 == m2

    def test_invalid_config_exit_1_names_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grid"]["n_space"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "grid.n_space" in capsys.readouterr().err

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_npz_format(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out), "--format", "both"]) == 0
        data = np.load(out / "trajectory_000.npz")
        assert data["u"].shape == (1, 31)
        assert data["t"][0] == pytest.approx(0.05)


class TestCheckCommand:
    def check_config(self):
        return {
            "grid": {"n_space": 31, "dt": 2.5e-3, "t_final": 0.1},
            "model": {"name": "sin_modulated", "params": {}},
            "run": {"mode": "reflected", "n_paths": 60, "seed": 5},
            "check": {
                "name": "log-harnack",
                "t": 0.1,
                "h1_modes": [0.4],
                "h2_modes": [0.4],
                "functional": {"kind": "exp_neg_pair", "direction_modes": [1.0],
                                "lo": 0.1, "hi": 1.0},
            },
        }

    def test_log_harnack_equal_points_exit_0(self, tmp_path):
        path = write_config(tmp_path, self.check_config())
        out = tmp_path / "out"
        assert main(["check", "log-harnack", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report_log-harnack.json").read_text())
        assert report["verdict"] == "PASS"
        assert report["inputs"]["additive_term"] == 0.0
        assert report["config_hash"]

    def gradient_config(self):
        cfg = self.check_config()
        cfg["check"] = {
            "name": "gradient",
            "t": 0.1,
            "h_modes": [1.5],
            "functional": {"kind": "clipped_affine", "direction_modes": [1.0],
                            "offset": 0.5, "lo": 0.0, "hi": 50.0},
        }
        return cfg

    def test_gradient_fail_injection_exit_2(self, tmp_path):
        path = write_config(tmp_path, self.gradient_config())
        assert main(["check", "gradient", "--config", path,
                     "--debug-scale-m", "1e-6", "--paths", "200"]) == 2

    def test_gradient_one_path_exit_1_names_n_paths(self, tmp_path, capsys):
        # one path has no standard error, so there is no gate to pass
        path = write_config(tmp_path, self.gradient_config())
        assert main(["check", "gradient", "--config", path, "--paths", "1"]) == 1
        assert "n_paths" in capsys.readouterr().err

    def test_comparison_check_exit_0(self, tmp_path):
        cfg = self.check_config()
        cfg["check"] = {"name": "comparison", "h_modes": [0.5],
                        "eps_big": 1e-2, "eps_small": 1e-3}
        cfg["run"]["n_paths"] = 4
        path = write_config(tmp_path, cfg)
        assert main(["check", "comparison", "--config", path]) == 0

    def test_converge_eps_exit_0(self, tmp_path):
        cfg = self.check_config()
        cfg["check"] = {"name": "comparison", "h_modes": [0.5]}
        cfg["run"]["eps_ladder"] = [1e-2, 1e-3, 1e-4]
        cfg["run"]["n_paths"] = 4
        path = write_config(tmp_path, cfg)
        assert main(["converge-eps", "--config", path]) == 0

    def test_converge_eps_report_equals_check(self, tmp_path, capsys):
        cfg = self.check_config()
        cfg["check"] = {"name": "comparison", "h_modes": [0.5]}
        cfg["run"]["eps_ladder"] = [1e-2, 1e-3, 1e-4]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["converge-eps", "--config", path, "--seed", "9", "--paths", "3",
                     "--out", str(out)])
        grid = build_grid(cfg)
        h, _ = initial_field(grid, [0.5])
        expected = check_eps_convergence(h, build_model(cfg), grid, [1e-2, 1e-3, 1e-4], 3, 9)
        expected.config_hash = config_hash(cfg)  # the file as written, no overrides
        assert code == (0 if expected.passed else 2)
        assert capsys.readouterr().out == f"{expected}\n"
        text = (out / "report_converge_eps.json").read_text()
        assert text == json.dumps(expected.to_json(), indent=2, sort_keys=True) + "\n"
        assert json.loads(text)["seed"] == 9 and json.loads(text)["inputs"]["n_paths"] == 3

    def test_zero_ladder_rung_exit_1_names_field(self, tmp_path, capsys):
        cfg = self.check_config()
        cfg["check"] = {"name": "continuity", "h1_modes": [0.5], "h2_modes": [0.6],
                        "ladder": [1.0, 0.0]}
        path = write_config(tmp_path, cfg)
        assert main(["check", "continuity", "--config", path]) == 1
        assert "check.ladder" in capsys.readouterr().err

    def test_functional_without_direction_exit_1_names_field(self, tmp_path, capsys):
        cfg = self.gradient_config()
        del cfg["check"]["functional"]["direction_modes"]
        path = write_config(tmp_path, cfg)
        assert main(["check", "gradient", "--config", path]) == 1
        assert "check.functional" in capsys.readouterr().err

    def test_check_name_in_config_is_not_read(self, tmp_path, capsys):
        # the positional name picks the check; check.name may differ or be absent
        cfg = small_check_config(eps_big=1e-2, eps_small=1e-3)
        outputs = []
        for label, name in (("same", "comparison"), ("other", "gradient"), ("absent", None)):
            cfg["check"].pop("name", None)
            if name is not None:
                cfg["check"]["name"] = name
            path = write_config(tmp_path, cfg, f"{label}.json")
            out = tmp_path / label
            assert main(["check", "comparison", "--config", path, "--out", str(out)]) == 0
            report = json.loads((out / "report_comparison.json").read_text())
            assert report.pop("config_hash") == config_hash(cfg)
            outputs.append((capsys.readouterr().out, report))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("name", ["variance", "lipschitz", "continuity"])
    def test_remaining_check_dispatch(self, tmp_path, name):
        cfg = self.check_config()
        if name == "continuity":
            cfg["check"] = {"name": name, "h1_modes": [0.5], "h2_modes": [0.6], "p": 2.0}
            cfg["run"]["n_paths"] = 6
        else:
            cfg["check"] = {
                "name": name, "t": 0.1, "h_modes": [0.5],
                "functional": {"kind": "clipped_affine", "direction_modes": [1.0],
                                "offset": 0.5, "lo": 0.0, "hi": 50.0},
            }
            cfg["run"]["n_paths"] = 40
        path = write_config(tmp_path, cfg)
        assert main(["check", name, "--config", path]) == 0


def small_check_config(**check):
    """15 nodes, dt 0.01, 4 paths of the sin-modulated model, reflected."""
    return {
        "grid": {"n_space": 15, "dt": 0.01, "t_final": 0.1},
        "model": {"name": "sin_modulated", "params": {}},
        "run": {"mode": "reflected", "n_paths": 4, "seed": 5},
        "check": {"name": "comparison", "h_modes": [0.5], **check},
    }


FUNCTIONAL = {"kind": "clipped_affine", "direction_modes": [1.0], "offset": 0.5, "lo": 0.0, "hi": 50.0}


def _set(block, key, value):
    def edit(cfg):
        cfg[block][key] = value
    return edit


@pytest.mark.parametrize("argv, edit, field", [
    (["simulate", "--paths", "0"], None, "run.n_paths"),
    (["check", "comparison", "--paths", "0"], None, "run.n_paths"),
    (["converge-eps", "--seed", "-1"], None, "run.seed"),
    (["check", "variance"], None, "check.functional"),
    (["check", "gradient"], _set("check", "t", "abc"), "check.t"),
    (["check", "gradient"], _set("check", "t", 0.0123), "check.t"),
    (["check", "continuity"], _set("check", "p", "x"), "check.p"),
    (["simulate"], _set("model", "params", {"penalty": "foo"}), "model.params: penalty"),
    (["check", "comparison"], _set("model", "params", {"penalty": "foo"}), "model.params: penalty"),
    (["check", "variance"], _set("check", "functional", {**FUNCTIONAL, "lo": 0.5, "hi": 0.2}),
     "check.functional"),
    (["simulate"], _set("run", "h_modes", "ab"), "run.h_modes"),
    (["simulate"], _set("run", "save_at", [0.0123]), "run.save_at"),
    (["simulate"], _set("run", "h_modes", ["a"]), "run.h_modes"),
    (["check", "comparison"], _set("check", "h_modes", ["a"]), "check.h_modes"),
    (["check", "continuity"], _set("check", "h1_modes", [0.5, "a"]), "check.h1_modes"),
    (["check", "continuity"], _set("check", "h2_modes", [True]), "check.h2_modes"),
    (["simulate"], lambda cfg: cfg["run"].update(mode="penalized", eps=math.inf), "run.eps"),
    (["check", "comparison"], _set("check", "eps_big", math.inf), "check.eps_big"),
    (["check", "gradient"], _set("check", "t", math.inf), "check.t"),
    (["check", "variance"], _set("check", "functional", {**FUNCTIONAL, "hi": math.inf}),
     "check.functional.hi"),
    (["simulate"], _set("model", "params", {"b_amp": math.inf}), "model.params.b_amp"),
    (["check", "gradient"],
     _set("check", "functional", {**FUNCTIONAL, "direction_modes": [1.0, math.nan]}),
     "check.functional.direction_modes[1]"),
], ids=["simulate-paths-0", "comparison-paths-0", "converge-eps-seed-neg", "no-functional",
        "t-not-a-number", "t-off-mesh", "p-not-a-number", "penalty-simulate",
        "penalty-comparison", "functional-lo-above-hi", "h-modes-string", "save-at-off-mesh",
        "run-h-modes-entry", "check-h-modes-entry", "h1-modes-entry", "h2-modes-bool-entry",
        "run-eps-infinity", "eps-big-infinity", "t-infinity", "functional-hi-infinity",
        "model-param-infinity", "direction-modes-nan"])
def test_bad_input_exit_1_names_field(tmp_path, capsys, argv, edit, field):
    cfg = small_check_config()
    if edit is not None:
        edit(cfg)
    path = write_config(tmp_path, cfg)
    assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["gradient", "variance", "lipschitz", "log-harnack"])
def test_out_of_range_constant_exit_1_before_any_ensemble(tmp_path, capsys, monkeypatch, recwarn,
                                                          name):
    # b_amp = 1e160 is finite, so the config is valid, but L_b^2 overflows:
    # the check used to give a verdict on a nan bound or fail in the quadrature.
    # At b_amp = 1e3 M and zeta(t) are finite but e^zeta(t) is not; only the
    # gradient and variance bounds take it, and they used to raise a bare
    # OverflowError after their ensembles had run.  At b_amp = 180 e^zeta(t)
    # is finite but 2 M e^zeta(t) is not: the gradient check gave a verdict
    cases = [(1e160, "L_b must be in range: L_b^2 = inf")]
    if name in ("gradient", "variance"):
        cases.append((1e3, "L_b and L_sigma must be in range: e^zeta(0.1) = inf"))
    if name == "gradient":
        cases.append((180.0, "the gradient bound factor is inf at L_b = 180.0"))
    passes = []
    monkeypatch.setattr(semigroup, "run_ensemble", lambda *a, **k: passes.append(a))
    for b_amp, message in cases:
        path = write_config(tmp_path, bound_check_config(name, b_amp))
        assert main(["check", name, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and passes == []
        assert message in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("name", ["lipschitz", "log-harnack"])
def test_bounds_without_e_zeta_run_where_it_overflows(tmp_path, capsys, name):
    # these bounds take only e^-zeta, which stays finite at b_amp = 1e3
    path = write_config(tmp_path, bound_check_config(name, 1e3))
    assert main(["check", name, "--config", path]) == 0
    assert capsys.readouterr().out.startswith(f"{name}: PASS")


def bound_check_config(name, b_amp):
    """small_check_config for bound check ``name`` at t = 0.1 with the given b_amp."""
    cfg = small_check_config()
    cfg["model"]["params"] = {"b_amp": b_amp}
    cfg["check"] = {"name": name, "t": 0.1, "h_modes": [0.5], "h1_modes": [0.5],
                    "h2_modes": [0.4], "functional": {**FUNCTIONAL, "lo": 0.1}}
    return cfg


def csv_writer_bytes(header, rows, first_line=""):
    """The reference bytes: csv.writer on %.17g strings."""
    buf = io.StringIO(newline="")
    buf.write(first_line)
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e16, 123456789012345678.0, 1e308, -1e-300,
                  5e-324, -5e-324, math.inf, -math.inf, math.nan, 1 / 3]


class TestCsvBytes:
    """Every CSV the CLI writes is what csv.writer would write: unquoted
    %.17g fields, "," separators and "\\r\\n" line ends."""

    def test_write_csv_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        values = np.concatenate([SPECIAL_FLOATS, rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, 40)])
        columns = {"t": values, "x": values / 2.0, "u": -values}
        path = tmp_path / "t.csv"
        _write_csv(path, columns, "abc", 3, 5)
        data = path.read_bytes()
        assert data == csv_writer_bytes(list(columns), np.column_stack([values, values / 2.0, -values]).tolist(),
                                        "# config_hash=abc seed=3 stream=5\n")
        lines = data.split(b"\r\n")
        assert lines[0] == b"# config_hash=abc seed=3 stream=5\nt,x,u"
        assert lines[2] == b"-0,-0,0" and lines[-1] == b""
        assert b'"' not in data and data.count(b"\r\n") == len(values) + 1

    def test_simulate_trajectory_and_ledger_bytes(self, tmp_path):
        cfg = base_config()
        cfg["model"] = {"name": "sin_modulated", "params": {}}
        cfg["run"]["save_at"] = [0.0, 0.025, 0.05]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        for name, header, n_rows in (("trajectory_000.csv", ["t", "x", "u"], 93),
                                     ("ledger_000.csv", ["x", "mass"], 31)):
            data = (out / name).read_bytes()
            first, rest = data.split(b"\n", 1)
            lines = rest.split(b"\r\n")[1:-1]
            rows = [[float(f) for f in ln.split(b",")] for ln in lines]
            assert len(rows) == n_rows
            assert data == csv_writer_bytes(header, rows, first.decode() + "\n")
        assert any(ln.endswith(b",0") for ln in lines)  # ledger nodes the constraint never touched

    def test_bounds_matches_csv_writer(self):
        buf = io.StringIO(newline="")
        ts = [0.05, 0.25, 1.0, 2.0]
        assert cmd_bounds(1.0, 0.5, 1.1, ts, out=buf) == 0
        header = ["t", "M", "zeta", "int_exp_neg_zeta", "harnack_rhs_unit_dist2"]
        rows = [[float(f) for f in ln.split(",")] for ln in buf.getvalue().split("\r\n")[1:-1]]
        assert [r[0] for r in rows] == ts
        assert buf.getvalue().encode() == csv_writer_bytes(header, rows)

    def test_bounds_error_keeps_earlier_rows(self, capsys):
        assert main(["bounds", "--L-b", "1", "--L-sigma", "0.5", "--kappa1", "1",
                     "--t", "0.1", "0", "0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\r\n") == 2 and captured.out.split("\r\n")[1].startswith("0.10000000000000001,")
        assert "t must be > 0" in captured.err


class TestBoundsCommand:
    def rows(self, args):
        buf = io.StringIO()
        assert cmd_bounds(*args, out=buf) == 0
        return list(csv.DictReader(io.StringIO(buf.getvalue())))

    def test_standard_row_values(self):
        rows = self.rows((1.0, 1.0, 1.0, [1.0]))
        assert float(rows[0]["M"]) == pytest.approx(487.46, abs=0.01)
        assert float(rows[0]["zeta"]) == pytest.approx(6.7811, abs=1e-4)

    def test_pure_diffusion_M(self):
        rows = self.rows((0.0, 1.0, 1.0, [0.5]))
        assert float(rows[0]["M"]) == pytest.approx(9.0 / math.sqrt(math.pi), rel=1e-12)

    def test_harnack_column_strictly_decreasing(self):
        ts = list(np.linspace(0.05, 1.0, 20))
        rows = self.rows((1.0, 1.0, 1.1, ts))
        vals = [float(r["harnack_rhs_unit_dist2"]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_cli_entry(self, capsys):
        assert main(["bounds", "--L-b", "1", "--L-sigma", "1",
                     "--kappa1", "1.1", "--t", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "t,M,zeta" in out

    @pytest.mark.parametrize("flag, value, field", [
        ("--L-b", "-1", "L_b"),
        ("--kappa1", "0", "kappa1"),
        ("--kappa1", "-1.1", "kappa1"),
        ("--L-b", "inf", "L_b"),
        ("--L-sigma", "nan", "L_sigma"),
        ("--L-sigma", "inf", "L_sigma"),
        ("--kappa1", "inf", "kappa1"),
        ("--t", "nan", "t"),
        ("--t", "inf", "t"),
        ("--L-b", "1e160", "L_b"),
        ("--L-sigma", "1e100", "L_sigma"),
        ("--L-sigma", "1e-100", "L_sigma"),
    ], ids=["L_b-negative", "kappa1-zero", "kappa1-negative",
            "L_b-inf", "L_sigma-nan", "L_sigma-inf", "kappa1-inf", "t-nan", "t-inf",
            "L_b-square-overflows", "L_sigma-fourth-overflows", "L_sigma-fourth-underflows"])
    def test_bad_constant_exit_1_names_field(self, capsys, flag, value, field):
        # a nan or inf constant used to spin in the quadrature or print a 0 row
        args = {"--L-b": "1", "--L-sigma": "1", "--kappa1": "1.1", "--t": "0.25", flag: value}
        assert main(["bounds", *[w for pair in args.items() for w in pair]]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\r\n") <= 1  # at most the header, no row
        assert f"{field} must be" in captured.err
