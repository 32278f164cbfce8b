import json
import math
import os

import numpy as np
import pytest

from incsub import ExperimentConfig
from incsub.cli import main as cli_main
from incsub.config import parse_config_text
from incsub.errors import ConfigError
from incsub.harness import _supremum, compare_bounds, run_experiment
from incsub.noise import BiasedGaussianNoise, GaussianNoise

CYCLIC_CFG = """
algorithm = cyclic
problem.fixture = quadratic
problem.m = 2
problem.n = 1
problem.centers = [[0.0], [2.0]]
problem.set = {"kind": "box", "lower": [0.0], "upper": [10.0]}
schedule.kind = powerlaw
schedule.a = 1.0
schedule.p = 1.0
noise.kind = none
horizon = 10000
replications = 1
seed = 0
stride = 1000
"""

MARKOV_CFG = """
algorithm = markov
problem.fixture = quadratic
problem.m = 5
problem.n = 2
problem.spread = 1.0
problem.centers_seed = 42
problem.set = {"kind": "box", "lower": -1.0, "upper": 1.0}
schedule.kind = constant
schedule.alpha = 0.02
noise.kind = gaussian
noise.sigma = 0.35355339059327373
topology.kind = ring
scheme.kind = equal
horizon = 1500
replications = 3
seed = 77
stride = 300
"""

# six sensors fitting three coefficients; the least-squares solution lies
# inside the box, so the certificate is closed-form
REGRESSION_CFG = """
algorithm = markov
problem.fixture = regression
problem.features = [[0.9, -0.4, 1.2], [-1.1, 0.3, 0.5], [0.2, 1.4, -0.7], [1.3, 0.8, 0.1], [-0.5, -1.2, 0.9], [0.6, 0.1, -1.5]]
problem.samples = [[0.3, 0.5, 0.4], [-0.2, 0.1], [0.9, 1.1, 1.0], [0.7], [-0.4, -0.6], [0.2, 0.0, 0.3]]
problem.set = {"kind": "box", "lower": -3.0, "upper": 3.0}
schedule.kind = constant
schedule.alpha = 0.01
noise.kind = gaussian
noise.sigma = 0.2
topology.kind = ring
scheme.kind = min_equal
horizon = 1500
replications = 3
seed = 5
stride = 300
"""

ALLOCATION_CFG = """
algorithm = markov
problem.fixture = allocation
problem.utilities = [{"kind": "log", "weight": 2.0}, {"kind": "sqrt", "floor": 0.0001}, {"kind": "linear", "slope": 1.5}]
problem.grid_resolution = 0.01
schedule.kind = constant
schedule.alpha = 0.01
noise.kind = none
topology.kind = ring
scheme.kind = equal
horizon = 100
replications = 1
seed = 0
stride = 10
"""


def make_config(text, tmp_path, name):
    flat = parse_config_text(text)
    flat["out"] = str(tmp_path / name)
    return ExperimentConfig.from_flat(flat)


class TestRunExperiment:
    def test_zero_horizon_single_rep(self, tmp_path):
        flat = parse_config_text(CYCLIC_CFG)
        flat.update({"horizon": 0, "out": str(tmp_path / "zero")})
        summary, traces = run_experiment(ExperimentConfig.from_flat(flat))
        assert len(traces) == 1
        row = summary["per_seed"][0]
        assert row["final_gap"] == pytest.approx(
            traces[0].f_vals[0] - summary["f_star"])
        assert os.path.exists(tmp_path / "zero" / "trace_0.csv")

    def test_diminishing_run_reaches_small_gap(self, tmp_path):
        config = make_config(CYCLIC_CFG, tmp_path, "dim")
        summary, _ = run_experiment(config)
        assert summary["per_seed"][0]["final_gap"] <= 1e-3

    def test_summary_and_traces_reproducible(self, tmp_path):
        config = make_config(MARKOV_CFG, tmp_path, "rep")
        run_experiment(config)
        first = {name: (tmp_path / "rep" / name).read_bytes()
                 for name in os.listdir(tmp_path / "rep")}
        run_experiment(config)
        for name, blob in first.items():
            assert (tmp_path / "rep" / name).read_bytes() == blob

    def test_parallel_jobs_match_serial(self, tmp_path):
        for name, text in (("quad", MARKOV_CFG), ("regr", REGRESSION_CFG)):
            config = make_config(text, tmp_path, f"{name}_ser")
            s1, t1 = run_experiment(config, jobs=1)
            config2 = make_config(text, tmp_path, f"{name}_par")
            s2, t2 = run_experiment(config2, jobs=3)
            assert [tr.to_csv() for tr in t1] == [tr.to_csv() for tr in t2], name
            s1.pop("config"), s2.pop("config")  # differ only in the out path
            s1.pop("config_hash"), s2.pop("config_hash")
            assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    def test_constant_step_bounds_verified(self, tmp_path):
        config = make_config(MARKOV_CFG, tmp_path, "bnd")
        summary, _ = run_experiment(config)
        assert summary["bounds"], "constant-step markov run must report bounds"
        labels = {b["report"]["params"].get("label") for b in summary["bounds"]}
        assert {"T0", "optimal", "delta"} <= labels
        assert summary["bounds_all_pass"] is True
        for row in summary["bounds"]:
            assert row["verdicts"]["fraction"] == 1.0

    def test_invalid_config_has_field_path(self):
        flat = parse_config_text(MARKOV_CFG)
        flat["scheme.kind"] = "mystery"
        config = ExperimentConfig.from_flat(flat)
        with pytest.raises(Exception, match="mystery"):
            run_experiment(config, write=False)

    def test_uniform_chain_gets_beta_zero_bound(self, tmp_path):
        # complete graph + equal weights build exactly uniform rows, which
        # the bound calculators treat as the instantly mixing chain
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"topology.kind": "complete", "noise.kind": "none",
                     "horizon": 500, "replications": 2,
                     "out": str(tmp_path / "uniform")})
        config = ExperimentConfig.from_flat(flat)
        summary, _ = run_experiment(config)
        t0 = next(b["report"] for b in summary["bounds"]
                  if b["report"]["params"].get("label") == "T0")
        assert t0["params"]["beta"] == 0.0
        assert t0["terms"]["mixing"] == 0.0
        # error-free uniform-chain gap collapses to (alpha/2) C^2
        c_max = t0["params"]["c_max"]
        assert t0["gap"] == pytest.approx(0.5 * 0.02 * c_max**2)

    def test_partial_outputs_written_on_abort(self, tmp_path, monkeypatch):
        import incsub.harness as hz
        from incsub.errors import NonFiniteError
        from incsub.trace import RunTrace
        import numpy as np

        stub = RunTrace(np.array([0]), np.array([1.0]), np.array([1.0]),
                        np.array([np.nan]), None, None, {"seed": 0})

        def exploding(flat, seeds):
            err = NonFiniteError("tick 3: boom; last finite state at tick 2")
            err.partial_traces = [stub]
            raise err

        monkeypatch.setattr(hz, "_run_chunk", exploding)
        flat = parse_config_text(MARKOV_CFG)
        flat["out"] = str(tmp_path / "abort")
        config = ExperimentConfig.from_flat(flat)
        with pytest.raises(NonFiniteError):
            run_experiment(config)
        assert os.path.exists(tmp_path / "abort" / "trace_0.csv")
        assert not os.path.exists(tmp_path / "abort" / "summary.json")

    def test_disconnected_topology_aborts_before_running(self, tmp_path):
        flat = parse_config_text(MARKOV_CFG)
        flat["topology.kind"] = "static"
        flat["topology.edges"] = [[0, 1], [2, 3]]
        flat["out"] = str(tmp_path / "bad")
        config = ExperimentConfig.from_flat(flat)
        from incsub.errors import TopologyError
        with pytest.raises(TopologyError):
            run_experiment(config)
        assert not os.path.exists(tmp_path / "bad" / "summary.json")


class TestCompare:
    def test_grid_table(self, tmp_path):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({
            "out": str(tmp_path / "cmp"),
            "horizon": 800,
            "replications": 2,
            "compare.alphas": [0.05, 0.02],
            "compare.Ts": [5],
        })
        config = ExperimentConfig.from_flat(flat)
        rows = compare_bounds(config)
        assert os.path.exists(tmp_path / "cmp" / "bounds.csv")
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(row["alpha"], {})[row["T_label"]] = row
        for alpha, cells in by_alpha.items():
            optimal = cells["optimal"]["analytic_gap"]
            for label, cell in cells.items():
                assert optimal <= cell["analytic_gap"] + 1e-12
                # empirical column is shared across T cells of the row
                assert cell["empirical_tail_gap_median"] == \
                    cells["T0"]["empirical_tail_gap_median"]
                # simulations land inside the analytic gap (plus 2% slack)
                assert cell["empirical_inf_gap_max"] <= \
                    cell["analytic_gap"] * 1.02

    def test_compare_requires_markov(self, tmp_path):
        config = make_config(CYCLIC_CFG, tmp_path, "x")
        with pytest.raises(ConfigError):
            compare_bounds(config)


class TestCli:
    def test_run_validate_bounds_verbs(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        flat = parse_config_text(MARKOV_CFG)
        flat["horizon"] = 400
        flat["replications"] = 2
        lines = "\n".join(f"{k} = {json.dumps(v)}" for k, v in flat.items())
        cfg_path.write_text(lines + "\n")

        out = tmp_path / "cli_out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--assert-bounds"]) == 0
        assert (out / "summary.json").exists()
        assert json.loads(capsys.readouterr().out)["bounds_all_pass"] is True
        assert cli_main(["validate", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload

    def test_cli_rejects_bad_config(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("algorithm = nonsense\nhorizon = 1\n")
        assert cli_main(["run", "--config", str(cfg_path)]) == 2

    def test_cli_compare_writes_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cmp.cfg"
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"horizon": 400, "replications": 2,
                     "compare.alphas": [0.05, 0.01],
                     "out": str(tmp_path / "cmp_out")})
        lines = "\n".join(f"{k} = {json.dumps(v)}" for k, v in flat.items())
        cfg_path.write_text(lines + "\n")
        assert cli_main(["compare", "--config", str(cfg_path)]) == 0
        table = (tmp_path / "cmp_out" / "bounds.csv").read_text().splitlines()
        assert table[0].startswith("alpha,T_label,T,analytic_gap")
        assert len(table) > 4

    def test_cli_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        flat = parse_config_text(MARKOV_CFG)
        flat["horizon"] = 200
        flat["replications"] = 1
        lines = "\n".join(f"{k} = {json.dumps(v)}" for k, v in flat.items())
        cfg_path.write_text(lines + "\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli_main(["run", "--config", str(cfg_path), "--out", str(out_a),
                  "--seed", "1"])
        cli_main(["run", "--config", str(cfg_path), "--out", str(out_b),
                  "--seed", "2"])
        assert (out_a / "trace_0.csv").read_text() != \
            (out_b / "trace_0.csv").read_text()


def write_config(path, flat):
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in flat.items()))
    return str(path)


class TestFailFast:
    """Bad builder inputs stop with exit code 2 before any tick runs."""

    @pytest.mark.parametrize("verb", ["run", "validate", "bounds"])
    def test_missing_constant_step(self, tmp_path, capsys, verb):
        flat = parse_config_text(MARKOV_CFG)
        del flat["schedule.alpha"]
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert "schedule.alpha: missing required entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate", "bounds"])
    def test_negative_noise_level(self, tmp_path, capsys, verb):
        flat = parse_config_text(MARKOV_CFG)
        flat["noise.sigma"] = -1
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert "noise.sigma: must be >= 0.0, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, value, field", [
        ("schedule.alpha", "fast", "schedule.alpha"),
        ("schedule.alpha", 0.0, "schedule.alpha"),
        ("noise.kind", "bounded_uniform", "noise.radius"),
        ("problem.set", {"kind": "ball", "center": 0.0}, "problem.set.radius"),
        ("problem.set", {"kind": "ball", "center": 0.0, "radius": -2.0},
         "problem.set"),
    ])
    def test_other_bad_entries_name_their_field(self, tmp_path, capsys, entry,
                                                value, field):
        flat = parse_config_text(MARKOV_CFG)
        flat[entry] = value
        cfg = write_config(tmp_path / "exp.cfg", flat)
        assert cli_main(["validate", "--config", cfg]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err


    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize("entry, value, field", [
        ("problem.spread", "wide", "problem.spread"),
        ("problem.m", "five", "problem.m"),
        ("problem.m", 2.5, "problem.m"),
        ("problem.centers_seed", "lucky", "problem.centers_seed"),
        ("problem.grid_resolution", "fine", "problem.grid_resolution"),
        ("problem.grid_resolution", 0.0, "problem.grid_resolution"),
        ("problem.sprad", 2.0, "problem.sprad"),
        ("problem.set", {"kind": "box", "lower": "low", "upper": 1.0},
         "problem.set.lower"),
    ])
    def test_bad_problem_entries(self, tmp_path, capsys, verb, entry, value,
                                 field):
        flat = parse_config_text(MARKOV_CFG)
        flat[entry] = value
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize("index, key, value, field", [
        (0, "weight", "heavy", "problem.utilities[0].weight"),
        (1, "floor", "low", "problem.utilities[1].floor"),
        (1, "floor", -1.0, "problem.utilities[1]"),
        (2, "slope", "steep", "problem.utilities[2].slope"),
        (0, "wieght", 2.0, "problem.utilities[0].wieght"),
    ])
    def test_bad_utility_entries(self, tmp_path, capsys, verb, index, key,
                                 value, field):
        flat = parse_config_text(ALLOCATION_CFG)
        flat["problem.utilities"][index][key] = value
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize("entry, value, field", [
        ("schedule.alhpa", 0.5, "schedule.alhpa"),
        ("noise.sigam", 9, "noise.sigam"),
        ("topology.windw", 3, "topology.windw"),
        ("scheme.wieght", 0.5, "scheme.wieght"),
        ("verify.slack", 0.1, "verify.slack"),
        ("strid", 7, "strid"),
        ("tail_fraction", "abc", "tail_fraction"),
        ("tail_fraction", 0.0, "tail_fraction"),
        ("s0", 9, "s0"),
        ("s0", 5, "s0"),
        ("s0", "first", "s0"),
        ("x0", [0.1, 0.2, 0.3], "x0"),
        ("x0", "origin", "x0"),
        ("topology.window", "wide", "topology.window"),
        ("topology.graph", "star", "topology.graph"),
    ])
    def test_bad_run_entries(self, tmp_path, capsys, verb, entry, value, field):
        flat = parse_config_text(MARKOV_CFG)
        flat[entry] = value
        if entry.startswith("topology.") and entry != "topology.windw":
            flat["topology.kind"] = "random_edges"
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entries", [{"s0": 4}, {"x0": [0.25, -0.5]},
                                         {"s0": "uniform", "x0": "auto"}])
    def test_good_start_entries_validate(self, tmp_path, capsys, entries):
        flat = parse_config_text(MARKOV_CFG)
        flat.update(entries)
        cfg = write_config(tmp_path / "exp.cfg", flat)
        assert cli_main(["validate", "--config", cfg]) == 0

    def test_allocation_config_validates(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", parse_config_text(ALLOCATION_CFG))
        assert cli_main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("ok: allocation_m3")


class TestSupremum:
    def test_non_monotone_callable_sigma(self):
        # peaks near k = 16 and is low at k = 1, 50 and 100
        noise = GaussianNoise(lambda k: 0.2 + 0.1 * math.sin(k / 10.0))
        horizon = 100
        every_k = [noise.rms_bound(k, 2) for k in range(1, horizon + 1)]
        sup = _supremum(lambda k: noise.rms_bound(k, 2), horizon)
        assert sup == max(every_k)
        assert sup > max(noise.rms_bound(k, 2) for k in (1, 50, 100))

    def test_non_monotone_callable_bias(self):
        noise = BiasedGaussianNoise(lambda k: 0.5 if k == 7 else 0.1, 0.2)
        assert _supremum(noise.mean_bound, 100) == 0.5
        assert _supremum(lambda k: noise.rms_bound(k, 3), 100) == \
            noise.rms_bound(7, 3)

    def test_callable_over_several_chunks(self):
        # the peak sits in the last partial chunk of iterations
        horizon = 3 * (1 << 10) + 5
        noise = BiasedGaussianNoise(lambda k: 1.0 if k == horizon - 2 else 0.0, 0.0)
        assert _supremum(noise.mean_bound, horizon) == 1.0
        assert _supremum(noise.mean_bound, horizon - 3) == 0.0

    def test_constant_sequences_and_empty_horizon(self):
        noise = BiasedGaussianNoise(0.1, 0.2)
        assert _supremum(noise.mean_bound, 10**6) == 0.1
        assert _supremum(lambda k: noise.rms_bound(k, 2), 0) == \
            noise.rms_bound(1, 2)
        assert isinstance(_supremum(GaussianNoise(0.3).mean_bound, 5), float)
        assert np.isscalar(GaussianNoise(0.3).rms_bound(np.arange(1, 4), 2))
