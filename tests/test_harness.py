import json
import math
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

import incsub.harness as hz
from incsub import (EqualProbability, ExperimentConfig, RateConstants,
                    build_transition, rate_constants, topology_eta)
from incsub.cli import main as cli_main
from incsub.config import build_problem, parse_config_text
from incsub.errors import ConfigError, NonFiniteError, SchemeViolationError
from incsub.harness import (_supremum, bound_inputs, bound_reports, build_run,
                            compare_bounds, run_experiment, validate_only)
from incsub.noise import BiasedGaussianNoise, GaussianNoise
from helpers import trace_state

ROOT = Path(__file__).resolve().parent.parent

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

    @pytest.mark.parametrize("topology", [
        {"topology.kind": "ring"},
        {"topology.kind": "periodic", "topology.window": 2,
         "topology.phases": [[[0, 1], [2, 3], [4, 0]], [[1, 2], [3, 4]]]},
    ], ids=["ring", "periodic"])
    def test_pickled_run_gives_the_serial_traces(self, tmp_path, topology):
        # a --jobs worker receives the Run pickled, its chain's lookup table
        # with it
        flat = parse_config_text(MARKOV_CFG)
        flat.update(topology, out=str(tmp_path / "out"))
        config = ExperimentConfig.from_flat(flat)
        run = build_run(config)
        assert run.order._table is not None
        seeds = [config.seed + r for r in range(config.replications)]
        serial = [trace_state(tr) for tr in hz._run_seeds(run, seeds)]
        clone = pickle.loads(pickle.dumps(run))
        assert [trace_state(tr) for tr in hz._run_seeds(clone, seeds)] == serial
        _, traces = run_experiment(config, jobs=2, write=False)
        assert [trace_state(tr) for tr in traces] == serial

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
        del flat["noise.sigma"]
        config = ExperimentConfig.from_flat(flat)
        summary, _ = run_experiment(config)
        t0 = next(b["report"] for b in summary["bounds"]
                  if b["report"]["params"].get("label") == "T0")
        assert t0["params"]["beta"] == 0.0
        assert t0["terms"]["mixing"] == 0.0
        # error-free uniform-chain gap collapses to (alpha/2) C^2
        c_max = t0["params"]["c_max"]
        assert t0["gap"] == pytest.approx(0.5 * 0.02 * c_max**2)

    @pytest.mark.parametrize("scheme, uniform", [
        ({"scheme.kind": "equal"}, True),
        ({"scheme.kind": "min_equal"}, True),
        ({"scheme.kind": "weighted_mh", "scheme.weight": 0.8}, True),
        ({"scheme.kind": "weighted_mh", "scheme.weight": 0.8000001}, False),
    ], ids=["equal", "min_equal", "weight_0.8", "weight_0.8000001"])
    def test_only_a_uniform_chain_skips_the_mixing_term(self, scheme, uniform):
        # on the complete graph with m = 5, weight 0.8000001 puts every
        # entry within 1.0e-7 of 1/m: inside numpy's default relative
        # tolerance of 1e-5, outside the absolute 1e-12 of a uniform chain
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"topology.kind": "complete", **scheme})
        run = build_run(ExperimentConfig.from_flat(flat))
        deviation = np.abs(run.order.matrices[0] - 0.2).max()
        assert (deviation <= 1e-12) == uniform
        expected = (RateConstants.uniform() if uniform else rate_constants(
            topology_eta(run.order.scheme, run.order.topology), 5, 1))
        assert bound_inputs(run).rate == expected

    def test_partial_outputs_written_on_abort(self, tmp_path, monkeypatch):
        import incsub.harness as hz
        from incsub.errors import NonFiniteError
        from incsub.trace import RunTrace
        import numpy as np

        stub = RunTrace(np.array([0]), np.array([1.0]), np.array([1.0]),
                        np.array([np.nan]), None, None, seed=0)

        def exploding(run, seeds):
            err = NonFiniteError("tick 3: boom; last finite state at tick 2")
            err.partial_traces = [stub]
            raise err

        monkeypatch.setattr(hz, "_run_seeds", exploding)
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

    def test_parallel_jobs_match_serial(self, tmp_path):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"horizon": 300, "replications": 3,
                     "compare.alphas": [0.05, 0.02], "compare.Ts": [4]})
        rows = [compare_bounds(ExperimentConfig.from_flat(
                    dict(flat, out=str(tmp_path / f"jobs{jobs}"))), jobs=jobs)
                for jobs in (1, 2)]
        assert rows[0] == rows[1]
        assert (tmp_path / "jobs1" / "bounds.csv").read_bytes() == \
            (tmp_path / "jobs2" / "bounds.csv").read_bytes()

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

    @pytest.mark.parametrize("ts", [[3, -1], [1.5], ["x"], 5],
                             ids=["negative", "fraction", "string", "not_a_list"])
    def test_cli_compare_rejects_bad_window_before_simulating(self, tmp_path, capsys,
                                                             monkeypatch, ts):
        import incsub.harness as hz

        def no_simulation(*args):
            raise AssertionError("simulated with a bad compare.Ts")

        monkeypatch.setattr(hz, "_run_all", no_simulation)
        cfg_path = tmp_path / "cmp.cfg"
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"horizon": 50, "replications": 1,
                     "compare.alphas": [0.05, 0.01],
                     "compare.Ts": ts,
                     "out": str(tmp_path / "cmp_out")})
        write_config(cfg_path, flat)
        assert cli_main(["compare", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: compare.Ts: ")
        assert not (tmp_path / "cmp_out").exists()

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

    def test_readme_example_config_validates(self, capsys):
        path = ROOT / "examples" / "markov_ring_m5.cfg"
        text = path.read_text()
        assert f"```\n{text}```\n" in (ROOT / "README.md").read_text()
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == \
            "ok: quadratic_m5_n2 validates (markov, horizon 1000000)\n"


class TestValidateRandomEdges:
    """``validate`` builds and validates the first min(max(horizon, 1),
    4 window) ticks of a chain without a period, as one stack."""

    def config(self, **entries):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"topology.kind": "random_edges", "topology.window": 2,
                     "topology.seed": 3, **entries})
        return ExperimentConfig.from_flat(flat)

    @pytest.mark.parametrize("horizon, ticks", [(0, 1), (3, 3), (1500, 8)])
    def test_builds_the_first_ticks_in_one_call(self, monkeypatch, horizon, ticks):
        calls = []

        def recording(scheme, adj):
            calls.append(np.array(adj))
            return build_transition(scheme, adj)

        monkeypatch.setattr(hz, "build_transition", recording)
        config = self.config(horizon=horizon)
        validate_only(config)
        assert len(calls) == 1
        topology = build_run(config).order.topology
        assert np.array_equal(calls[0], topology.adjacencies(0, ticks))

    def test_first_failing_tick_gives_its_own_message(self, monkeypatch):
        class BreaksOnChord(EqualProbability):
            # takes 0.01 deg_0 off agent 0's stay-put mass on the ticks
            # whose graph holds the chord (0, 2); an exact re-check of some
            # rows evaluates the rule itself
            def matrix(self, adj, deg, one=1.0, rows=None, cols=None):
                p = super().matrix(adj, deg, one, rows, cols)
                if rows is None:
                    p[..., 0, 0] -= np.where(adj[..., 0, 2], 0.01 * deg[..., 0], 0.0)
                return p

        monkeypatch.setattr(hz, "build_scheme", lambda spec: BreaksOnChord())
        config = self.config()
        topology = build_run(config).order.topology
        failures = []  # (tick, message) of every failing tick, built alone
        for k in range(8):
            try:
                build_transition(BreaksOnChord(), topology.adjacency(k))
            except SchemeViolationError as exc:
                failures.append((k, str(exc)))
        # the seed puts the first failure after tick 0, and a later
        # failing tick says something else
        assert failures[0][0] > 0
        assert any(message != failures[0][1] for _, message in failures)
        with pytest.raises(SchemeViolationError) as exc:
            validate_only(config)
        assert str(exc.value) == failures[0][1]


def write_config(path, flat):
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in flat.items()))
    return str(path)


class TestFailFast:
    """Bad builder inputs stop with exit code 2 before any tick runs."""

    # the other entries a case of test_bad_run_entries needs, by (entry,
    # field): the kind that reads the entry, and the other half of an alias
    # pair
    ALONGSIDE = {
        ("topology.window", "topology.window"): {"topology.kind": "random_edges"},
        ("topology.graph", "topology.graph"): {"topology.kind": "random_edges"},
        ("topology.phases", "topology.phases[1]"): {"topology.kind": "periodic"},
        ("topology.phases", "topology.phases"): {"topology.kind": "periodic"},
        ("topology.edges", "topology.edges"): {"topology.kind": "static"},
        ("topology.graph", "topology.edges"): {
            "topology.kind": "static",
            "topology.edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
        ("topology.base", "topology.base"): {"topology.kind": "random_edges",
                                             "topology.graph": "ring"},
        ("scheme.weights", "scheme.weights"): {"scheme.kind": "weighted_mh",
                                               "scheme.weight": 0.5},
    }

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
        ("problem.set", {"kind": "box", "lower": -math.inf, "upper": 1.0},
         "problem.set.lower"),
        ("problem.centers", [[math.inf, 0.0]] * 5, "problem.centers"),
    ])
    def test_other_bad_entries_name_their_field(self, tmp_path, capsys, entry,
                                                value, field):
        flat = parse_config_text(MARKOV_CFG)
        flat[entry] = value
        if entry == "noise.kind":  # sigma is not an entry of the new kind
            del flat["noise.sigma"]
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
        (2, "cap", 1e400, "problem.utilities[2].cap"),
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
        # entries a kind other than the configured one uses
        ("noise.bias", 0.5, "noise.bias"),
        ("schedule.p", 0.5, "schedule.p"),
        ("topology.inclusion_prob", 0.5, "topology.inclusion_prob"),
        ("scheme.weight", 0.5, "scheme.weight"),
        ("verify.slack_rel", "abc", "verify.slack_rel"),
        ("verify.slack_rel", -5, "verify.slack_rel"),
        ("verify.slack_abs", -1.0, "verify.slack_abs"),
        ("verify.min_pass_fraction", 2, "verify.min_pass_fraction"),
        ("verify.min_pass_fraction", -0.5, "verify.min_pass_fraction"),
        # 1e400 parses to infinity
        ("verify.slack_rel", 1e400, "verify.slack_rel"),
        ("noise.sigma", 1e400, "noise.sigma"),
        ("problem.spread", 1e400, "problem.spread"),
        # a JSON boolean is not a number
        ("replications", True, "replications"),
        ("stride", True, "stride"),
        ("noise.sigma", False, "noise.sigma"),
        ("verify.slack_rel", True, "verify.slack_rel"),
        ("problem.set", {"kind": "box", "lower": [True, 0], "upper": [1.0, 1.0]},
         "problem.set.lower"),
        # edge lists hold [i, j] pairs of integral agent indices, phase lists
        # are nonempty, and each entry of an alias pair excludes the other
        ("topology.phases", ["ring", "bogus"], "topology.phases[1]"),
        ("topology.phases", [], "topology.phases"),
        ("topology.edges", [[0, 1.5], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.edges"),
        ("topology.edges", [[0, True], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.edges"),
        ("topology.graph", "ring", "topology.edges"),
        ("topology.base", "complete", "topology.base"),
        ("scheme.weights", 0.3, "scheme.weights"),
    ])
    def test_bad_run_entries(self, tmp_path, capsys, verb, entry, value, field):
        flat = parse_config_text(MARKOV_CFG)
        flat[entry] = value
        flat.update(self.ALONGSIDE.get((entry, field), {}))
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_problem_section_must_be_an_object(self, tmp_path, capsys, verb):
        flat = parse_config_text(MARKOV_CFG)
        flat["problem"] = 3  # after the problem.* entries, so it replaces them
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: problem: expected an object, got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("entries", [{"s0": 4}, {"x0": [0.25, -0.5]},
                                         {"s0": "uniform", "x0": "auto"}])
    def test_good_start_entries_validate(self, tmp_path, capsys, entries):
        flat = parse_config_text(MARKOV_CFG)
        flat.update(entries)
        cfg = write_config(tmp_path / "exp.cfg", flat)
        assert cli_main(["validate", "--config", cfg]) == 0

    @pytest.mark.parametrize("verb", ["run", "validate", "bounds"])
    def test_set_too_large_for_the_bounds(self, tmp_path, capsys, verb):
        # the C_i and the diameter of a +-1e200 box overflow to inf
        flat = parse_config_text(MARKOV_CFG)
        flat["problem.set"] = {"kind": "box", "lower": -1e200, "upper": 1e200}
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: problem.set: the diameter (inf)" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate", "bounds"])
    @pytest.mark.parametrize("algorithm", ["markov", "cyclic"])
    def test_bound_terms_overflow(self, tmp_path, capsys, algorithm, verb):
        # the C_i and the diameter of a +-6.5e153 box are finite, but the
        # bounds' c0 = b C_sum diameter (markov) and (C_sum + m nu)^2
        # (cyclic) overflow
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"algorithm": algorithm, "problem.n": 1,
                     "problem.set": {"kind": "box", "lower": -6.5e153,
                                     "upper": 6.5e153},
                     "schedule.alpha": 0.01, "noise.kind": "none"})
        del flat["noise.sigma"]
        if algorithm == "cyclic":
            del flat["topology.kind"], flat["scheme.kind"]
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: problem.set: the set is too large for the bounds" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate", "bounds", "compare"])
    @pytest.mark.parametrize("alpha, message", [
        (math.inf, "constant step-size must be positive and finite, got inf"),
        (1e308, "the bounds overflow at this step size: "
                "markov_constant_step gap = inf"),
    ], ids=["infinite", "overflowing"])
    def test_bad_step_names_the_step_before_any_tick(self, tmp_path, capsys,
                                                     monkeypatch, verb, alpha,
                                                     message):
        # the set's own bound terms are finite here, so an overflowing gap
        # is the step's doing; compare builds every alpha's gaps before the
        # first alpha's simulation
        import incsub.harness as hz

        def no_simulation(*args):
            raise AssertionError("simulated with a bad step size")

        monkeypatch.setattr(hz, "_run_all", no_simulation)
        flat = parse_config_text(MARKOV_CFG)
        if verb == "compare":
            flat["compare.alphas"], field = [0.05, alpha], "compare.alphas"
        else:
            flat["schedule.alpha"], field = alpha, "schedule.alpha"
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate", "bounds"])
    def test_overflowing_cyclic_step_names_the_step(self, tmp_path, capsys, verb):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"algorithm": "cyclic", "schedule.alpha": 1e308})
        del flat["topology.kind"], flat["scheme.kind"]
        cfg = write_config(tmp_path / "exp.cfg", flat)
        assert cli_main([verb, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: schedule.alpha: the bounds overflow at this step "
            "size: cyclic_constant_step gap = inf\n")

    @pytest.mark.parametrize("topology", ["ring", "random_edges"])
    def test_weight_count_differs_from_agents(self, tmp_path, capsys, topology):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"topology.kind": topology, "scheme.kind": "weighted_mh",
                     "scheme.weights": [0.5] * 4})
        cfg = write_config(tmp_path / "exp.cfg", flat)
        assert cli_main(["bounds", "--config", cfg]) == 2
        assert "one weight per agent (5)" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize("lower", [-1.0, -2.0])
    def test_log_utility_range_reaches_minus_one(self, tmp_path, capsys, verb,
                                                 lower):
        # log(1 + t) is undefined at t = -1 and below; the utility's slope
        # bound rejects the range before anything evaluates it there
        flat = parse_config_text(ALLOCATION_CFG)
        flat["problem.set"] = {"kind": "box", "lower": lower, "upper": 1.0}
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: problem: log utility needs a coordinate range "
            f"above -1, got lower end {lower!r}\n")
        assert not out.exists()

    def test_allocation_config_validates(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", parse_config_text(ALLOCATION_CFG))
        assert cli_main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("ok: allocation_m3")


# Gaussian noise large enough that f overflows at the box's edge: with jobs=2
# the first chunk aborts at tick 9, the second (replications 4-7) at tick 5.
OVERFLOW_CFG = """
algorithm = markov
problem.fixture = quadratic
problem.m = 5
problem.set = {"kind": "box", "lower": -6.5e153, "upper": 6.5e153}
schedule.kind = powerlaw
schedule.a = 1.0
schedule.p = 0.1
noise.kind = gaussian
noise.sigma = 2e153
topology.kind = ring
scheme.kind = equal
horizon = 200
replications = 8
seed = 7
stride = 1
"""


def test_jobs_abort_matches_serial(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.cfg", parse_config_text(OVERFLOW_CFG))
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli_main(["run", "--config", cfg, "--out", str(out),
                         "--jobs", jobs]) == 3
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().err, files))
    (serial_err, serial_files), (jobs_err, jobs_files) = outputs
    assert serial_err == ("runtime abort: tick 5: non-finite objective in "
                          "replication 7 (seed 14); last finite state at tick 4\n")
    assert jobs_err == serial_err
    assert list(serial_files) == [f"trace_{r}.csv" for r in range(8)]
    assert jobs_files == serial_files


def test_jobs_abort_is_the_serial_abort(monkeypatch):
    # the in-memory error too: same message, same partial traces in every
    # column and field; the serial replay reuses the built run
    builds = []
    monkeypatch.setattr(hz, "build_problem",
                        lambda spec: builds.append(spec) or build_problem(spec))
    config = ExperimentConfig.from_flat(parse_config_text(OVERFLOW_CFG))
    errors = []
    for jobs in (1, 2):
        with pytest.raises(NonFiniteError) as info:
            run_experiment(config, jobs=jobs, write=False)
        errors.append(info.value)
    assert len(builds) == 2  # one per run_experiment call
    serial, jobs = errors
    assert str(jobs) == str(serial)
    assert len(serial.partial_traces) == 8
    assert ([trace_state(tr) for tr in jobs.partial_traces]
            == [trace_state(tr) for tr in serial.partial_traces])


class TestSingleBuild:
    """Each verb builds the problem and the topology once and validates the
    topology once; ``--jobs`` workers receive the built run and rebuild
    nothing."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import incsub.harness as hz
        import incsub.markov as mk

        parent = os.getpid()
        counts = {"build_problem": 0, "build_topology": 0, "_connected": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                assert os.getpid() == parent, f"a worker called {name}"
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("build_problem", "build_topology"):
            monkeypatch.setattr(hz, name, counting(name, getattr(hz, name)))
        # a topology checks its connectivity when it is built
        monkeypatch.setattr(mk, "_connected", counting("_connected", mk._connected))
        return counts

    @pytest.mark.parametrize("verb", [
        lambda config: run_experiment(config, write=False),
        lambda config: run_experiment(config, jobs=2, write=False),
        validate_only,
        lambda config: bound_reports(build_run(config)),
        lambda config: compare_bounds(config, write=False),
    ], ids=["run", "run_jobs2", "validate", "bounds", "compare"])
    def test_verb_builds_once(self, counts, verb):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"horizon": 200, "replications": 2,
                     "compare.alphas": [0.05, 0.02]})
        verb(ExperimentConfig.from_flat(flat))
        assert counts == {"build_problem": 1, "build_topology": 1, "_connected": 1}


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
