import json
import math
import os
import pickle
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import incsub.config as cf
import incsub.harness as hz
from incsub import (EqualProbability, ExperimentConfig, RateConstants,
                    build_transition, rate_constants, topology_eta)
from incsub.cli import main as cli_main
from incsub.config import build_problem, parse_config_text
from incsub.errors import ConfigError, NonFiniteError, SchemeViolationError
from incsub.harness import (_supremum, bound_inputs, bound_reports,
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


# fixtures whose f* has no closed form: eight sensors fitting five
# coefficients whose least-squares solution lies outside the box, and ten
# agents with unequal log utilities; each f* is bracketed
WIDE_REGRESSION_PROBLEM = {
    "problem.fixture": "regression",
    "problem.features": [[0.0, 1.4, 1.2, -0.5, -0.3], [-0.5, 0.6, -0.1, 0.7, -1.8],
                         [1.6, -0.1, 0.7, -0.1, -0.4], [0.5, 0.8, -0.2, -0.2, 0.7],
                         [-0.9, -1.5, 0.4, -0.7, -1.9], [-0.8, -0.5, -1.2, -1.5, 0.0],
                         [0.9, -0.2, -0.7, 0.4, 0.7], [-0.3, 0.5, 1.0, -0.2, -0.8]],
    "problem.samples": [[0.37], [2.71], [3.06], [-0.27], [0.07], [-2.34], [0.45],
                        [0.51]],
    "problem.set": {"kind": "box", "lower": -1.0, "upper": 1.0},
}
MANY_AGENT_ALLOCATION_PROBLEM = {
    "problem.fixture": "allocation",
    "problem.utilities": [{"kind": "log", "weight": 0.5 + 0.25 * i}
                          for i in range(10)],
}


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
        # the third case's seeds straddle 2^63, past int64
        for name, text in (("quad", MARKOV_CFG), ("regr", REGRESSION_CFG),
                           ("straddle", MARKOV_CFG.replace("seed = 77",
                                                           f"seed = {2**63 - 1}"))):
            config = make_config(text, tmp_path, f"{name}_ser")
            s1, t1 = run_experiment(config, jobs=1)
            config2 = make_config(text, tmp_path, f"{name}_par")
            s2, t2 = run_experiment(config2, jobs=3)
            assert [tr.to_csv() for tr in t1] == [tr.to_csv() for tr in t2], name
            s1.pop("config"), s2.pop("config")  # differ only in the out path
            s1.pop("config_hash"), s2.pop("config_hash")
            assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    def test_pool_is_sized_by_its_chunks(self, monkeypatch):
        sizes = []

        class InlinePool:  # records its size, runs each chunk at submit
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # _run_all imports the pool only when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        flat = parse_config_text(MARKOV_CFG)
        flat["horizon"] = 200
        traces = hz._run_all(ExperimentConfig.from_flat(flat), [5, 6, 7, 8], 64)
        assert sizes == [4]
        assert [tr.seed for tr in traces] == [5, 6, 7, 8]

    def test_seeds_from_2_63_run_distinct_replications(self):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"seed": 2**63, "replications": 2, "horizon": 200})
        _, traces = run_experiment(ExperimentConfig.from_flat(flat), write=False)
        assert not np.array_equal(traces[0].f_vals, traces[1].f_vals)

    @pytest.mark.parametrize("topology", [
        {"topology.kind": "ring"},
        {"topology.kind": "periodic", "topology.window": 2,
         "topology.phases": [[[0, 1], [2, 3], [4, 0]], [[1, 2], [3, 4]]]},
    ], ids=["ring", "periodic"])
    def test_pickled_run_gives_the_serial_traces(self, tmp_path, topology):
        # a --jobs worker receives the config pickled, its chain's lookup
        # table with it
        flat = parse_config_text(MARKOV_CFG)
        flat.update(topology, out=str(tmp_path / "out"))
        config = ExperimentConfig.from_flat(flat)
        assert config.order._table is not None
        seeds = [config.seed + r for r in range(config.replications)]
        serial = [trace_state(tr) for tr in hz._run_seeds(config, seeds)]
        clone = pickle.loads(pickle.dumps(config))
        assert [trace_state(tr) for tr in hz._run_seeds(clone, seeds)] == serial
        _, traces = run_experiment(config, jobs=2, write=False)
        assert [trace_state(tr) for tr in traces] == serial

    def test_ring_is_the_one_phase_periodic_ring(self, tmp_path):
        outputs = []
        for name, topology in (("ring", {}), ("periodic", {
                "topology.kind": "periodic", "topology.phases": ["ring"]})):
            flat = parse_config_text(MARKOV_CFG)
            flat.update(topology, out=str(tmp_path / name))
            run_experiment(ExperimentConfig.from_flat(flat))
            outputs.append([(tmp_path / name / f"trace_{r}.csv").read_bytes()
                            for r in range(3)])
        assert outputs[0] == outputs[1]

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
        with pytest.raises(ConfigError, match="mystery") as info:
            ExperimentConfig.from_flat(flat)
        assert info.value.field == "scheme.kind"

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
        config = ExperimentConfig.from_flat(flat)
        deviation = np.abs(config.order.matrices[0] - 0.2).max()
        assert (deviation <= 1e-12) == uniform
        expected = (RateConstants.uniform() if uniform else rate_constants(
            topology_eta(config.order.scheme, config.order.topology), 5, 1))
        assert bound_inputs(config).rate == expected

    def test_partial_outputs_written_on_abort(self, tmp_path, monkeypatch):
        import incsub.harness as hz
        from incsub.errors import NonFiniteError
        from incsub.trace import RunTrace
        import numpy as np

        stub = RunTrace(np.array([0]), np.array([1.0]), np.array([1.0]),
                        np.array([np.nan]), None, None, seed=0)

        def exploding(config, seeds):
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
        flat["topology.kind"] = "periodic"
        flat["topology.phases"] = [[[0, 1], [2, 3]]]
        flat["out"] = str(tmp_path / "bad")
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_flat(flat)
        assert str(exc.value) == ("topology.phases: union of phases over window "
                                  "starting at 0 is not connected")
        assert not os.path.exists(tmp_path / "bad")


@pytest.mark.parametrize("problem, m", [(WIDE_REGRESSION_PROBLEM, 8),
                                        (MANY_AGENT_ALLOCATION_PROBLEM, 10)],
                         ids=["regression_n5", "allocation_m10"])
def test_bracketed_fixtures_get_per_seed_verdicts(tmp_path, problem, m):
    flat = {key: value for key, value in parse_config_text(MARKOV_CFG).items()
            if not key.startswith("problem.")}
    flat.update(problem, out=str(tmp_path / "out"))
    config = ExperimentConfig.from_flat(flat)
    cert = config.problem.optimum
    assert (config.problem.m, cert.method) == (m, "duality")
    assert cert.tolerance <= 1e-9 * (1.0 + abs(cert.f_star))  # the width
    summary, _ = run_experiment(config)
    assert summary["f_star"] == cert.f_star
    assert len(summary["bounds"]) == 4
    for row in summary["bounds"]:
        assert row["verdicts"]["passed"] == row["verdicts"]["total"] == 3
    assert summary["bounds_all_pass"] is True


def files(root):
    """Every file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def cell_flat(flat, alpha, out):
    """The flat config ``incsub run`` takes for one compare cell."""
    cell = {k: v for k, v in flat.items() if k.split(".")[0] != "schedule"}
    cell.update({"schedule.kind": "constant", "schedule.alpha": alpha, "out": out})
    return cell


class TestCompare:
    """``compare`` is one ordinary run per ``compare.alphas[i]``, written
    under ``<out>/alpha_<i>/``, plus a ``bounds.csv`` index read from the
    runs' summaries."""

    def study(self, text, tmp_path, **entries):
        flat = parse_config_text(text)
        flat.update({"horizon": 300, "replications": 2,
                     "compare.alphas": [0.05, 0.02],
                     "out": str(tmp_path / "cmp"), **entries})
        return flat

    def test_grid_table(self, tmp_path):
        flat = self.study(MARKOV_CFG, tmp_path, horizon=800)
        rows = compare_bounds(ExperimentConfig.from_flat(flat))
        table = (tmp_path / "cmp" / "bounds.csv").read_text().splitlines()
        assert table[0] == ("alpha,kind,T_label,T,analytic_gap,pass,"
                            "empirical_tail_gap_median,empirical_tail_gap_max,"
                            "empirical_inf_gap_max")
        assert len(table) == 1 + len(rows) == 1 + 2 * 4
        for i, alpha in enumerate(flat["compare.alphas"]):
            summary = json.loads(
                (tmp_path / "cmp" / f"alpha_{i}" / "summary.json").read_text())
            cell_rows = rows[4 * i:4 * i + 4]
            per_seed = summary["per_seed"]
            tail = [seed["tail_min_gap"] for seed in per_seed]
            assert [row["kind"] for row in cell_rows] == \
                ["markov_constant_step"] * 3 + ["markov_simple_delta"]
            assert [row["T_label"] for row in cell_rows] == \
                ["T0", "optimal", "delta", ""]
            for row, bound in zip(cell_rows, summary["bounds"]):
                report = bound["report"]
                params = report["params"]
                assert row["alpha"] == params["alpha"] == alpha
                assert row["T"] == params.get("T", params.get("delta"))
                assert row["analytic_gap"] == report["gap"]
                assert row["pass"] is bound["pass"] is True
                assert row["empirical_tail_gap_median"] == np.median(tail)
                assert row["empirical_tail_gap_max"] == max(tail)
                assert row["empirical_inf_gap_max"] == \
                    max(seed["inf_gap"] for seed in per_seed)
                # simulations land inside the analytic gap (plus 2% slack)
                assert row["empirical_inf_gap_max"] <= row["analytic_gap"] * 1.02
            optimal = cell_rows[1]["analytic_gap"]
            assert all(optimal <= row["analytic_gap"] + 1e-12 for row in cell_rows[:3])
        # the file spells the rows: floats round-trip, booleans as in JSON
        line = table[1].split(",")
        assert float(line[0]) == rows[0]["alpha"] and line[5] == "true"
        assert float(line[4]) == rows[0]["analytic_gap"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        config = ExperimentConfig.from_flat(
            self.study(MARKOV_CFG, tmp_path, replications=3))
        serial = compare_bounds(config, jobs=1)
        (tmp_path / "cmp").rename(tmp_path / "serial")
        assert compare_bounds(config, jobs=2) == serial
        assert files(tmp_path / "cmp") == files(tmp_path / "serial")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("text", [MARKOV_CFG, CYCLIC_CFG], ids=["markov", "cyclic"])
    def test_cells_are_plain_runs(self, tmp_path, text, jobs):
        flat = self.study(text, tmp_path)
        cfg = write_config(tmp_path / "cmp.cfg", flat)
        for i, alpha in enumerate(flat["compare.alphas"]):
            cell = cell_flat(flat, alpha, str(tmp_path / "cmp" / f"alpha_{i}"))
            assert cli_main(["run", "--config", write_config(
                tmp_path / f"cell{i}.cfg", cell)]) == 0
        (tmp_path / "cmp").rename(tmp_path / "plain")
        assert cli_main(["compare", "--config", cfg, "--jobs", str(jobs)]) == 0
        compared = files(tmp_path / "cmp")
        assert compared.pop("bounds.csv")
        assert compared == files(tmp_path / "plain")

    def test_cyclic_compare_writes_one_row_per_alpha(self, tmp_path):
        flat = self.study(CYCLIC_CFG, tmp_path)
        rows = compare_bounds(ExperimentConfig.from_flat(flat))
        assert [(row["alpha"], row["kind"], row["T_label"], row["T"])
                for row in rows] == [(0.05, "cyclic_constant_step", "", ""),
                                     (0.02, "cyclic_constant_step", "", "")]
        assert len((tmp_path / "cmp" / "bounds.csv").read_text().splitlines()) == 3

    def test_needs_step_sizes(self, tmp_path):
        flat = self.study(MARKOV_CFG, tmp_path)
        del flat["compare.alphas"]
        with pytest.raises(ConfigError, match="^compare.alphas: "):
            compare_bounds(ExperimentConfig.from_flat(flat))
        assert not (tmp_path / "cmp").exists()


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
        assert capsys.readouterr().out == f"{tmp_path / 'cmp_out' / 'bounds.csv'}\n"
        table = (tmp_path / "cmp_out" / "bounds.csv").read_text().splitlines()
        assert table[0].startswith("alpha,kind,T_label,T,analytic_gap,pass,")
        assert len(table) == 1 + 2 * 4  # four markov reports per alpha
        for i in range(2):
            assert sorted(os.listdir(tmp_path / "cmp_out" / f"alpha_{i}")) == \
                ["summary.json", "trace_0.csv", "trace_1.csv"]

    @pytest.mark.parametrize("ts", [[3, -1], [1.5], ["x"], 5],
                             ids=["negative", "fraction", "string", "not_a_list"])
    def test_cli_compare_rejects_bad_window_before_simulating(self, tmp_path, capsys,
                                                             monkeypatch, ts):
        # compare has no windows of its own: every run reports the same ones
        def no_simulation(*args):
            raise AssertionError("simulated with a compare.Ts entry")

        monkeypatch.setattr(hz, "_run_all", no_simulation)
        cfg_path = tmp_path / "cmp.cfg"
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"horizon": 50, "replications": 1,
                     "compare.alphas": [0.05, 0.01],
                     "compare.Ts": ts,
                     "out": str(tmp_path / "cmp_out")})
        write_config(cfg_path, flat)
        assert cli_main(["compare", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == \
            "config error: compare.Ts: unknown entry; expected one of alphas\n"
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
    4 window) ticks of a chain without a period, in order, in the chain
    order's chunks of max(1, 2**16 // m**2) ticks."""

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
        topology = config.order.topology
        assert np.array_equal(calls[0], topology.adjacencies(0, ticks))

    def wide(self):
        # 100 agents on random edges of the complete graph: 6 ticks a chunk
        return self.config(**{"problem.m": 100, "topology.graph": "complete",
                              "topology.inclusion_prob": 0.1, "topology.window": 100,
                              "scheme.kind": "weighted_mh", "scheme.weight": 0.5,
                              "horizon": 10**6})

    def test_builds_the_first_ticks_in_chunks(self, monkeypatch):
        calls = []

        def recording(scheme, adj):
            calls.append(np.array(adj))
            return build_transition(scheme, adj)

        monkeypatch.setattr(hz, "build_transition", recording)
        config = self.wide()
        validate_only(config)
        assert [len(adj) for adj in calls] == [6] * 66 + [4]
        assert np.array_equal(np.concatenate(calls),
                              config.order.topology.adjacencies(0, 400))

    def test_memory_stays_within_a_chunk(self):
        # 400 ticks of (100, 100) float matrices would be 32 MB a stack; a
        # chunk's stacks hold at most 2**16 entries, 0.5 MiB of floats each
        import tracemalloc

        config = self.wide()
        tracemalloc.start()
        try:
            validate_only(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**16 * 8

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

        monkeypatch.setattr(cf, "build_scheme", lambda spec: BreaksOnChord())
        config = self.config()
        topology = config.order.topology
        failures = []  # (tick, message) of every failing tick, built alone
        for k in range(8):
            try:
                build_transition(BreaksOnChord(), topology.adjacencies(k, 1)[0])
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
    # field): the kind that reads the entry, and the kept spelling that a
    # retired one stands next to
    ALONGSIDE = {
        ("topology.window", "topology.window"): {"topology.kind": "random_edges"},
        ("topology.graph", "topology.graph"): {"topology.kind": "random_edges"},
        ("topology.phases", "topology.phases[1]"): {"topology.kind": "periodic"},
        ("topology.phases", "topology.phases"): {"topology.kind": "periodic"},
        ("topology.graph", "topology.edges"): {
            "topology.kind": "random_edges",
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
        # phase lists are nonempty lists of edge lists (more edge lists at
        # the end)
        ("topology.phases", ["ring", "bogus"], "topology.phases[1]"),
        ("topology.phases", [], "topology.phases"),
        # the retired spellings of a graph, topology.edges (of the retired
        # static kind) and topology.base (of random edges), are unknown
        # entries whatever they hold, also next to topology.graph
        ("topology.edges", [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.edges"),
        ("topology.edges", [[0, True], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.edges"),
        ("topology.graph", "ring", "topology.edges"),
        ("topology.base", "complete", "topology.base"),
        # a weighted_mh scheme has one weight: per-agent weights are an
        # unknown entry
        ("scheme.weights", 0.3, "scheme.weights"),
        # a constructor's range check names its entry; a whole section
        # stands in place of the example's, kind included
        ("scheme", {"kind": "weighted_mh", "weight": 1.5}, "scheme.weight"),
        ("scheme", {"kind": "weighted_mh", "weights": [0.5, 0.5]},
         "scheme.weights"),
        ("topology", {"kind": "random_edges", "inclusion_prob": 2},
         "topology.inclusion_prob"),
        ("topology.edges", [[0, 0], [0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.edges"),  # retired
        ("topology", {"kind": "random_edges", "base": [[1, 1], [0, 1], [1, 2],
                                                       [2, 3], [3, 4], [4, 0]]},
         "topology.base"),  # retired
        ("topology", {"kind": "periodic", "phases": ["ring", [[0, 1], [2, 2]]]},
         "topology.phases[1]"),
        # a JSON string is not a number, even when it reads as one
        ("schedule.alpha", "0.005", "schedule.alpha"),
        ("noise.sigma", "0.1", "noise.sigma"),
        ("replications", "4", "replications"),
        ("problem.set", {"kind": "box", "lower": "-1", "upper": 1.0},
         "problem.set.lower"),
        # a random-edge base must hold the agent ring 0-1-...-0
        ("topology", {"kind": "random_edges",  # retired
                      "base": [[0, 1], [1, 2], [2, 3], [3, 4]]}, "topology.base"),
        ("topology", {"kind": "random_edges",
                      "graph": [[0, 1], [1, 2], [2, 3], [3, 4]]}, "topology.graph"),
        # every replication's seed (here 2^64 - 1 + r, r < 3) and the
        # topology's seed are Philox keys below 2^64
        ("seed", 2**64 - 1, "seed"),
        ("topology", {"kind": "random_edges", "seed": 2**64}, "topology.seed"),
        # the retired static kind; an edge list holds [i, j] pairs of
        # distinct integral agent indices
        ("topology.kind", "static", "topology.kind"),
        ("topology.graph", [[0, 1.5], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.graph"),
        ("topology.graph", [[0, True], [1, 2], [2, 3], [3, 4], [4, 0]],
         "topology.graph"),
        ("topology", {"kind": "random_edges", "graph": [[1, 1], [0, 1], [1, 2],
                                                        [2, 3], [3, 4], [4, 0]]},
         "topology.graph"),
    ])
    def test_bad_run_entries(self, tmp_path, capsys, verb, entry, value, field):
        flat = parse_config_text(MARKOV_CFG)
        if "." not in entry:  # a whole section in place of the example's
            flat = {k: v for k, v in flat.items() if not k.startswith(f"{entry}.")}
        flat[entry] = value
        flat.update(self.ALONGSIDE.get((entry, field), {}))
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "compare"])
    @pytest.mark.parametrize("alphas, field", [
        ([True, 0.01], "compare.alphas[0]"), ([0.05, "fast"], "compare.alphas[1]"),
        ("5", "compare.alphas"), ([0.05, "0.01"], "compare.alphas[1]"),
    ], ids=["boolean", "word", "string", "numeric_string"])
    def test_bad_compare_alphas(self, tmp_path, capsys, verb, alphas, field):
        flat = parse_config_text(MARKOV_CFG)
        flat["compare.alphas"] = alphas
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_problem_section_must_be_an_object(self, tmp_path, capsys, verb):
        flat = {k: v for k, v in parse_config_text(MARKOV_CFG).items()
                if not k.startswith("problem.")}
        flat["problem"] = 3
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

    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize("problem, dims", [
        ({"problem.set": {"kind": "simplex", "dim": 3}}, (3, 2)),
        ({"problem.set": {"kind": "ball", "center": [0.0, 0.0, 0.0],
                          "radius": 1.0}}, (3, 2)),
        ({"problem.set": {"kind": "box", "lower": [-1.0] * 3,
                          "upper": [1.0] * 3}}, (3, 2)),
        ({**WIDE_REGRESSION_PROBLEM,
          "problem.set": {"kind": "box", "lower": [-1.0] * 3,
                          "upper": [1.0] * 3}}, (3, 5)),
        ({**MANY_AGENT_ALLOCATION_PROBLEM,
          "problem.set": {"kind": "simplex", "dim": 4}}, (4, 10)),
    ], ids=["quadratic_simplex", "quadratic_ball", "quadratic_box",
            "regression", "allocation"])
    def test_set_dimension_differs_from_the_problem(self, tmp_path, capsys,
                                                    verb, problem, dims):
        flat = parse_config_text(MARKOV_CFG)
        if "problem.fixture" in problem:
            flat = {k: v for k, v in flat.items() if not k.startswith("problem.")}
        flat.update(problem)
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: problem.set: the set has dimension {dims[0]}, "
            f"the problem dimension {dims[1]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "validate"])
    @pytest.mark.parametrize("entries, message", [
        # the subgradient bounds C_i overflow, checked before f* is sought
        ({"problem.spread": 1e308}, "problem.set: the diameter (2.8284271247461903) "
                                    "and the largest subgradient bound (inf)"),
        ({"problem.centers": [[1e200, 0.0]] * 5},
         "problem.set: the diameter (2.8284271247461903) "
         "and the largest subgradient bound (inf)"),
        # the C_i are finite (1.4e154), but f* = 5 ||x* - c||^2 overflows
        ({"problem.centers": [[7e153, 0.0]] * 5},
         "problem: the optimal value f* = inf is not finite"),
    ], ids=["spread", "centers", "f_star"])
    def test_overflowing_fixture_data(self, tmp_path, capsys, verb, entries,
                                      message):
        flat = parse_config_text(MARKOV_CFG)
        flat.update(entries)
        cfg = write_config(tmp_path / "exp.cfg", flat)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    def test_one_point_set_validates(self, capsys, tmp_path):
        # a one-point box has diameter 0, so c0 = b C_sum D = 0: no mixing
        # term at any window, and the optimal window is T = 0
        flat = parse_config_text(MARKOV_CFG)
        flat["problem.set"] = {"kind": "box", "lower": 0.5, "upper": 0.5}
        cfg = write_config(tmp_path / "exp.cfg", flat)
        assert cli_main(["validate", "--config", cfg]) == 0
        reports = bound_reports(ExperimentConfig.from_flat(flat))
        assert [r.params["T"] for r in reports
                if r.params.get("label") == "optimal"] == [0]

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
    # column and field; the serial replay reuses the built config
    builds = []
    monkeypatch.setattr(cf, "build_problem",
                        lambda spec: builds.append(spec) or build_problem(spec))
    config = ExperimentConfig.from_flat(parse_config_text(OVERFLOW_CFG))
    errors = []
    for jobs in (1, 2):
        with pytest.raises(NonFiniteError) as info:
            run_experiment(config, jobs=jobs, write=False)
        errors.append(info.value)
    assert len(builds) == 1  # by from_flat, none by either run
    serial, jobs = errors
    assert str(jobs) == str(serial)
    assert len(serial.partial_traces) == 8
    assert ([trace_state(tr) for tr in jobs.partial_traces]
            == [trace_state(tr) for tr in serial.partial_traces])


class TestSingleBuild:
    """``from_flat`` builds the problem and the topology once and validates
    the topology once; each verb builds nothing more, and ``--jobs``
    workers receive the built config and rebuild nothing."""

    @pytest.fixture
    def counts(self, monkeypatch):
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
            monkeypatch.setattr(cf, name, counting(name, getattr(cf, name)))
        # a topology checks its connectivity when it is built
        monkeypatch.setattr(mk, "_connected", counting("_connected", mk._connected))
        return counts

    @pytest.mark.parametrize("verb", [
        lambda config: run_experiment(config, write=False),
        lambda config: run_experiment(config, jobs=2, write=False),
        validate_only,
        bound_reports,
        lambda config: compare_bounds(config, write=False),
    ], ids=["run", "run_jobs2", "validate", "bounds", "compare"])
    def test_verb_builds_once(self, counts, verb):
        flat = parse_config_text(MARKOV_CFG)
        flat.update({"horizon": 200, "replications": 2,
                     "compare.alphas": [0.05, 0.02]})
        config = ExperimentConfig.from_flat(flat)
        once = {"build_problem": 1, "build_topology": 1, "_connected": 1}
        assert counts == once
        verb(config)
        assert counts == once


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

    def test_constant_sequence_is_read_once(self):
        calls = []

        def level(k):
            calls.append(k)
            return 0.25

        assert _supremum(level, 10**12) == 0.25
        assert len(calls) == 1
