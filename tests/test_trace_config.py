import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsub import ExperimentConfig, RunTrace, record_indices, trace
from incsub.cli import main as cli_main
from incsub.config import (build_noise, build_problem, build_schedule,
                           build_set, canonical_config_text, config_hash,
                           load_config_file, parse_config_text)
from incsub.errors import ConfigError
from reference import trace_csv, trace_from_csv

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "markov_ring_m5.cfg"


def sample_trace():
    ks = np.array([0, 10, 20, 25])
    f = np.array([5.0, 3.0, 3.5, 2.0])
    inf = np.array([5.0, 3.0, 2.5, 2.0])
    alphas = np.array([np.nan, 0.1, 0.05, 0.04])
    agents = np.array([2, 0, 1, 4])
    dists = np.array([1.0, 0.5, 0.75, 0.25])
    return RunTrace(ks, f, inf, alphas, agents, dists, seed=7)


class TestTrace:
    def test_csv_round_trip_preserves_floats(self):
        tr = sample_trace()
        back = trace_from_csv(tr.to_csv())
        assert np.array_equal(back.ks, tr.ks)
        assert np.array_equal(back.f_vals, tr.f_vals)
        assert np.array_equal(back.running_inf, tr.running_inf)
        assert np.array_equal(back.agents, tr.agents)
        assert np.array_equal(back.dists, tr.dists)
        assert np.isnan(back.alphas[0]) and np.array_equal(back.alphas[1:],
                                                           tr.alphas[1:])

    def test_seventeen_digit_floats_round_trip(self):
        x = 0.1 + 0.2  # classic non-representable sum
        tr = RunTrace(np.array([0]), np.array([x]), np.array([x]),
                      np.array([np.nan]), None, None)
        assert trace_from_csv(tr.to_csv()).f_vals[0] == x

    def test_running_inf_must_be_monotone(self):
        with pytest.raises(ValueError):
            RunTrace(np.array([0, 1]), np.array([1.0, 1.0]),
                     np.array([1.0, 2.0]), np.array([np.nan, 0.1]), None, None)
        # a drop from the largest finite float to its negative is allowed,
        # and is checked without an overflowing difference
        RunTrace(np.array([0, 1]), np.array([1.0, 1.0]),
                 np.array([1.7976931348623157e308, -1.7976931348623157e308]),
                 np.array([np.nan, 0.1]), None, None)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 25), chunk=st.integers(1, 30),
           has_agents=st.booleans(), has_dists=st.booleans())
    def test_csv_bytes_match_csv_writer(self, data, rows, chunk, has_agents,
                                        has_dists):
        # the one-format-per-row writer gives the csv.writer bytes, and the
        # text reads back bit for bit, on edge values: signed zero, the
        # smallest subnormal, the largest finite floats, exponent forms and
        # integers stored as floats; with ``chunk`` rows per chunk of text,
        # the rows often cross a chunk boundary
        edges = [-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e-5, 1e16, 3.0, -7.0, 0.1 + 0.2]
        value = st.one_of(st.sampled_from(edges),
                          st.floats(allow_nan=False, allow_infinity=False))
        column = st.lists(value, min_size=rows, max_size=rows)
        ks = np.array(sorted(data.draw(st.sets(st.integers(1, 10**9),
                                               min_size=rows - 1, max_size=rows - 1))))
        ks = np.concatenate([[0], ks]).astype(int)
        alphas = np.array([np.nan] + data.draw(column)[1:])
        f = np.array(data.draw(column))
        inf = np.sort(np.array(data.draw(column)))[::-1].copy()
        agents = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=rows,
                                             max_size=rows))) if has_agents else None
        dists = np.array(data.draw(column)) if has_dists else None
        tr = RunTrace(ks, f, inf, alphas, agents, dists)
        with mock.patch.object(trace, "CSV_ROWS", chunk):
            text = tr.to_csv()
        assert text == trace_csv(tr)
        back = trace_from_csv(text)
        for name in ("ks", "f_vals", "running_inf", "alphas", "agents", "dists"):
            col, got = getattr(tr, name), getattr(back, name)
            if col is None:
                assert got is None
            else:
                assert got.dtype == col.dtype and got.tobytes() == col.tobytes()

    def test_first_row_without_agent_distance_or_step(self, tmp_path):
        # k = 0 has no step-size, and a ring-order run without a witness has
        # no agent or distance column: all three fields are empty
        tr = RunTrace(np.array([0, 1]), np.array([1.5, 0.25]),
                      np.array([1.5, 0.25]), np.array([np.nan, 0.1]), None, None)
        text = ("k,agent,f,dist_to_witness,running_inf_f,alpha\n"
                "0,,1.5,,1.5,\n1,,0.25,,0.25,0.10000000000000001\n")
        assert tr.to_csv() == trace_csv(tr) == text
        tr.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == text.encode()

    def test_written_bytes_match_csv_writer_across_chunks(self, tmp_path):
        # two full chunks and one row: both chunk boundaries fall inside
        rows = 2 * trace.CSV_ROWS + 1
        rng = np.random.default_rng(3)
        f = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
        alphas = rng.random(rows)
        alphas[0] = np.nan
        tr = RunTrace(np.arange(rows) * 7, f, np.minimum.accumulate(f), alphas,
                      rng.integers(0, 50, rows), rng.random(rows))
        tr.write_csv(tmp_path / "trace.csv")
        text = trace_csv(tr)
        assert tr.to_csv() == text
        assert (tmp_path / "trace.csv").read_bytes() == text.encode()

    def test_writing_holds_one_chunk(self, tmp_path):
        # the ~15 MB of a 200,000-row trace's text are written one chunk at
        # a time: the traced peak stays under 1 MiB, whatever the row count
        rows = 200_000
        rng = np.random.default_rng(4)
        f = rng.normal(size=rows)
        alphas = np.full(rows, 0.01)
        alphas[0] = np.nan
        tr = RunTrace(np.arange(rows), f, np.minimum.accumulate(f), alphas,
                      rng.integers(0, 50, rows), rng.random(rows))
        tracemalloc.start()
        try:
            tr.write_csv(tmp_path / "trace.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "trace.csv").stat().st_size > 14 << 20
        assert peak < 1 << 20

    def test_record_indices_shape(self):
        assert record_indices(100, 10) == list(range(0, 101, 10))
        assert record_indices(103, 10) == list(range(0, 101, 10)) + [103]
        assert record_indices(0, 5) == [0]
        with pytest.raises(ValueError):
            record_indices(10, 0)


MINIMAL = """
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
horizon = 100
replications = 2
seed = 5
stride = 10
out = results
"""


class TestConfig:
    def test_parse_and_canonical_round_trip(self):
        flat = parse_config_text(MINIMAL)
        canon = canonical_config_text(flat)
        assert parse_config_text(canon) == flat
        assert canonical_config_text(parse_config_text(canon)) == canon
        assert config_hash(flat) == config_hash(parse_config_text(canon))

    def test_json_file_is_a_parse_error(self, tmp_path, capsys):
        # key = value text is the one config format
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(parse_config_text(MINIMAL)))
        with pytest.raises(ConfigError, match="^line 1: expected 'key = value'"):
            load_config_file(path)
        assert cli_main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: line 1: ")

    def test_typed_validation(self):
        cfg = ExperimentConfig.from_flat(parse_config_text(MINIMAL))
        assert cfg.algorithm == "cyclic"
        assert cfg.horizon == 100
        assert cfg.stride == 10

    def test_markov_fields_rejected_for_cyclic(self):
        flat = parse_config_text(MINIMAL)
        flat["topology.kind"] = "ring"
        with pytest.raises(ConfigError, match="topology"):
            ExperimentConfig.from_flat(flat)

    def test_markov_requires_topology_and_scheme(self):
        flat = parse_config_text(MINIMAL)
        flat["algorithm"] = "markov"
        with pytest.raises(ConfigError, match="(topology|scheme)"):
            ExperimentConfig.from_flat(flat)

    def test_field_paths_in_errors(self):
        flat = parse_config_text(MINIMAL)
        flat["horizon"] = -1
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig.from_flat(flat)
        flat = parse_config_text(MINIMAL)
        del flat["algorithm"]
        with pytest.raises(ConfigError, match="algorithm"):
            ExperimentConfig.from_flat(flat)

    def test_section_after_its_dotted_entries_is_rejected(self):
        # the later section would drop the earlier entry and so loosen
        # every verdict back to the default slack
        flat = parse_config_text(EXAMPLE.read_text()
                                 + "verify.slack_rel = 0.0\nverify = {}\n")
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_flat(flat)
        assert info.value.field == "verify"
        assert str(info.value) == ("verify: conflicts with verify.slack_rel; "
                                   "give one of them")

    @staticmethod
    def section_then_entry():
        """A dotted entry after its whole section."""
        return {"algorithm": "cyclic", "problem": {"fixture": "quadratic"},
                "problem.m": 3, "schedule.kind": "constant",
                "schedule.alpha": 0.1, "horizon": 10}

    def test_dotted_entry_after_its_section_is_rejected(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_flat(self.section_then_entry())
        assert info.value.field == "problem.m"
        assert str(info.value) == "problem.m: conflicts with problem; give one of them"

    def test_input_is_not_written_into(self):
        flat = self.section_then_entry()
        try:
            ExperimentConfig.from_flat(flat)
        except ConfigError:
            pass
        assert flat == self.section_then_entry()

    def test_whole_sections_load(self):
        flat = {"algorithm": "cyclic", "problem": {"fixture": "quadratic", "m": 3},
                "schedule": {"kind": "constant", "alpha": 0.1}, "horizon": 10,
                "verify": {"slack_rel": 0.0}}
        cfg = ExperimentConfig.from_flat(flat)
        assert cfg.problem.m == 3 and cfg.schedule.alpha == 0.1
        assert cfg.verify["slack_rel"] == 0.0 and cfg.flat == flat

    def test_overrides_apply(self):
        cfg = ExperimentConfig.from_flat(parse_config_text(MINIMAL),
                                         overrides={"seed": 99, "out": "elsewhere"})
        assert cfg.seed == 99
        assert cfg.out_dir == "elsewhere"


class TestBuilders:
    def test_build_problem_matches_direct_construction(self):
        flat = parse_config_text(MINIMAL)
        prob = ExperimentConfig.from_flat(flat).problem
        direct = build_problem({key.split(".", 1)[1]: value
                                for key, value in flat.items()
                                if key.startswith("problem.")})
        assert prob.m == direct.m == 2 and prob.n == direct.n == 1
        assert prob.optimum.f_star == direct.optimum.f_star == pytest.approx(2.0)

    def test_build_set_variants(self):
        assert build_set({"kind": "box", "lower": -1.0, "upper": 1.0}, 3).dim == 3
        assert build_set({"kind": "ball", "center": 0.0, "radius": 2.0}, 2).dim == 2
        assert build_set({"kind": "simplex", "scale": 1.0, "dim": 4}).dim == 4
        with pytest.raises(ConfigError):
            build_set({"kind": "torus"}, 2)

    def test_build_schedule_and_noise(self):
        assert build_schedule({"kind": "constant", "alpha": 0.1}).alpha == 0.1
        assert build_schedule({"kind": "powerlaw", "a": 2.0, "p": 0.8}).p == 0.8
        assert build_noise({"kind": "gaussian", "sigma": 0.3}).sigma == 0.3
        assert build_noise({"kind": "none"}).is_zero
        with pytest.raises(ConfigError):
            build_noise({"kind": "cauchy"})

    def test_allocation_fixture_from_config(self):
        spec = {"fixture": "allocation",
                "utilities": [{"kind": "log"}, {"kind": "linear", "slope": 1.0}],
                "set": {"kind": "simplex", "scale": 1.0, "dim": 2}}
        prob = build_problem(spec)
        assert prob.m == 2
        prob.check_certificate()
        # the bracket's width, at most 1e-9 (1 + |f*|)
        assert prob.optimum.tolerance <= 1e-9 * (1.0 + abs(prob.optimum.f_star))

    def test_regression_fixture_from_config(self):
        spec = {"fixture": "regression",
                "features": [[1.0], [1.0]],
                "samples": [[1.0], [3.0]],
                "set": {"kind": "box", "lower": [0.0], "upper": [10.0]}}
        prob = build_problem(spec)
        assert prob.optimum.witness[0] == pytest.approx(2.0)
