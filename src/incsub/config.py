"""Experiment configuration: flat key = value text.

The one on-disk format is diff-friendly flat text, one dotted key per line::

    algorithm = markov
    problem.fixture = quadratic
    problem.m = 5
    schedule.kind = powerlaw
    schedule.a = 1.0

Values are JSON fragments (numbers, strings, lists, objects); bare words
parse as strings.  Canonical form sorts keys and renders values as JSON,
so serialize(parse(text)) is idempotent.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, NonFiniteError, SchemeViolationError,
                     TopologyError)
from .cyclic import RingOrder
from .markov import (ChainOrder, EqualProbability, MinEqualNeighbor,
                     PeriodicTopology, RandomEdgeTopology,
                     WeightedMetropolisHastings, complete_edges, path_edges,
                     ring_edges)
from .noise import (BiasedGaussianNoise, BoundedUniformNoise, GaussianNoise,
                    NoNoise)
from .objectives import LinearUtility, LogUtility, SqrtUtility
from .problems import make_allocation, make_quadratic_suite, make_regression
from .schedules import Constant, PowerLaw
from .sets import Ball, Box, Simplex
from .streams import check_seed


def parse_config_text(text):
    """Flat dict from key = value lines; '#' starts a comment line."""
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            flat[key] = json.loads(value)
        except json.JSONDecodeError:
            flat[key] = value
    return flat


def canonical_config_text(flat):
    lines = []
    for key in sorted(flat):
        value = flat[key]
        lines.append(f"{key} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def config_hash(flat):
    return hashlib.sha256(canonical_config_text(flat).encode()).hexdigest()


def load_config_file(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def _nest(flat):
    """The sections of ``flat``, each dotted key a path of nested dicts.  A
    key that is also the dotted prefix of another key is a ConfigError on
    whichever of the two comes later, so no entry silently replaces or
    extends another; no dict of ``flat`` is written into."""
    nested, keys, sections = {}, set(), {}  # sections: prefix -> first key
    for key, value in flat.items():
        parts = key.split(".")
        heads = [".".join(parts[:i]) for i in range(1, len(parts))]
        other = next((head for head in heads if head in keys), sections.get(key))
        if other is not None:
            raise ConfigError(f"conflicts with {other}; give one of them",
                              field=key)
        keys.add(key)
        for head in heads:
            sections.setdefault(head, key)
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested


_MARKOV_ONLY = ("topology", "scheme", "s0")
_TOP_LEVEL_KEYS = {"algorithm", "problem", "schedule", "noise", "horizon",
                   "replications", "seed", "out", "stride", "topology",
                   "scheme", "s0", "x0", "tail_fraction", "verify", "compare"}
# every verify entry and its default; each is a nonnegative number
_VERIFY_DEFAULTS = {"slack_rel": 0.02, "slack_abs": 0.0, "min_pass_fraction": 1.0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment, built once into its runnable parts (see the
    module docstring for the format): the problem, step schedule, noise,
    order and start point ``x0``, and the step sizes ``compare_alphas`` of
    the verb ``compare``.  ``--jobs`` workers receive it pickled, with
    their seeds."""

    algorithm: str
    problem: object
    schedule: object
    noise: object
    order: object
    x0: np.ndarray
    horizon: int
    replications: int
    seed: int
    out_dir: str
    stride: int
    tail_fraction: float = 0.1
    verify: dict = field(default_factory=lambda: dict(_VERIFY_DEFAULTS))
    compare_alphas: tuple = ()
    flat: dict = field(default_factory=dict)

    @classmethod
    def from_flat(cls, flat, overrides=None):
        """The config of ``flat``.  Every check runs here, the builders'
        too, and the topology validates itself when it is built, before
        any tick."""
        flat = dict(flat)
        if overrides:
            flat.update({k: v for k, v in overrides.items() if v is not None})
        nested = _nest(flat)
        _check_keys(nested, None, _TOP_LEVEL_KEYS)

        algorithm = nested.get("algorithm")
        if algorithm not in ("cyclic", "markov"):
            raise ConfigError("must be 'cyclic' or 'markov'", field="algorithm")
        if algorithm == "cyclic":
            for key in _MARKOV_ONLY:
                if key in nested:
                    raise ConfigError(
                        f"only valid for markov runs", field=key)
        else:
            for key in ("topology", "scheme"):
                if key not in nested:
                    raise ConfigError("required for markov runs", field=key)

        horizon = _number(nested, None, "horizon", minimum=0, kind=int)
        replications = _number(nested, None, "replications", 1, minimum=1, kind=int)
        seed = _number(nested, None, "seed", 0, minimum=0, kind=int)
        if seed + replications > 2**64:  # each replication's seed is a key
            raise ConfigError("seed + replications - 1 must be below 2^64", field="seed")
        stride = _number(nested, None, "stride", 1, minimum=1, kind=int)
        out_dir = str(nested.get("out", "incsub_out"))
        tail = _number(nested, None, "tail_fraction", 0.1)
        if not 0.0 < tail <= 1.0:
            raise ConfigError(f"must be in (0, 1], got {tail}", field="tail_fraction")
        verify = nested.get("verify", {})
        _check_keys(verify, "verify", _VERIFY_DEFAULTS)
        verify = {key: _number(verify, "verify", key, default, minimum=0.0)
                  for key, default in _VERIFY_DEFAULTS.items()}
        if not verify["min_pass_fraction"] <= 1.0:
            raise ConfigError(f"must be in [0, 1], got {verify['min_pass_fraction']}",
                              field="verify.min_pass_fraction")
        s0 = nested.get("s0", "uniform")
        if s0 != "uniform":
            s0 = _number(nested, None, "s0", minimum=0, kind=int)
        problem = nested.get("problem", {})
        if not isinstance(problem, dict):
            raise ConfigError(f"expected an object, got {problem!r}", field="problem")
        if "fixture" not in problem:
            raise ConfigError("missing problem.fixture", field="problem.fixture")
        if "schedule" not in nested:
            raise ConfigError("missing schedule section", field="schedule")
        compare_alphas = _step_sizes(nested.get("compare", {}))

        problem = build_problem(problem)
        schedule = build_schedule(nested["schedule"])
        noise = build_noise(nested.get("noise", {"kind": "none"}))
        x0 = _start(nested.get("x0", "auto"), s0, problem)
        if algorithm == "cyclic":
            order = RingOrder(problem.m)
        else:
            order = ChainOrder(build_topology(nested["topology"], problem.m),
                               build_scheme(nested["scheme"]), s0)
        return cls(algorithm=algorithm, problem=problem, schedule=schedule,
                   noise=noise, order=order, x0=x0, horizon=horizon,
                   replications=replications, seed=seed, out_dir=out_dir,
                   stride=stride, tail_fraction=tail, verify=verify,
                   compare_alphas=compare_alphas, flat=flat)

    def hash(self):
        return config_hash(self.flat)


# -- builders -----------------------------------------------------------------
#
# Builders turn every bad entry into a ConfigError naming its dotted path, so
# a bad config stops with exit code 2 before any tick runs.

_MISSING = object()


def _number(spec, section, key, default=_MISSING, minimum=None, kind=float,
            finite=True):
    """``spec[key]`` as a finite float, or as an int with ``kind=int`` (a
    float must then be integral); ``minimum`` is inclusive.  ``section`` is
    None for a top-level entry.  ``finite=False`` lets an infinite or NaN
    float through to a constructor that range-checks it with its own
    message.  A JSON boolean or string is not a number."""
    field = key if section is None else f"{section}.{key}"
    raw = spec.get(key, default)
    if raw is _MISSING:
        raise ConfigError("missing required entry", field=field)
    try:
        if isinstance(raw, (bool, str)):
            raise TypeError(raw)
        value = kind(raw)
        if kind is int and isinstance(raw, float) and value != raw:
            raise ValueError(raw)
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {expected}, got {raw!r}", field=field) from None
    if finite and not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}", field=field)
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", field=field)
    return value


def _step_sizes(spec):
    """The ``compare`` section's step sizes ``alphas`` (none when absent):
    each a number on its field ``compare.alphas[i]``, and a constant step
    on ``compare.alphas``."""
    _check_keys(spec, "compare", {"alphas"})
    raw = spec.get("alphas", [])
    if not isinstance(raw, list):
        raise ConfigError(f"expected a list, got {raw!r}", field="compare.alphas")
    return tuple(_construct("compare.alphas", Constant, _number(
        {f"alphas[{i}]": x}, "compare", f"alphas[{i}]", finite=False)).alpha
        for i, x in enumerate(raw))


def _has_non_number(raw):
    """Whether ``raw`` is a boolean or a string, or a (nested) list holding
    one; numpy would read either as a number."""
    if isinstance(raw, (list, tuple)):
        return any(map(_has_non_number, raw))
    return isinstance(raw, (bool, str))


def _floats(raw, field):
    """``raw`` as a float array; any non-number (a boolean or a string too)
    or non-finite number in it is a ConfigError."""
    try:
        if _has_non_number(raw):
            raise TypeError(raw)
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected numbers", field=field) from None
    if not np.isfinite(value).all():
        raise ConfigError("expected finite numbers", field=field)
    return value


def _check_keys(spec, section, allowed):
    """Reject entries of ``spec`` outside ``allowed``; ``section`` is None at
    the top level."""
    if not isinstance(spec, dict):
        raise ConfigError(f"expected an object, got {spec!r}", field=section)
    for key in sorted(spec):
        if key not in allowed:
            raise ConfigError(f"unknown entry; expected one of "
                              f"{', '.join(sorted(allowed))}",
                              field=key if section is None else f"{section}.{key}")


def _kind(spec, section, table, what, key="kind", default=None):
    """The kind of ``spec``, its ``key`` entry (``default`` when absent),
    after checking that ``table`` has that kind and that ``spec`` holds
    only entries of ``table[kind]``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"expected an object, got {spec!r}", field=section)
    kind = spec.get(key, default)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} {kind!r}", field=f"{section}.{key}")
    _check_keys(spec, section, table[kind])
    return kind


def _construct(section, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, with its range checks as ConfigErrors."""
    try:
        return cls(*args, **kwargs)
    except (ValueError, SchemeViolationError, TopologyError) as exc:
        raise ConfigError(str(exc), field=section) from None


_SET_KEYS = {"box": {"kind", "lower", "upper"},
             "ball": {"kind", "center", "radius"},
             "simplex": {"kind", "scale", "dim"}}


def build_set(spec, default_dim=None):
    kind = _kind(spec, "problem.set", _SET_KEYS, "set kind")

    def vector(key, default=_MISSING):
        field = f"problem.set.{key}"
        raw = spec.get(key, default)
        if raw is _MISSING:
            raise ConfigError("missing required entry", field=field)
        value = _floats(raw, field)
        if value.ndim == 0:
            if default_dim is None:
                raise ConfigError(f"a scalar {key} needs a known dimension",
                                  field="problem.set")
            value = np.full(default_dim, float(value))
        if value.ndim != 1:
            raise ConfigError("expected a number or a list of numbers", field=field)
        return value

    if kind == "box":
        return _construct("problem.set", Box, vector("lower"), vector("upper"))
    if kind == "ball":
        return _construct("problem.set", Ball, vector("center", 0.0),
                          _number(spec, "problem.set", "radius"))
    dim = _number(spec, "problem.set", "dim", default_dim or 0, kind=int)
    if dim < 1:
        raise ConfigError("simplex needs a dimension", field="problem.set.dim")
    return _construct("problem.set", Simplex,
                      _number(spec, "problem.set", "scale", 1.0), dim)


_FIXTURE_KEYS = {
    "quadratic": {"fixture", "m", "n", "spread", "set", "centers",
                  "centers_seed"},
    "regression": {"fixture", "features", "samples", "set"},
    "allocation": {"fixture", "utilities", "set"},
}
_UTILITY_KEYS = {"log": {"kind", "weight"}, "sqrt": {"kind", "floor"},
                 "linear": {"kind", "slope", "cap"}}


def _utility(spec, section):
    kind = _kind(spec, section, _UTILITY_KEYS, "utility kind")
    if kind == "log":
        return _construct(section, LogUtility, _number(spec, section, "weight", 1.0))
    if kind == "sqrt":
        return _construct(section, SqrtUtility, _number(spec, section, "floor", 1e-4))
    cap = None if spec.get("cap") is None else _number(spec, section, "cap")
    return _construct(section, LinearUtility,
                      _number(spec, section, "slope", 1.0), cap)


def build_problem(spec):
    """The configured problem.  Every bound reads its set's diameter and its
    subgradient bounds C_i, so the fixture checks that they are finite
    before it certifies f*; a set so large that they overflow is a
    ConfigError on ``problem.set``, and so is a set whose dimension is not
    the problem's.  A non-finite f* is a ConfigError on ``problem``."""
    try:
        with np.errstate(over="ignore"):  # the fixture checks for overflow
            return _fixture(spec)
    except NonFiniteError as exc:
        raise ConfigError(str(exc), field="problem.set") from None


def _problem_set(spec, dim, default=_MISSING):
    """The set ``spec["set"]`` (``default`` when absent), of dimension ``dim``."""
    raw = spec.get("set", default)
    if raw is _MISSING:
        raise ConfigError("missing required entry", field="problem.set")
    fset = build_set(raw, default_dim=dim)
    if fset.dim != dim:
        raise ConfigError(f"the set has dimension {fset.dim}, the problem "
                          f"dimension {dim}", field="problem.set")
    return fset


def _fixture(spec):
    fixture = _kind(spec, "problem", _FIXTURE_KEYS, "fixture", key="fixture")
    if fixture == "quadratic":
        m = _number(spec, "problem", "m", 1, minimum=1, kind=int)
        n = _number(spec, "problem", "n", 1, minimum=1, kind=int)
        fset = _problem_set(spec, n, {"kind": "box", "lower": -1.0, "upper": 1.0})
        centers = None
        if spec.get("centers") is not None:
            centers = _floats(spec["centers"], "problem.centers")
            if centers.size != m * n:
                raise ConfigError(f"expected m * n = {m * n} numbers, got "
                                  f"{centers.size}", field="problem.centers")
        return _construct(
            "problem", make_quadratic_suite, m, n,
            _number(spec, "problem", "spread", 1.0, minimum=0.0), fset,
            centers=centers,
            seed=_number(spec, "problem", "centers_seed", 0, minimum=0, kind=int))
    if fixture == "regression":
        if spec.get("features") is None or spec.get("samples") is None:
            raise ConfigError("regression fixture needs features and samples",
                              field="problem")
        features = _floats(spec["features"], "problem.features")
        if features.ndim != 2 or features.size == 0:
            raise ConfigError("expected a nonempty list of equal-length rows",
                              field="problem.features")
        raw_samples = spec["samples"]
        if not isinstance(raw_samples, list) or len(raw_samples) != len(features):
            raise ConfigError(f"expected one list of samples per row of "
                              f"problem.features ({len(features)})",
                              field="problem.samples")
        samples = [np.atleast_1d(_floats(r, f"problem.samples[{i}]"))
                   for i, r in enumerate(raw_samples)]
        return _construct("problem", make_regression, features, samples,
                          _problem_set(spec, features.shape[1]))
    specs = spec.get("utilities")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("allocation fixture needs a utilities list",
                          field="problem.utilities")
    utilities = [_utility(u, f"problem.utilities[{i}]") for i, u in enumerate(specs)]
    m = len(utilities)
    return _construct("problem", make_allocation, utilities,
                      _problem_set(spec, m, {"kind": "simplex", "scale": 1.0,
                                             "dim": m}))


# The entries each kind of the schedule, noise, topology and scheme sections
# may hold; an entry its kind does not use is a ConfigError.
_SCHEDULE_KEYS = {"constant": {"kind", "alpha"}, "powerlaw": {"kind", "a", "p"}}
_NOISE_KEYS = {"none": {"kind"}, "gaussian": {"kind", "sigma"},
               "biased_gaussian": {"kind", "bias", "sigma"},
               "bounded_uniform": {"kind", "radius"}}
_GRAPHS = {"ring": ring_edges, "path": path_edges, "complete": complete_edges}
_TOPOLOGY_KEYS = {
    **{graph: {"kind"} for graph in _GRAPHS},
    "periodic": {"kind", "phases", "window"},
    "random_edges": {"kind", "graph", "inclusion_prob", "window", "seed"},
}
_SCHEME_KEYS = {"equal": {"kind"}, "min_equal": {"kind"},
                "weighted_mh": {"kind", "weight"}}


def build_schedule(spec):
    if _kind(spec, "schedule", _SCHEDULE_KEYS, "schedule kind") == "constant":
        return _construct("schedule.alpha", Constant,
                          _number(spec, "schedule", "alpha", finite=False))
    return _construct("schedule", PowerLaw,
                      _number(spec, "schedule", "a", 1.0),
                      _number(spec, "schedule", "p", 1.0))


def build_noise(spec):
    kind = _kind(spec, "noise", _NOISE_KEYS, "noise kind", default="none")

    def level(key):  # noise magnitudes are nonnegative
        return _number(spec, "noise", key, minimum=0.0)

    if kind == "none":
        return NoNoise()
    if kind == "gaussian":
        return GaussianNoise(level("sigma"))
    if kind == "biased_gaussian":
        return BiasedGaussianNoise(level("bias"), level("sigma"))
    return BoundedUniformNoise(level("radius"))


def _edge_list(raw, field, m):
    """The edges of a graph name, or of a list of [i, j] pairs of agent
    indices: integral numbers (not booleans) in [0, m), with i != j."""
    if isinstance(raw, str) and raw in _GRAPHS:
        return _GRAPHS[raw](m)

    def agent(x):
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and 0 <= x < m and x == int(x))

    if not (isinstance(raw, list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(agent, e))
            and e[0] != e[1] for e in raw)):
        raise ConfigError(f"expected one of {', '.join(_GRAPHS)} or a list of "
                          f"[i, j] pairs of distinct agent indices in [0, {m}), "
                          f"got {raw!r}", field=field)
    return [(int(i), int(j)) for i, j in raw]


def build_topology(spec, m):
    """The configured topology; building it checks its connectivity."""
    kind = _kind(spec, "topology", _TOPOLOGY_KEYS, "topology kind")
    if kind in _GRAPHS:
        return _construct("topology.kind", PeriodicTopology, m, [_GRAPHS[kind](m)], 1)
    if kind == "periodic":
        phases = spec.get("phases")
        if not isinstance(phases, list) or not phases:
            raise ConfigError(f"expected a nonempty list of phases, got {phases!r}",
                              field="topology.phases")
        return _construct(
            "topology.phases", PeriodicTopology,
            m, [_edge_list(p, f"topology.phases[{i}]", m)
                for i, p in enumerate(phases)],
            _number(spec, "topology", "window", len(phases), minimum=1, kind=int))
    inclusion = _number(spec, "topology", "inclusion_prob", 0.5)
    if not 0.0 <= inclusion <= 1.0:
        raise ConfigError(f"must be in [0, 1], got {inclusion}",
                          field="topology.inclusion_prob")
    return _construct(  # the base graph must hold the agent ring
        "topology.graph", RandomEdgeTopology, m,
        _edge_list(spec.get("graph", "complete"), "topology.graph", m), inclusion,
        _number(spec, "topology", "window", 1, minimum=1, kind=int),
        _construct("topology.seed", check_seed,
                   _number(spec, "topology", "seed", 0, minimum=0, kind=int)))


def build_scheme(spec):
    """The configured scheme."""
    kind = _kind(spec, "scheme", _SCHEME_KEYS, "scheme kind")
    if kind == "equal":
        return EqualProbability()
    if kind == "min_equal":
        return MinEqualNeighbor()
    return _construct("scheme.weight", WeightedMetropolisHastings,
                      _number(spec, "scheme", "weight", 0.5))


def _start(raw_x0, s0, problem):
    """The start point ``x0``, after checking ``x0`` and the initial agent
    ``s0`` against the problem.  ``x0 = "auto"`` is the origin projected
    onto the feasible set; a fixed ``s0`` must be one of the problem's
    agents."""
    if isinstance(raw_x0, str) and raw_x0 == "auto":
        x0 = problem.feasible_set.project_many(np.zeros(problem.n))
    else:
        x0 = _floats(raw_x0, "x0")
        if x0.shape != (problem.n,):
            raise ConfigError(f"expected {problem.n} finite numbers, got "
                              f"{raw_x0!r}", field="x0")
    if s0 != "uniform" and not s0 < problem.m:
        raise ConfigError(f"must be 'uniform' or an agent index in [0, "
                          f"{problem.m}), got {s0}", field="s0")
    return x0
