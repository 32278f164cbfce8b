"""Experiment configuration: flat key = value text with a JSON mirror.

The on-disk format is diff-friendly flat text, one dotted key per line::

    algorithm = markov
    problem.fixture = quadratic
    problem.m = 5
    schedule.kind = powerlaw
    schedule.a = 1.0

Values are JSON fragments (numbers, strings, lists, objects); bare words
parse as strings.  A ``.json`` file holding one object with the same
dotted keys is accepted interchangeably.  Canonical form sorts keys and
renders values as JSON, so serialize(parse(text)) is idempotent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .markov import make_scheme, make_topology
from .noise import (BiasedGaussianNoise, BoundedUniformNoise, GaussianNoise,
                    NoNoise)
from .objectives import LinearUtility, LogUtility, SqrtUtility
from .problems import make_allocation, make_quadratic_suite, make_regression
from .schedules import Constant, PowerLaw
from .sets import Ball, Box, Simplex


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
        text = fh.read()
    if str(path).endswith(".json"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be a single object of dotted keys")
        return dict(data)
    return parse_config_text(text)


def _nest(flat):
    nested = {}
    for key, value in flat.items():
        parts = key.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError("key conflicts with a scalar entry", field=key)
        node[parts[-1]] = value
    return nested


_MARKOV_ONLY = ("topology", "scheme", "s0")
_TOP_LEVEL_KEYS = {"algorithm", "problem", "schedule", "noise", "horizon",
                   "replications", "seed", "out", "stride", "topology",
                   "scheme", "s0", "x0", "tail_fraction", "verify", "compare"}
# Entries each section may hold, over all of its kinds; ``problem`` is
# checked per fixture by ``build_problem``.
_SECTION_KEYS = {
    "schedule": {"kind", "alpha", "a", "p"},
    "noise": {"kind", "sigma", "bias", "radius"},
    "topology": {"kind", "graph", "edges", "phases", "window", "base",
                 "inclusion_prob", "seed"},
    "scheme": {"kind", "weights", "weight"},
    "verify": {"slack_rel", "slack_abs", "min_pass_fraction"},
    "compare": {"alphas", "Ts"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring for format)."""

    algorithm: str
    problem: dict
    schedule: dict
    noise: dict
    horizon: int
    replications: int
    seed: int
    out_dir: str
    stride: int
    topology: Optional[dict] = None
    scheme: Optional[dict] = None
    s0: object = "uniform"
    x0: object = "auto"
    tail_fraction: float = 0.1
    verify: dict = field(default_factory=dict)
    compare: Optional[dict] = None
    flat: dict = field(default_factory=dict)

    @classmethod
    def from_flat(cls, flat, overrides=None):
        flat = dict(flat)
        if overrides:
            flat.update({k: v for k, v in overrides.items() if v is not None})
        nested = _nest(flat)
        _check_keys(nested, None, _TOP_LEVEL_KEYS)
        for section, keys in _SECTION_KEYS.items():
            if section in nested:
                _check_keys(nested[section], section, keys)

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
        stride = _number(nested, None, "stride", 1, minimum=1, kind=int)
        out_dir = str(nested.get("out", "incsub_out"))
        tail = _number(nested, None, "tail_fraction", 0.1)
        if not 0.0 < tail <= 1.0:
            raise ConfigError(f"must be in (0, 1], got {tail}", field="tail_fraction")
        s0 = nested.get("s0", "uniform")
        if s0 != "uniform":
            s0 = _number(nested, None, "s0", minimum=0, kind=int)
        if "problem" not in nested or "fixture" not in nested["problem"]:
            raise ConfigError("missing problem.fixture", field="problem.fixture")
        if "schedule" not in nested:
            raise ConfigError("missing schedule section", field="schedule")

        return cls(algorithm=algorithm, problem=nested["problem"],
                   schedule=nested["schedule"],
                   noise=nested.get("noise", {"kind": "none"}),
                   horizon=horizon, replications=replications, seed=seed,
                   out_dir=out_dir, stride=stride,
                   topology=nested.get("topology"), scheme=nested.get("scheme"),
                   s0=s0, x0=nested.get("x0", "auto"),
                   tail_fraction=tail, verify=nested.get("verify", {}),
                   compare=nested.get("compare"), flat=flat)

    def hash(self):
        return config_hash(self.flat)


# -- builders -----------------------------------------------------------------
#
# Builders turn every bad entry into a ConfigError naming its dotted path, so
# a bad config stops with exit code 2 before any tick runs.

_MISSING = object()


def _number(spec, section, key, default=_MISSING, minimum=None, kind=float):
    """``spec[key]`` as a float, or as an int with ``kind=int`` (a float
    must then be integral); ``minimum`` is inclusive.  ``section`` is None
    for a top-level entry."""
    field = key if section is None else f"{section}.{key}"
    raw = spec.get(key, default)
    if raw is _MISSING:
        raise ConfigError("missing required entry", field=field)
    try:
        value = kind(raw)
        if kind is int and isinstance(raw, float) and value != raw:
            raise ValueError(raw)
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {expected}, got {raw!r}", field=field) from None
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", field=field)
    return value


def _floats(raw, field):
    """``raw`` as a float array; any non-number in it is a ConfigError."""
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected numbers", field=field) from None


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


def _construct(section, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, with its range checks as ConfigErrors."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), field=section) from None


_SET_KEYS = {"box": {"kind", "lower", "upper"},
             "ball": {"kind", "center", "radius"},
             "simplex": {"kind", "scale", "dim"}}


def build_set(spec, default_dim=None):
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _SET_KEYS:
        raise ConfigError(f"unknown set kind {kind!r}", field="problem.set.kind")
    _check_keys(spec, "problem.set", _SET_KEYS[kind])

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


def _grid_resolution(spec, default):
    if spec.get("grid_resolution") is None:
        return default
    value = _number(spec, "problem", "grid_resolution")
    if not value > 0:
        raise ConfigError(f"must be > 0, got {value}",
                          field="problem.grid_resolution")
    return value


_FIXTURE_KEYS = {
    "quadratic": {"fixture", "m", "n", "spread", "set", "centers",
                  "centers_seed", "grid_resolution"},
    "regression": {"fixture", "features", "samples", "set", "grid_resolution"},
    "allocation": {"fixture", "utilities", "set", "grid_resolution"},
}
_UTILITY_KEYS = {"log": {"kind", "weight"}, "sqrt": {"kind", "floor"},
                 "linear": {"kind", "slope", "cap"}}


def _utility(spec, section):
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _UTILITY_KEYS:
        raise ConfigError(f"unknown utility kind {kind!r}", field=f"{section}.kind")
    _check_keys(spec, section, _UTILITY_KEYS[kind])
    if kind == "log":
        return _construct(section, LogUtility, _number(spec, section, "weight", 1.0))
    if kind == "sqrt":
        return _construct(section, SqrtUtility, _number(spec, section, "floor", 1e-4))
    cap = None if spec.get("cap") is None else _number(spec, section, "cap")
    return _construct(section, LinearUtility,
                      _number(spec, section, "slope", 1.0), cap)


def build_problem(spec):
    fixture = spec.get("fixture")
    if fixture not in _FIXTURE_KEYS:
        raise ConfigError(f"unknown fixture {fixture!r}", field="problem.fixture")
    _check_keys(spec, "problem", _FIXTURE_KEYS[fixture])
    if fixture == "quadratic":
        m = _number(spec, "problem", "m", 1, minimum=1, kind=int)
        n = _number(spec, "problem", "n", 1, minimum=1, kind=int)
        fset = build_set(spec.get("set", {"kind": "box", "lower": -1.0, "upper": 1.0}),
                         default_dim=n)
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
            seed=_number(spec, "problem", "centers_seed", 0, minimum=0, kind=int),
            grid_resolution=_grid_resolution(spec, None))
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
        if "set" not in spec:
            raise ConfigError("missing required entry", field="problem.set")
        fset = build_set(spec["set"], default_dim=features.shape[1])
        return _construct("problem", make_regression, list(range(len(features))),
                          lambda s: features[s], fset, samples=samples,
                          grid_resolution=_grid_resolution(spec, 1e-3))
    specs = spec.get("utilities")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("allocation fixture needs a utilities list",
                          field="problem.utilities")
    utilities = [_utility(u, f"problem.utilities[{i}]") for i, u in enumerate(specs)]
    fset = build_set(spec.get("set", {"kind": "simplex", "scale": 1.0,
                                      "dim": len(utilities)}),
                     default_dim=len(utilities))
    return _construct("problem", make_allocation, utilities, fset,
                      grid_resolution=_grid_resolution(spec, 1e-3))


def build_schedule(spec):
    kind = spec.get("kind")
    if kind == "constant":
        return _construct("schedule.alpha", Constant,
                          _number(spec, "schedule", "alpha"))
    if kind == "powerlaw":
        return _construct("schedule", PowerLaw,
                          _number(spec, "schedule", "a", 1.0),
                          _number(spec, "schedule", "p", 1.0))
    raise ConfigError(f"unknown schedule kind {kind!r}", field="schedule.kind")


def build_noise(spec):
    kind = spec.get("kind", "none")

    def level(key):  # noise magnitudes are nonnegative
        return _number(spec, "noise", key, minimum=0.0)

    if kind == "none":
        return NoNoise()
    if kind == "gaussian":
        return GaussianNoise(level("sigma"))
    if kind == "biased_gaussian":
        return BiasedGaussianNoise(level("bias"), level("sigma"))
    if kind == "bounded_uniform":
        return BoundedUniformNoise(level("radius"))
    raise ConfigError(f"unknown noise kind {kind!r}", field="noise.kind")


_GRAPHS = ("ring", "path", "complete")


def build_topology(spec, m):
    kind = spec.get("kind")
    if kind in _GRAPHS:
        return make_topology("static", m, graph=kind)
    if kind == "periodic" and "phases" not in spec:
        raise ConfigError("missing required entry", field="topology.phases")
    params = {k: v for k, v in spec.items() if k != "kind"}
    for key in ("base", "graph"):
        if isinstance(params.get(key), str) and params[key] not in _GRAPHS:
            raise ConfigError(f"expected one of {', '.join(_GRAPHS)} or an edge "
                              f"list, got {params[key]!r}", field=f"topology.{key}")
    for key, minimum, as_type in (("window", 1, int), ("seed", 0, int),
                                  ("inclusion_prob", None, float)):
        if key in params:
            params[key] = _number(spec, "topology", key, minimum=minimum, kind=as_type)
    try:
        return make_topology(kind, m, **params)
    except (TypeError, ValueError) as exc:  # malformed edge lists
        raise ConfigError(str(exc), field="topology") from None


def build_scheme(spec):
    params = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return make_scheme(spec.get("kind"), **params)
    except (TypeError, ValueError) as exc:  # non-numeric weights
        raise ConfigError(str(exc), field="scheme") from None


def initial_state(config, problem):
    """The run's start ``(x0, s0)``, checked against the problem.

    ``x0 = "auto"`` is the origin projected onto the feasible set; a fixed
    initial agent ``s0`` must be one of the problem's agents.
    """
    if isinstance(config.x0, str) and config.x0 == "auto":
        x0 = problem.feasible_set.project_many(np.zeros(problem.n))
    else:
        x0 = _floats(config.x0, "x0")
        if x0.shape != (problem.n,) or not np.isfinite(x0).all():
            raise ConfigError(f"expected {problem.n} finite numbers, got "
                              f"{config.x0!r}", field="x0")
    if config.s0 != "uniform" and not config.s0 < problem.m:
        raise ConfigError(f"must be 'uniform' or an agent index in [0, "
                          f"{problem.m}), got {config.s0}", field="s0")
    return x0, config.s0
