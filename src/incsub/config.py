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


_CYCLIC_ONLY = ()
_MARKOV_ONLY = ("topology", "scheme", "s0")


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

        def need(name, kind, minimum=None):
            if name not in nested:
                raise ConfigError("missing required entry", field=name)
            value = nested[name]
            try:
                value = kind(value)
            except (TypeError, ValueError):
                raise ConfigError(f"expected {kind.__name__}", field=name)
            if minimum is not None and value < minimum:
                raise ConfigError(f"must be >= {minimum}, got {value}", field=name)
            return value

        horizon = need("horizon", int, 0)
        replications = need("replications", int, 1) if "replications" in nested else 1
        seed = need("seed", int, 0) if "seed" in nested else 0
        stride = need("stride", int, 1) if "stride" in nested else 1
        out_dir = str(nested.get("out", "incsub_out"))
        tail = float(nested.get("tail_fraction", 0.1))
        if not 0.0 < tail <= 1.0:
            raise ConfigError("must be in (0, 1]", field="tail_fraction")
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
                   s0=nested.get("s0", "uniform"), x0=nested.get("x0", "auto"),
                   tail_fraction=tail, verify=nested.get("verify", {}),
                   compare=nested.get("compare"), flat=flat)

    def hash(self):
        return config_hash(self.flat)


# -- builders -----------------------------------------------------------------
#
# Builders turn every bad entry into a ConfigError naming its dotted path, so
# a bad config stops with exit code 2 before any tick runs.

_MISSING = object()


def _number(spec, section, key, default=_MISSING, minimum=None):
    """``spec[key]`` as a float; ``minimum`` is inclusive."""
    field = f"{section}.{key}"
    raw = spec.get(key, default)
    if raw is _MISSING:
        raise ConfigError("missing required entry", field=field)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {raw!r}", field=field) from None
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", field=field)
    return value


def _construct(section, cls, *args):
    """``cls(*args)``, with the constructor's range checks as ConfigErrors."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), field=section) from None


def build_set(spec, default_dim=None):
    kind = spec.get("kind")
    if kind == "box":
        lower, upper = spec.get("lower"), spec.get("upper")
        if np.isscalar(lower):
            if default_dim is None:
                raise ConfigError("scalar box bounds need a known dimension",
                                  field="problem.set")
            lower = [lower] * default_dim
            upper = [upper] * default_dim
        return _construct("problem.set", Box, np.asarray(lower, float),
                          np.asarray(upper, float))
    if kind == "ball":
        center = spec.get("center", 0.0)
        if np.isscalar(center):
            if default_dim is None:
                raise ConfigError("scalar ball center needs a known dimension",
                                  field="problem.set")
            center = [center] * default_dim
        return _construct("problem.set", Ball, np.asarray(center, float),
                          _number(spec, "problem.set", "radius"))
    if kind == "simplex":
        dim = int(spec.get("dim", default_dim or 0))
        if dim < 1:
            raise ConfigError("simplex needs a dimension", field="problem.set.dim")
        return _construct("problem.set", Simplex,
                          _number(spec, "problem.set", "scale", 1.0), dim)
    raise ConfigError(f"unknown set kind {kind!r}", field="problem.set.kind")


def build_problem(spec):
    fixture = spec.get("fixture")
    if fixture == "quadratic":
        m = int(spec.get("m", 1))
        n = int(spec.get("n", 1))
        fset = build_set(spec.get("set", {"kind": "box", "lower": -1.0, "upper": 1.0}),
                         default_dim=n)
        return make_quadratic_suite(
            m, n, float(spec.get("spread", 1.0)), fset,
            centers=spec.get("centers"), seed=int(spec.get("centers_seed", 0)),
            grid_resolution=spec.get("grid_resolution"))
    if fixture == "regression":
        features = spec.get("features")
        samples = spec.get("samples")
        if features is None or samples is None:
            raise ConfigError("regression fixture needs features and samples",
                              field="problem")
        n = len(features[0])
        if "set" not in spec:
            raise ConfigError("missing required entry", field="problem.set")
        fset = build_set(spec["set"], default_dim=n)
        locations = list(range(len(features)))
        feats = [np.asarray(f, float) for f in features]
        return make_regression(locations, lambda s: feats[s], fset,
                               samples=[np.asarray(r, float) for r in samples],
                               grid_resolution=float(spec.get("grid_resolution", 1e-3)))
    if fixture == "allocation":
        from .objectives import LinearUtility, LogUtility, SqrtUtility

        specs = spec.get("utilities")
        if not specs:
            raise ConfigError("allocation fixture needs a utilities list",
                              field="problem.utilities")
        utilities = []
        for u in specs:
            kind = u.get("kind")
            if kind == "log":
                utilities.append(LogUtility(float(u.get("weight", 1.0))))
            elif kind == "sqrt":
                utilities.append(SqrtUtility(float(u.get("floor", 1e-4))))
            elif kind == "linear":
                utilities.append(LinearUtility(float(u.get("slope", 1.0)),
                                               u.get("cap")))
            else:
                raise ConfigError(f"unknown utility kind {kind!r}",
                                  field="problem.utilities")
        fset = build_set(spec.get("set", {"kind": "simplex", "scale": 1.0,
                                          "dim": len(utilities)}),
                         default_dim=len(utilities))
        return make_allocation(utilities, fset,
                               grid_resolution=float(spec.get("grid_resolution", 1e-3)))
    raise ConfigError(f"unknown fixture {fixture!r}", field="problem.fixture")


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


def build_topology(spec, m):
    kind = spec.get("kind")
    if kind in ("ring", "path", "complete"):
        return make_topology("static", m, graph=kind)
    if kind == "periodic" and "phases" not in spec:
        raise ConfigError("missing required entry", field="topology.phases")
    params = {k: v for k, v in spec.items() if k != "kind"}
    return make_topology(kind, m, **params)


def build_scheme(spec):
    params = {k: v for k, v in spec.items() if k != "kind"}
    return make_scheme(spec.get("kind"), **params)


def initial_point(config, problem):
    if isinstance(config.x0, str) and config.x0 == "auto":
        return problem.feasible_set.project_many(np.zeros(problem.n))
    return np.asarray(config.x0, dtype=float)
