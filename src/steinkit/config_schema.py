"""Published JSON schemas for experiment configs, one per CLI subcommand.

Configs are validated against these (draft 2020-12) schemas before any
computation runs; unknown keys are rejected everywhere.  ``steinkit <cmd>
--print-schema`` dumps the active schema.
"""

from __future__ import annotations

_BANDWIDTH_OR_MEDIAN = {
    "oneOf": [{"type": "number", "exclusiveMinimum": 0}, {"const": "median-heuristic"}]
}

_KERNEL = {"type": "object", "additionalProperties": False, "properties": {"bandwidth": _BANDWIDTH_OR_MEDIAN}}

_SCHEDULE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mode": {"enum": ["constant", "adam", "decay"]},
        "eps": {"type": "number", "minimum": 0},
        "beta1": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "beta2": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "decay_exponent": {"type": "number", "minimum": 0},
    },
}

_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_VECTOR = {"type": "array", "items": {"type": "number"}}
# the vectors that set a continuous model's dimension or a mixture's component count are never empty
_NONEMPTY_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_NONEMPTY_MATRIX = {"type": "array", "items": _NONEMPTY_VECTOR, "minItems": 1}

_GAUSSIAN_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mu", "sigma"],
    "properties": {
        "mu": _NONEMPTY_VECTOR,
        "sigma": {"type": "number", "exclusiveMinimum": 0},
    },
}

_CONTINUOUS_MODEL = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "mu", "sigma"],
            "properties": {"type": {"const": "gaussian"}, "mu": _NONEMPTY_VECTOR, "sigma": {"type": "number", "exclusiveMinimum": 0}},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "weights", "means", "sigma"],
            "properties": {
                "type": {"const": "gmm"},
                "weights": _NONEMPTY_VECTOR,
                "means": _NONEMPTY_MATRIX,
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "log_scale": {"type": "number"},
                "normalized": {"type": "boolean"},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "components", "dim"],
            "properties": {
                "type": {"const": "gmm-random"},
                "components": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 1},
                "low": {"type": "number"},
                "high": {"type": "number"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "log_scale": {"type": "number"},
                "normalized": {"type": "boolean"},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "B", "b", "c"],
            "properties": {"type": {"const": "gauss-bernoulli-rbm"}, "B": _MATRIX, "b": _NONEMPTY_VECTOR, "c": _VECTOR},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "dim", "hidden"],
            "properties": {
                "type": {"const": "gauss-bernoulli-rbm-random"},
                "dim": {"type": "integer", "minimum": 1},
                "hidden": {"type": "integer", "minimum": 1},
            },
        },
    ]
}

_DISCRETE_MODEL = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "rows", "cols", "theta"],
            "properties": {
                "type": {"const": "ising-grid"},
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 1},
                "theta": {"type": "number"},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "W", "b", "c"],
            "properties": {"type": {"const": "bernoulli-rbm"}, "W": _MATRIX, "b": _VECTOR, "c": _VECTOR},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "dims", "hidden"],
            "properties": {
                "type": {"const": "bernoulli-rbm-random"},
                "dims": {"type": "integer", "minimum": 1},
                "hidden": {"type": "integer", "minimum": 1},
                "w_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "states", "masses"],
            "properties": {"type": {"const": "categorical"}, "states": _VECTOR, "masses": _VECTOR},
        },
    ]
}

_SURROGATE_MODE = {"enum": ["base", "relaxed", "ising"]}

# the continuous surrogate of gfsvgd and bbis: the target itself or a Gaussian
_SURROGATE = {
    "oneOf": [
        {"type": "object", "additionalProperties": False, "required": ["type"],
         "properties": {"type": {"const": "target"}}},
        {"type": "object", "additionalProperties": False, "required": ["type", "mu", "sigma"],
         "properties": {"type": {"const": "gaussian"}, "mu": _NONEMPTY_VECTOR,
                        "sigma": {"type": "number", "exclusiveMinimum": 0}}},
    ]
}


def _command(required: list[str], properties: dict) -> dict:
    props = {"seed": {"type": "integer", "minimum": 0}}
    props.update(properties)
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "additionalProperties": False,
        "required": required,
        "properties": props,
    }


CONFIG_SCHEMAS: dict[str, dict] = {
    "svgd": _command(
        ["model", "n", "iters"],
        {
            "model": _CONTINUOUS_MODEL,
            "n": {"type": "integer", "minimum": 1},
            "iters": {"type": "integer", "minimum": 0},
            "kernel": _KERNEL,
            "schedule": _SCHEDULE,
            "init": _GAUSSIAN_SPEC,
            "metric_every": {"type": "integer", "minimum": 1},
            "emit_samples": {"type": "boolean"},
        },
    ),
    "gfsvgd": _command(
        ["model", "n", "iters"],
        {
            "model": _CONTINUOUS_MODEL,
            "surrogate": _SURROGATE,
            "weight_mode": {"enum": ["self-normalized", "plain", "rank"]},
            "n": {"type": "integer", "minimum": 1},
            "iters": {"type": "integer", "minimum": 0},
            "kernel": _KERNEL,
            "schedule": _SCHEDULE,
            "init": _GAUSSIAN_SPEC,
            "metric_every": {"type": "integer", "minimum": 1},
            "emit_samples": {"type": "boolean"},
        },
    ),
    "agf-svgd": _command(
        ["model", "p0", "n", "n_temps"],
        {
            "model": _CONTINUOUS_MODEL,
            "p0": _GAUSSIAN_SPEC,
            "n": {"type": "integer", "minimum": 1},
            "n_temps": {"type": "integer", "minimum": 1},
            "kernel": _KERNEL,
            "schedule": _SCHEDULE,
            "smoothing_h": _BANDWIDTH_OR_MEDIAN,
            "metric_every": {"type": "integer", "minimum": 1},
            "emit_samples": {"type": "boolean"},
        },
    ),
    "steinis": _command(
        ["model", "q0", "iters"],
        {
            "model": _CONTINUOUS_MODEL,
            "q0": _GAUSSIAN_SPEC,
            "n_leaders": {"type": "integer", "minimum": 1},
            "n_followers": {"type": "integer", "minimum": 1},
            "iters": {"type": "integer", "minimum": 0},
            "kernel": _KERNEL,
            "schedule": _SCHEDULE,
            "det_mode": {"enum": ["exact", "first-order", "auto"]},
            "emit_samples": {"type": "boolean"},
        },
    ),
    "path-logz": _command(
        ["model", "q0", "n", "iters"],
        {
            "model": _CONTINUOUS_MODEL,
            "q0": _GAUSSIAN_SPEC,
            "n": {"type": "integer", "minimum": 1},
            "iters": {"type": "integer", "minimum": 0},
            "kernel": _KERNEL,
            "schedule": _SCHEDULE,
            "m0": {"type": "integer", "minimum": 1},
        },
    ),
    "discrete-sample": _command(
        ["model", "n", "iters"],
        {
            "model": _DISCRETE_MODEL,
            "surrogate_mode": _SURROGATE_MODE,
            "n": {"type": "integer", "minimum": 1},
            "iters": {"type": "integer", "minimum": 0},
            "kernel": _KERNEL,
            "schedule": _SCHEDULE,
            "lam": {"type": "number", "exclusiveMinimum": 0},
            "temperature": {"type": "number", "exclusiveMinimum": 0},
        },
    ),
    "gof": _command(
        ["model", "data"],
        {
            "model": _DISCRETE_MODEL,
            "data": {
                "oneOf": [
                    {"type": "object", "additionalProperties": False, "required": ["path"],
                     "properties": {"path": {"type": "string"}}},
                    {"type": "object", "additionalProperties": False, "required": ["model", "n"],
                     "properties": {"model": _DISCRETE_MODEL, "n": {"type": "integer", "minimum": 2}}},
                ]
            },
            "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "m": {"type": "integer", "minimum": 1},
            "surrogate_mode": _SURROGATE_MODE,
            "kernel_h": _BANDWIDTH_OR_MEDIAN,
            "lam": {"type": "number", "exclusiveMinimum": 0},
        },
    ),
    "bbis": _command(
        ["model", "points"],
        {
            "model": _CONTINUOUS_MODEL,
            "surrogate": _SURROGATE,
            "points": {
                "oneOf": [
                    {"type": "object", "additionalProperties": False, "required": ["path"],
                     "properties": {"path": {"type": "string"}}},
                    {"type": "object", "additionalProperties": False, "required": ["mu", "sigma", "n"],
                     "properties": {"mu": _NONEMPTY_VECTOR, "sigma": {"type": "number", "exclusiveMinimum": 0},
                                    "n": {"type": "integer", "minimum": 1}}},
                ]
            },
            "kernel_h": _BANDWIDTH_OR_MEDIAN,
            "max_iter": {"type": "integer", "minimum": 1},
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
    ),
    "aggregate": _command(
        ["dim", "machines", "n_grid", "trials"],
        {
            "dim": {"type": "integer", "minimum": 1},
            "machines": {"type": "integer", "minimum": 1},
            "n_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1, "uniqueItems": True},
            "trials": {"type": "integer", "minimum": 1},
            "methods": {
                "type": "array",
                "items": {"enum": ["kl-naive", "kl-control", "kl-weighted", "linear"]},
                "minItems": 1,
            },
            "big_n": {"type": "number", "exclusiveMinimum": 0},
            "known_covariance": {"type": "boolean"},
        },
    ),
    "oracle": _command(
        ["oracle", "model"],
        {
            "oracle": {"enum": ["brute-force", "finite-difference-score"]},
            "model": {"oneOf": [_CONTINUOUS_MODEL, _DISCRETE_MODEL]},
            "points": {"type": "integer", "minimum": 1},
        },
    ),
}
