"""The one rule for the numbers a caller passes in, at every entry it guards.

Each entry passes one argument to a public boundary.  A count refuses a
bool, a string, a non-integer float and an integer past the float range,
even one too long to print; a real refuses a bool, a string, NaN, an
infinity and an integer past the float range; each with its boundary's own
error type and the rule's message.  A numpy scalar goes in, and what the
entry keeps of it is a Python int or float.
"""

import math

import numpy as np
import pytest

from emmfit import families as fam
from emmfit import mixture as mx
from emmfit import optim
from emmfit import transport as tp
from emmfit.errors import GenerationError, InvalidFamilyError, MismatchError

# -10**5000 has more digits than Python prints by default
BAD = {int: (True, "2", 2.5, 10**400, -(10**5000)), float: (True, "2", math.nan, math.inf, 10**400)}

MODEL = mx.MixtureModel(fam.gaussian(2), [0.5, 0.5], [[0.0, 0.0], [3.0, 0.0]], np.stack([np.eye(2)] * 2))

# a valid value of every parameter of every family that has one
FAMILY_PARAMS = {
    fam.Kotz: {"a": 1.5, "b": 0.5, "s": 1.0},
    fam.PearsonVII: {"v": 3.0, "s": 2.5},
    fam.Hyperbolic: {"v": 2.0, "a": 1.0, "lam": 1.0},
    fam.AlphaStable: {"alpha": 1.5},
    fam.PearsonII: {"s": 2.0},
}


def family_param(cls, name):
    return lambda value: getattr(cls(m=2, **{**FAMILY_PARAMS[cls], name: value}), name)


def config_setting(name):
    return lambda value: getattr(optim.OptimizerConfig(**{name: value}), name)


def synthetic_argument(name):
    def call(value):
        args = {"m": 2, "k": 2, "n": 10, "eccentricity": 4.0, "separation": 3.0, name: value}
        mx.generate_synthetic(**args, rng=np.random.default_rng(0))

    return call


def initialize_k(value):
    data = mx.sample_mixture(MODEL, np.random.default_rng(0), 20)
    optim.initialize(data, value, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(0))


def sample_mixture_n(value):
    mx.sample_mixture(MODEL, np.random.default_rng(0), value)


def sample_n(value):
    fam.sample(MODEL.component(0), np.random.default_rng(0), value)


# (entry, argument, call, error, int or float, a valid value); call passes
# the value to the entry and returns what the entry keeps of it, or None
# where it keeps nothing
ENTRIES = [
    ("family", "m", lambda v: fam.PearsonVII(m=v, v=3.0, s=2.5).m, InvalidFamilyError, int, 2),
    ("make_family cauchy", "m", lambda v: fam.make_family("cauchy", v).m, InvalidFamilyError, int, 2),
    *[
        (cls.__name__, name, family_param(cls, name), InvalidFamilyError, float, good)
        for cls, params in FAMILY_PARAMS.items()
        for name, good in params.items()
    ],
    ("OptimizerConfig", "alpha", config_setting("alpha"), MismatchError, float, 0.1),
    ("OptimizerConfig", "em_tol", config_setting("em_tol"), MismatchError, float, 1e-8),
    ("OptimizerConfig", "max_iters", config_setting("max_iters"), MismatchError, int, 3),
    ("OptimizerConfig", "seed", config_setting("seed"), MismatchError, int, 7),
    ("initialize", "k", initialize_k, MismatchError, int, 2),
    ("generate_synthetic", "m", synthetic_argument("m"), GenerationError, int, 2),
    ("generate_synthetic", "k", synthetic_argument("k"), GenerationError, int, 2),
    ("generate_synthetic", "n", synthetic_argument("n"), GenerationError, int, 10),
    ("generate_synthetic", "eccentricity", synthetic_argument("eccentricity"), GenerationError, float, 4.0),
    ("generate_synthetic", "separation", synthetic_argument("separation"), GenerationError, float, 3.0),
    ("sample_mixture", "n", sample_mixture_n, GenerationError, int, 5),
    ("families.sample", "n", sample_n, GenerationError, int, 5),
    ("random_projections", "m", lambda v: tp.random_projections(v, 1, np.random.default_rng(0)).shape[1],
     MismatchError, int, 2),
    ("random_projections", "count", lambda v: tp.random_projections(2, v, np.random.default_rng(0)).shape[0],
     MismatchError, int, 3),
    ("from_dict", "m", lambda v: mx.MixtureModel.from_dict({**MODEL.to_dict(), "m": v}).family.m,
     InvalidFamilyError, int, 2),
]


@pytest.mark.parametrize(
    "arg, call, error, kind, good", [pytest.param(*entry[1:], id=" ".join(entry[:2])) for entry in ENTRIES]
)
def test_every_entry_refuses_the_same_bad_values_and_keeps_python_numbers(arg, call, error, kind, good):
    for bad in BAD[kind]:
        with pytest.raises(error, match=f"^{arg} must be"):
            call(bad)
    value = np.int64(good) if kind is int else np.float32(good)
    kept = call(value)
    assert kept is None or (type(kept) is kind and kept == value)

