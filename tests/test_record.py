"""Frozen records: the behaviour the package's value classes rely on.

Every record used to be a frozen dataclass; these tests pin what callers
and tests use of that: positional and keyword construction with defaults
and per-instance factories, `__post_init__` validation and normalization,
immutability, equality and hashing, repr and `KernelSpec.with_beta`.
"""

import numpy as np
import pytest

from bridgegp import FLAT, HyperPrior, KernelSpec, StudyReport, fixed
from bridgegp.pde import ExpressionSourceFamily
from bridgegp.record import Factory, FrozenInstanceError, Record


class Point(Record):
    x: float
    y: float = 0.0
    tags: list = Factory(list)

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")
        object.__setattr__(self, "x", float(self.x))


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        assert Point(1, 2).y == 2
        assert Point(x=1).y == 0.0
        assert Point(1, tags=["a"]).tags == ["a"]
        spec = KernelSpec("bridge", 2, 8, beta=3.0)
        assert (spec.family, spec.dim, spec.order, spec.beta) == ("bridge", 2, 8, 3.0)

    def test_factory_default_is_made_per_instance(self):
        a, b = Point(1), Point(2)
        a.tags.append("a")
        assert b.tags == [] and "tags" not in vars(Point)
        report = StudyReport("k", {}, (), ())
        assert report.extras == {} and report.extras is not StudyReport("k", {}, (), ()).extras
        assert ExpressionSourceFamily("a*x", ("a",)).fixed == {}

    def test_argument_errors(self):
        with pytest.raises(TypeError, match="missing"):
            Point()
        with pytest.raises(TypeError, match="positional"):
            Point(1, 2, [], 4)
        with pytest.raises(TypeError, match="multiple values"):
            Point(1, x=2)
        with pytest.raises(TypeError, match="unexpected"):
            Point(1, z=2)

    def test_post_init_validates_and_normalizes(self):
        assert isinstance(Point(3).x, float)
        with pytest.raises(ValueError):
            Point(-1)
        with pytest.raises(ValueError):
            KernelSpec("bridge", beta=0.0)
        assert KernelSpec("bridge", dim=2).order == 64


class TestValueSemantics:
    def test_fields_are_frozen(self):
        spec = KernelSpec("bridge")
        with pytest.raises(FrozenInstanceError):
            spec.beta = 2.0
        with pytest.raises(AttributeError):
            del spec.beta
        with pytest.raises(AttributeError):
            spec.other = 1
        assert spec.beta == 1.0

    def test_equality_and_hash(self):
        assert KernelSpec("bridge", order=8) == KernelSpec("bridge", 1, 8, 1.0)
        assert KernelSpec("bridge", order=8) != KernelSpec("bridge", order=9)
        assert KernelSpec("bridge") != Point(1)
        assert len({KernelSpec("bridge"), KernelSpec("bridge"), KernelSpec("bridge", beta=2)}) == 2
        assert HyperPrior("flat") == FLAT and hash(HyperPrior("flat")) == hash(FLAT)
        assert fixed(2.0) == HyperPrior("fixed", 2) and fixed(2.0) != fixed(3.0)

    def test_repr_lists_the_fields(self):
        assert repr(Point(1, 2)) == "Point(x=1.0, y=2, tags=[])"
        assert repr(FLAT) == "HyperPrior(kind='flat', beta0=None)"

    def test_with_beta_revalidates(self):
        spec = KernelSpec("helmholtz", order=16, beta=2.0, omega=1.5)
        assert spec.with_beta(5.0) == KernelSpec("helmholtz", 1, 16, 5.0, 1.5)
        with pytest.raises(ValueError):
            spec.with_beta(np.inf)
