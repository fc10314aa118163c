"""The two contracts checked against the imported classes, not their syntax.

The contract linter (:mod:`repro.analysis`) reads source without importing
it, so it cannot see Python's real method resolution.  These two contracts
depend on it, so they are executed here with :mod:`inspect`:

* **engine seam** — every registered engine accepts each method of the
  :class:`~repro.core.engine.QueryEngine` protocol with the positional calls
  a registry caller makes (the method's required and its full arity), and
  ``from_payload`` is a classmethod, so payload dispatch needs no instance;
* **oracle batch parity** — every ``FairnessOracle`` subclass under ``repro``
  that defines a concrete ``is_satisfactory`` of its own also resolves
  ``is_satisfactory_many``, so ``suggest_many`` keeps the batched protocol
  and the scalar/batched bit-parity suite has a twin to check.  The reviewed
  black boxes in :data:`BLACK_BOX_ORACLES` are exempt.

Each check is also run on violating in-test classes, so a check that stopped
catching anything would fail, and every exemption must still be needed.
``scripts/check_contracts.py`` runs this file after the linter.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.core.engine import QueryEngine, available_engines, get_engine
from repro.fairness.oracle import FairnessOracle

#: Oracles that deliberately have no batched twin, with the reviewed reason.
BLACK_BOX_ORACLES = {
    # The declared black-box adapter: it wraps an arbitrary
    # (ordering, dataset) -> bool callable, so there is no vectorised twin to
    # write; batch paths fall back to the per-query loop for it.
    "repro.fairness.oracle.CallableOracle": "wraps an arbitrary callable",
    # Injects per-ordering deterministic faults: the chaos suite relies on
    # batched paths taking the per-query fallback, so a poisoned query fails
    # identically on every route.
    "repro.resilience.chaos.ChaosOracle": "must fail per query on every route",
}


# --------------------------------------------------------------------------- #
# the engine seam
# --------------------------------------------------------------------------- #
def _seam_arities() -> dict[str, tuple[int, ...]]:
    """Each protocol method's required and full positional arity."""
    positional_kinds = (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
    arities = {}
    for name, member in vars(QueryEngine).items():
        if name.startswith("_"):
            continue
        if isinstance(member, classmethod):
            member = member.__func__
        elif not inspect.isfunction(member):
            continue
        parameters = [
            parameter
            for parameter in inspect.signature(member).parameters.values()
            if parameter.kind in positional_kinds
        ][1:]  # drop self / cls
        required = sum(1 for p in parameters if p.default is inspect.Parameter.empty)
        arities[name] = tuple(sorted({required, len(parameters)}))
    return arities


def _binds(signature: inspect.Signature, n_args: int) -> bool:
    try:
        signature.bind(*[None] * n_args)
    except TypeError:
        return False
    return True


def seam_violations(cls: type) -> dict[str, str]:
    """Protocol method name -> what is wrong with it on ``cls`` (empty when sound)."""
    problems = {}
    for name, arities in _seam_arities().items():
        try:
            member = inspect.getattr_static(cls, name)
        except AttributeError:
            problems[name] = f"{cls.__name__} does not define or inherit {name}()"
            continue
        if isinstance(member, (classmethod, staticmethod)):
            signature, implicit = inspect.signature(getattr(cls, name)), 0
        elif callable(member):
            signature, implicit = inspect.signature(member), 1  # self
        else:
            problems[name] = f"{cls.__name__}.{name} is not a method"
            continue
        rejected = [n for n in arities if not _binds(signature, implicit + n)]
        if rejected:
            problems[name] = (
                f"{cls.__name__}.{name}() cannot be called with "
                f"{' or '.join(map(str, rejected))} positional argument(s)"
            )
        elif name == "from_payload" and not isinstance(member, classmethod):
            problems[name] = f"{cls.__name__}.from_payload() must be a classmethod"
    return problems


class SeamBase:
    def preprocess(self, dataset=None, oracle=None):
        return self

    def suggest_many(self, weights_matrix):
        return [self.suggest(row) for row in weights_matrix]

    def apply_delta(self, delta):
        return None

    def refresh(self):
        return None

    def to_payload(self):
        return {}

    @classmethod
    def from_payload(cls, payload, oracle):
        return cls()


class FullEngine(SeamBase):
    """The full seam, most of it inherited."""

    def suggest(self, function):
        return None

    @classmethod
    def capabilities(cls):
        return None


class HalfEngine:
    """Missing methods, a wrong arity and an instance-method ``from_payload``."""

    def preprocess(self, dataset):
        return self

    def suggest(self, function):
        return None

    def to_payload(self):
        return {}

    def from_payload(self, payload, oracle):
        return self


class TestEngineSeam:
    def test_the_seam_is_the_protocol_with_its_arities(self):
        assert _seam_arities() == {
            "preprocess": (0, 2),
            "suggest": (1,),
            "suggest_many": (1,),
            "apply_delta": (1,),
            "refresh": (0,),
            "capabilities": (0,),
            "to_payload": (0,),
            "from_payload": (2,),
        }

    @pytest.mark.parametrize("name", sorted(available_engines()))
    def test_registered_engine_accepts_the_seam(self, name):
        assert seam_violations(get_engine(name)) == {}

    def test_inherited_seam_methods_count(self):
        assert seam_violations(FullEngine) == {}

    def test_partial_engine_fails_naming_each_method(self):
        problems = seam_violations(HalfEngine)
        assert set(problems) == {
            "preprocess",
            "suggest_many",
            "apply_delta",
            "refresh",
            "capabilities",
            "from_payload",
        }
        for method, message in problems.items():
            assert "HalfEngine" in message and method in message
        assert "0 or 2 positional" in problems["preprocess"]
        assert "classmethod" in problems["from_payload"]


# --------------------------------------------------------------------------- #
# oracle batch parity
# --------------------------------------------------------------------------- #
def _qualified(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _subclasses(cls: type) -> set[type]:
    found = set()
    for subclass in cls.__subclasses__():
        found |= {subclass} | _subclasses(subclass)
    return found


def repro_oracles() -> list[type]:
    """Every ``FairnessOracle`` subclass defined under ``repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    return sorted(
        (cls for cls in _subclasses(FairnessOracle) if cls.__module__.startswith("repro.")),
        key=_qualified,
    )


def parity_violations(classes, exempt) -> list[str]:
    """Qualified names of the oracles that override the scalar verdict only."""
    violations = []
    for cls in classes:
        own = vars(cls).get("is_satisfactory")
        if own is None or getattr(own, "__isabstractmethod__", False):
            continue
        if hasattr(cls, "is_satisfactory_many") or _qualified(cls) in exempt:
            continue
        violations.append(_qualified(cls))
    return violations


class ScalarOnlyOracle(FairnessOracle):
    def is_satisfactory(self, ordering, dataset):
        return True


class PairedOracle(FairnessOracle):
    def is_satisfactory(self, ordering, dataset):
        return True

    def is_satisfactory_many(self, orderings, dataset):
        return np.ones(len(orderings), dtype=bool)


class InheritingOracle(PairedOracle):
    """Overrides the scalar path; the batched twin is inherited."""

    def is_satisfactory(self, ordering, dataset):
        return False


class TestOracleBatchParity:
    def test_every_repro_oracle_keeps_a_batched_twin(self):
        assert parity_violations(repro_oracles(), BLACK_BOX_ORACLES) == []

    @pytest.mark.parametrize("name", sorted(BLACK_BOX_ORACLES))
    def test_every_exemption_is_needed(self, name):
        others = set(BLACK_BOX_ORACLES) - {name}
        assert parity_violations(repro_oracles(), others) == [name]

    def test_scalar_only_override_fails_naming_the_class(self):
        classes = [ScalarOnlyOracle, PairedOracle, InheritingOracle]
        assert parity_violations(classes, {}) == [_qualified(ScalarOnlyOracle)]
        assert parity_violations(classes, {_qualified(ScalarOnlyOracle)}) == []
