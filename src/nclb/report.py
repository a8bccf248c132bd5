"""Check-report records shared by the verification pipelines and the CLI,
with the library's base error and the names every layer shares, among them
the `record` class decorator that every record class of the library uses."""

from __future__ import annotations

import math
import operator

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# seed of every sampled check unless a caller passes one
DEFAULT_SEED = 0xC0FFEE


class NclbError(Exception):
    """Base of the library's own error classes; each subclass also keeps its
    own builtin base (ValueError, RuntimeError, ...).  Plain ValueError and
    TypeError are left for misuse of the API (operators over different
    variables, a singular exact matrix, a non-expression argument)."""


class factory:
    """A record field's default made afresh for each instance, as in
    `c: dict = factory(dict)`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


_MISSING = object()


def _frozen_error(verb, name):
    # imported on the raising path only: `dataclasses` pulls in `inspect`,
    # which nothing else on the symbolic paths loads
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def frozen_setattr(self, name, value):
    """`__setattr__` of an immutable class: every assignment raises
    `dataclasses.FrozenInstanceError`."""
    raise _frozen_error("assign to", name)


def frozen_delattr(self, name):
    """`__delattr__` of an immutable class: every deletion raises
    `dataclasses.FrozenInstanceError`."""
    raise _frozen_error("delete", name)


def _record_repr(self):
    shown = ", ".join(f"{name}={value!r}" for name, value
                      in zip(self._record_fields, self._record_values(self)))
    return f"{type(self).__qualname__}({shown})"


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_values(self) == other._record_values(other)
    return NotImplemented


def _record_hash(self):
    return hash(self._record_values(self))


def record(cls=None, *, frozen=True):
    """Class decorator making `cls` a record of its annotated fields, in
    order, with the semantics of `dataclasses.dataclass(frozen=frozen)`.

    It adds `__init__` (positional or keyword fields; a class attribute is
    the field's default, a `factory` one makes a default per instance; then
    `__post_init__` when the class has one), `__repr__`
    (`Name(field=value!r, ...)`), `__eq__` (same class and equal field
    tuples, else NotImplemented) and, on a frozen record, `__hash__` of the
    field tuple and the `frozen_setattr` and `frozen_delattr` guards; a
    mutable record is unhashable.  A method the class defines itself is
    kept.  Only `__init__` is generated, from one source compiled once per
    class, so an instance costs what a hand-written one does; `__repr__`,
    `__eq__` and `__hash__` are three functions every record class shares,
    over the class's `_record_values`, the tuple of an instance's fields.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    env = {"__name__": cls.__module__, "_setattr": object.__setattr__,
           "_MISSING": _MISSING}
    params, body = ["self"], []
    for name in names:
        default = vars(cls).get(name, _MISSING)
        value = name
        if isinstance(default, factory):
            delattr(cls, name)
            env[f"_make_{name}"] = default.make
            params.append(f"{name}=_MISSING")
            value = f"_make_{name}() if {name} is _MISSING else {name}"
        elif default is not _MISSING:
            env[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"_setattr(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    methods = {"__repr__": _record_repr, "__eq__": _record_eq}
    if frozen:
        methods["__hash__"] = _record_hash
    if "__init__" not in vars(cls):
        exec(f"def __init__({', '.join(params)}):\n"  # noqa: S102 - generated from the fields
             + "".join(f"    {line}\n" for line in body), env)
        env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        methods["__init__"] = env["__init__"]
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    if frozen:
        cls.__setattr__, cls.__delattr__ = frozen_setattr, frozen_delattr
    else:
        cls.__hash__ = None
    cls._record_fields = names
    # attrgetter of one name gives the bare value, not its 1-tuple
    cls._record_values = staticmethod(
        operator.attrgetter(*names) if len(names) > 1
        else lambda obj: tuple(getattr(obj, name) for name in names))
    return cls


def replace(obj, /, **changes):
    """A copy of the record `obj` with the fields named in `changes` set to
    their values, built through `__init__`, so `__post_init__` checks it
    again; cached properties of `obj` are not carried over."""
    for name in obj._record_fields:
        changes.setdefault(name, getattr(obj, name))
    return type(obj)(**changes)


def worst(values, floor=0.0):
    """max(floor, *values), or NaN as soon as one value is NaN or infinite.

    Plain max() drops a NaN anywhere but in first place, so a check fed
    non-finite numbers could pass, or decide its verdict by sample order;
    here they make the figure non-finite and any `<= tol` gate on it fail.
    """
    out = floor
    for v in values:
        if not math.isfinite(v):
            return math.nan
        out = max(out, v)
    return out


@record(frozen=False)
class CheckRecord:
    check: str
    status: str
    max_residual: float | None = None
    samples_used: int = 0
    seed: int | None = None
    skipped_samples: int = 0
    detail: dict = factory(dict)

    @property
    def passed(self):
        return self.status == PASS

    def to_dict(self):
        doc = {
            "check": self.check,
            "status": self.status,
            "max_residual": self.max_residual,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "skipped_samples": self.skipped_samples,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


# The Airy domain, here so that the symbolic layer can test it and skip
# overflowing samples without importing `airyfun` (and numpy); `airyfun`
# re-exports these three names.
LEFT_CUT = -1.0e5  # Airy arguments below it raise AiryDomainError
BI_OVERFLOW = 103.0  # Bi and Bi' raise AiryOverflowError past it


class AiryOverflowError(NclbError, OverflowError):
    pass


class InconclusiveError(NclbError, RuntimeError):
    """A check could not reach a verdict: no sample evaluated, a field was
    numerically zero everywhere, or a quadrature did not settle."""


class VerificationError(NclbError, RuntimeError):
    """A strict verification run found failing checks."""

    def __init__(self, records):
        self.records = records
        bad = [r.check for r in records if not r.passed]
        super().__init__(f"failing checks: {', '.join(bad)}")


def overall_status(records):
    statuses = [r.status for r in records]
    if any(s == FAIL for s in statuses):
        return FAIL
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return PASS
