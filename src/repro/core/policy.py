"""Placement policy protocol and registry.

A *placement policy* maps SFC-ordered block costs to a block→rank
assignment (paper §V).  Policies receive:

* ``costs`` — per-block compute cost in block-ID (SFC) order.  The
  baseline infrastructure historically fixes these to 1; the paper's
  change #1 populates them from telemetry (§V-A3).
* ``n_ranks`` — number of simulation ranks.
* ``ctx`` — an optional :class:`~repro.core.context.PlacementContext`
  describing per-rank hardware (compute speed, NIC tier).  ``None``
  means the historical homogeneous regime.  Every ``compute`` takes the
  ``ctx`` keyword and every caller passes it; policies unaware of the
  context ignore it.

and return an ``(n,)`` int64 array ``assignment`` with
``assignment[block_id] = rank``.

Policies must be deterministic given their inputs (redistribution runs
collectively on every rank, and all ranks must compute identical maps)
and fast enough for the paper's 50 ms placement budget.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import inspect
import threading
import time
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from .context import PlacementContext

__all__ = [
    "PlacementPolicy",
    "PlacementResult",
    "PolicyArgumentError",
    "PolicyNameError",
    "UnknownPolicyError",
    "register_policy",
    "get_policy",
    "available_policies",
    "validate_assignment",
]

#: Per-thread running total of solve seconds replayed from memos; see
#: :func:`charge_replayed_solve`.
_REPLAYED = threading.local()


def _replayed_s() -> float:
    return getattr(_REPLAYED, "s", 0.0)


def placement_clock() -> float:
    """The one clock placement time is read from (``time.perf_counter``).

    :meth:`PlacementPolicy.place` and the recorded solve times of the
    chunked-CDP split memo both read it, so a replayed solve is charged
    in the same units as the call that replays it.
    """
    return time.perf_counter()


def charge_replayed_solve(seconds: float) -> None:
    """Charge a memo hit's recorded solve time to the placing thread.

    A memo that returns a stored result instead of solving again calls
    this with the seconds the cold solve took; :meth:`PlacementPolicy.place`
    adds every such charge made during its ``compute`` to
    :attr:`PlacementResult.elapsed_s`, so a reported placement time is
    what the cold computation costs whether or not a memo answered.
    """
    _REPLAYED.s = _replayed_s() + seconds


@dataclasses.dataclass(frozen=True)
class PlacementResult:
    """Assignment plus bookkeeping from one placement computation.

    Attributes
    ----------
    assignment:
        ``(n,)`` int64 array mapping block ID → rank.
    policy:
        Name of the policy that produced it.
    elapsed_s:
        Wall-clock placement computation time (the quantity Fig. 7c
        reports and the 50 ms budget constrains).  It is the cost of a
        cold computation: a step answered from a memo (the chunked-CDP
        split memo) is charged the seconds its recorded solve took.
    """

    assignment: np.ndarray
    policy: str
    elapsed_s: float

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", arr)

    @property
    def n_blocks(self) -> int:
        return int(self.assignment.shape[0])

    def loads(self, costs: np.ndarray, n_ranks: int) -> np.ndarray:
        """Per-rank total cost under this assignment."""
        return np.bincount(self.assignment, weights=costs, minlength=n_ranks)


def validate_assignment(assignment: np.ndarray, n_blocks: int, n_ranks: int) -> None:
    """Raise ``ValueError`` if an assignment is malformed.

    Checks shape, dtype domain, and that rank IDs are within range.  An
    empty rank is legal (more ranks than blocks happens transiently right
    after startup — Table I starts at exactly one block per rank).
    """
    arr = np.asarray(assignment)
    if arr.shape != (n_blocks,):
        raise ValueError(f"assignment shape {arr.shape} != ({n_blocks},)")
    if n_blocks == 0:
        return
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"assignment dtype {arr.dtype} is not integral")
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi >= n_ranks:
        raise ValueError(f"rank ids [{lo}, {hi}] outside [0, {n_ranks})")


class PlacementPolicy(abc.ABC):
    """Base class for placement policies.

    Subclasses implement :meth:`compute`; :meth:`place` wraps it with
    input validation, timing, and output validation.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        """Return the block→rank assignment for the given costs.

        ``ctx`` is ``None`` for homogeneous clusters; hetero-aware
        policies read per-rank speeds/NIC tiers from it, everyone else
        may ignore it (heterogeneity then simply goes unexploited).
        """

    def place(
        self,
        costs: np.ndarray,
        n_ranks: Optional[int] = None,
        ctx: Optional[PlacementContext] = None,
    ) -> PlacementResult:
        """Validated, timed placement computation.

        The one placement timer: the guard's budget, budget reports and
        Fig. 7c all read the returned ``elapsed_s``, which includes the
        recorded solve time of every memo hit inside ``compute``.

        ``n_ranks`` may be omitted when ``ctx`` is given (it is then
        ``ctx.n_ranks``); passing both requires them to agree.
        """
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if costs.ndim != 1:
            raise ValueError(f"costs must be 1-D, got shape {costs.shape}")
        if costs.size and not np.isfinite(costs).all():
            raise ValueError("block costs must be finite (no NaN/inf)")
        if costs.size and costs.min() < 0:
            raise ValueError("block costs must be non-negative")
        if ctx is not None:
            if n_ranks is None:
                n_ranks = ctx.n_ranks
            elif n_ranks != ctx.n_ranks:
                raise ValueError(
                    f"n_ranks={n_ranks} disagrees with ctx.n_ranks={ctx.n_ranks}"
                )
        if n_ranks is None:
            raise ValueError("either n_ranks or ctx must be provided")
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        replayed0 = _replayed_s()
        t0 = placement_clock()
        assignment = self.compute(costs, n_ranks, ctx=ctx)
        elapsed = placement_clock() - t0 + (_replayed_s() - replayed0)
        validate_assignment(assignment, costs.shape[0], n_ranks)
        return PlacementResult(
            assignment=np.asarray(assignment, dtype=np.int64),
            policy=self.name,
            elapsed_s=elapsed,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: Dict[str, Callable[[], PlacementPolicy]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator registering a zero-arg-constructible policy."""

    def deco(cls: type) -> type:
        if not issubclass(cls, PlacementPolicy):
            raise TypeError(f"{cls} is not a PlacementPolicy")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


class PolicyArgumentError(TypeError):
    """A policy was requested with keyword arguments it does not take.

    Carries the policy name, the offending argument names, and the
    constructor's accepted parameters — so sweep front ends (CLI flags,
    service JSON params) can report exactly what to fix instead of
    surfacing an opaque ``TypeError`` from deep inside a constructor.
    """

    def __init__(self, policy: str, unexpected, accepted) -> None:
        self.policy = str(policy)
        self.unexpected = tuple(unexpected)
        self.accepted = tuple(accepted)
        noun = "argument" if len(self.unexpected) == 1 else "arguments"
        super().__init__(
            f"policy {self.policy!r} got unexpected keyword {noun} "
            f"{', '.join(repr(a) for a in self.unexpected)}; "
            f"accepted: {', '.join(self.accepted) or '(none)'}"
        )


def _construct_policy(name, ctor, kwargs, reserved=()):
    """Build a policy, converting bad kwargs into PolicyArgumentError.

    ``reserved`` names are supplied by the shorthand itself (e.g. the
    ``:X`` suffix of ``cplx:X`` fixes ``x_percent``) and therefore count
    as unexpected when passed explicitly too.  With no kwargs nothing
    can be unexpected, so the constructor's signature is not inspected.
    """
    if not kwargs:
        return ctor()
    accepted: tuple = ()
    try:
        sig = inspect.signature(ctor)
    except (TypeError, ValueError):
        sig = None
    if sig is not None:
        params = sig.parameters
        if not any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        ):
            accepted = tuple(
                n for n, p in params.items()
                if n != "self"
                and n not in reserved
                and p.kind in (
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    inspect.Parameter.KEYWORD_ONLY,
                )
            )
            unexpected = sorted(set(kwargs) - set(accepted))
            if unexpected:
                raise PolicyArgumentError(name, unexpected, accepted)
    return ctor(**kwargs)


class PolicyNameError(ValueError):
    """A ``name:X`` shorthand whose ``X`` is not a percentage in [0, 100].

    Carries the policy name, so a sweep front end rejects the arm by
    name when the sweep is configured, not when its cell runs.
    """

    def __init__(self, policy: str, reason: str) -> None:
        self.policy = str(policy)
        super().__init__(f"policy {self.policy!r}: {reason}")


class UnknownPolicyError(KeyError):
    """A policy name that is not registered.

    A ``KeyError`` (a lookup by name failed) whose message prints
    unquoted, so a front end can show it as is.
    """

    def __init__(self, policy: str) -> None:
        self.policy = str(policy)
        super().__init__(
            f"unknown policy {self.policy!r}; known: {sorted(_REGISTRY)}"
        )

    def __str__(self) -> str:
        return self.args[0]


#: Registered policies that take the ``name:X`` shorthand for
#: ``x_percent=X`` (``cplx:50`` == CPL50, ``hetero-cplx:50`` == HCPL50).
_X_SHORTHANDS = ("cplx", "hetero-cplx")


def _shorthand_x(name: str, arg: str) -> float:
    try:
        x = float(arg)
    except ValueError:
        raise PolicyNameError(name, f"X must be a number, got {arg!r}") from None
    if not 0.0 <= x <= 100.0:
        raise PolicyNameError(name, f"X must be in [0, 100], got {arg}")
    return x


def get_policy(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a registered policy by name.

    ``<name>:<X>`` is shorthand for ``x_percent=X`` on the policies in
    :data:`_X_SHORTHANDS`, so the evaluation sweeps can be driven by
    strings (``cplx:50`` == CPL50); a bad ``X`` raises
    :class:`PolicyNameError` and an unknown name
    :class:`UnknownPolicyError`.  ``guarded`` builds the default budgeted
    fallback chain (:class:`repro.resilience.guard.GuardedPolicy`),
    resolved lazily to keep an import cycle out of the registry.
    Unexpected keyword arguments raise :class:`PolicyArgumentError`
    naming the policy and its accepted parameters.
    """
    base, sep, arg = name.partition(":")
    if sep and base in _X_SHORTHANDS:
        return _construct_policy(
            name,
            functools.partial(_REGISTRY[base], x_percent=_shorthand_x(name, arg)),
            kwargs,
            reserved=("x_percent",),
        )
    if name == "guarded":
        from ..resilience.guard import GuardedPolicy

        return _construct_policy(name, GuardedPolicy, kwargs)
    if name not in _REGISTRY:
        raise UnknownPolicyError(name)
    return _construct_policy(name, _REGISTRY[name], kwargs)


def available_policies() -> Iterator[str]:
    """Names of all registered policies."""
    return iter(sorted(_REGISTRY))
