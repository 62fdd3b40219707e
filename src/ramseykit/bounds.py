"""Closed-form Ramsey bound evaluators, in the log2 domain.

Raw bound values are 2^Theta(t) and overflow machine arithmetic, so every
evaluator returns log2 of the bound.  An unmet hypothesis never raises: the
value is computed anyway and the named precondition flags record which
hypotheses fail, so parameter sweeps can chart formulas beyond their proven
range while marking invalid regions.  A parameter outside a formula's domain
raises ValueError: rho outside (0, 1], t < 2, s < 0, m outside (0, C(t,2)].
``TABLE`` declares each theorem once: its evaluator and the parameters it
takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

Rho = Union[Fraction, float]

# Constants pinned to the explicit statements; the random-edges lower-bound
# constant is a documented choice (existence only is established).
C_MAIN_DENSE = 15
C_CLIQUE_MAXDEG = 12
C_CLIQUE_DENSE = 15
C_RANDOM_GRAPH = 1100
C_LOWER_RANDOM_EDGES = Fraction(1, 4)


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    params: dict
    log2_bound: float
    preconditions: dict[str, bool] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def preconditions_met(self) -> bool:
        return all(self.preconditions.values())

    def to_json(self) -> dict:
        params = {k: (str(v) if isinstance(v, Fraction) else v)
                  for k, v in self.params.items()}
        return {
            "theorem": self.theorem_id,
            "params": params,
            "log2_bound": self.log2_bound,
            "flags": dict(self.preconditions),
            "notes": dict(self.notes),
        }


def _check_rho(rho: Rho) -> float:
    r = float(rho)
    if not 0 < r <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return r


def _check_t(t: int) -> None:
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")


def _rho_at_most(rho: Rho, q: int) -> bool:
    """The precondition rho <= 1/q: exact for a Fraction, in floats otherwise."""
    if isinstance(rho, Fraction):
        return rho <= Fraction(1, q)
    return float(rho) <= 1 / q


def log2_ratio(rho: Rho) -> float:
    """log2(2/rho)."""
    return 1.0 - math.log2(float(rho))


def _density_bound(theorem: str, c: float, f: Callable[[float], float], k: float,
                   q: int) -> Callable[[int, Rho], BoundReport]:
    """The bound c f(rho) log2^k(2/rho) t of ``theorem``, flagged when rho > 1/q."""
    def bound(t: int, rho: Rho) -> BoundReport:
        _check_t(t)
        r = _check_rho(rho)
        return BoundReport(theorem, {"t": t, "rho": rho}, c * f(r) * log2_ratio(r) ** k * t,
                           {f"rho_le_1_{q}": _rho_at_most(rho, q)})
    # the module-level name it is bound to, so that it reprs and pickles by name
    bound.__name__ = bound.__qualname__ = "bound_" + theorem.replace("-", "_")
    return bound


# r(H) <= 2^(15 sqrt(rho) log2(2/rho) t) for density-rho H, rho <= 1/16
bound_main_dense = _density_bound("main-dense", C_MAIN_DENSE, math.sqrt, 1, 16)
# r(K_t, H) <= 2^(12 rho log2^2(2/rho) t) for max degree rho*t, rho <= 1/16
bound_clique_maxdeg = _density_bound("clique-maxdeg", C_CLIQUE_MAXDEG, float, 2, 16)
# r(K_t, H) <= 2^(15 sqrt(rho) log2^(3/2)(2/rho) t) for density rho <= 1/50
bound_clique_dense = _density_bound("clique-dense", C_CLIQUE_DENSE, math.sqrt, 1.5, 50)


def bound_edges_form(m: int, t: int) -> BoundReport:
    """Edge-count form: substitutes rho = m/C(t,2) into the dense-graph bound."""
    _check_t(t)
    pairs = t * (t - 1) // 2
    if not 0 < m <= pairs:
        raise ValueError(f"m must lie in (0, C(t,2)] = (0, {pairs}], got {m}")
    rho = Fraction(m, pairs)
    base = bound_main_dense(t, rho)
    return BoundReport(
        "edges-form",
        {"t": t, "m": m, "rho": rho},
        base.log2_bound,
        dict(base.preconditions),
        {"substitution": "rho = m / C(t,2); value equals main-dense at that rho"},
    )


def bound_random_graph(t: int, rho: Rho) -> BoundReport:
    """r(H) <= 2^(1100 rho log2(2/rho) t) for H ~ G(t, rho) in the proven range."""
    _check_t(t)
    r = _check_rho(rho)
    value = C_RANDOM_GRAPH * r * log2_ratio(r) * t
    threshold = 2 ** 15 * math.log2(t) ** 1.5 / math.sqrt(t)
    return BoundReport(
        "random-graph",
        {"t": t, "rho": rho},
        value,
        {
            "rho_ge_threshold": r >= threshold,
            "rho_le_1_100": _rho_at_most(rho, 100),
        },
        {"threshold": threshold},
    )


def bound_base_case(s: int, t: int, rho: Optional[Rho] = None) -> BoundReport:
    """log2 C(s+t, s), the clique-vs-clique base of the induction.

    When rho = s/t is supplied the report also carries the chain value
    2 rho t log2(2/rho) that the proof compares against.
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be nonnegative")
    value = sum(math.log2(t + i) - math.log2(i) for i in range(1, s + 1))
    notes = {}
    if rho is not None:
        r = _check_rho(rho)
        notes["chain_log2"] = 2 * r * t * log2_ratio(r)
    return BoundReport("base-case", {"s": s, "t": t, "rho": rho}, value, {}, notes)


def bound_induction_step(s: int, t: int, rho: Rho) -> BoundReport:
    """Induction form (2s/(rho t))^(12 rho log2(2/rho) t), valid for s >= rho t."""
    _check_t(t)
    r = _check_rho(rho)
    if s < 1:
        raise ValueError("s must be positive")
    value = C_CLIQUE_MAXDEG * r * log2_ratio(r) * t * math.log2(2 * s / (r * t))
    return BoundReport(
        "induction-step",
        {"s": s, "t": t, "rho": rho},
        value,
        {"s_ge_rho_t": s >= r * t},
    )


def lower_bounds(t: int, rho: Rho) -> tuple[BoundReport, BoundReport]:
    """log2 lower bounds: planted-clique sqrt(rho) t / 4 and random-edges c rho t.

    The random-edges constant is pinned to 1/4; only its existence is
    established, the choice is recorded in the report.
    """
    _check_t(t)
    r = _check_rho(rho)
    plant = BoundReport(
        "lower",
        {"t": t, "rho": rho, "construction": "planted-clique"},
        math.sqrt(r) * t / 4,
        {},
        {"registry_clique_lower_log2": t / 2,
         "registry_clique_lower_note": "sqrt(2)^t <= r(t) <= 4^t for complete graphs"},
    )
    random_edges = BoundReport(
        "lower",
        {"t": t, "rho": rho, "construction": "random-edges"},
        float(C_LOWER_RANDOM_EDGES) * r * t,
        {},
        {"constant_choice": "c = 1/4 (existence only is established)"},
    )
    return plant, random_edges


class Theorem(NamedTuple):
    """A theorem's evaluator and the keyword parameters it takes: each
    ``required`` one, in ``evaluate``'s order, and each that may be None."""

    bound: Callable[..., Union[BoundReport, tuple[BoundReport, ...]]]
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()


TABLE = {
    "main-dense": Theorem(bound_main_dense, ("t", "rho")),
    "clique-maxdeg": Theorem(bound_clique_maxdeg, ("t", "rho")),
    "clique-dense": Theorem(bound_clique_dense, ("t", "rho")),
    "edges-form": Theorem(bound_edges_form, ("t", "m")),
    "random-graph": Theorem(bound_random_graph, ("t", "rho")),
    "base-case": Theorem(bound_base_case, ("t", "s"), optional=("rho",)),
    "induction-step": Theorem(bound_induction_step, ("t", "rho", "s")),
    "lower": Theorem(lower_bounds, ("t", "rho")),
}
THEOREMS = tuple(TABLE)


def evaluate(theorem: str, *, t: Optional[int] = None, rho: Optional[Rho] = None,
             s: Optional[int] = None, m: Optional[int] = None):
    """Dispatch by theorem id through ``TABLE``; used by the CLI."""
    entry = TABLE.get(theorem)
    if entry is None:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    given = {"t": t, "rho": rho, "s": s, "m": m}
    for p in entry.required:
        if given[p] is None:
            raise ValueError(f"{theorem} requires {p}")
    return entry.bound(**{p: given[p] for p in entry.required + entry.optional})
