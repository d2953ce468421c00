"""Fault-isolation bookkeeping for one analysis run.

The CCKT86 framework is built around a lattice of fallbacks: a
polynomial jump function that cannot be built is not an error, it is a
*weaker jump function* (pass-through, intraprocedural, literal, and
ultimately ⊥ — which claims nothing and is always sound). The
resilience layer exploits exactly that structure: when constructing a
jump or return function raises or runs past its
:class:`~repro.config.AnalysisBudget`, the affected call site or
procedure is demoted down the lattice and the run continues; when a
worklist exhausts its fuel, the affected cells drop to ⊥.

Every such decision is recorded here as a :class:`Demotion` so the
result is auditable: an empty :class:`ResilienceReport` means the run
completed at full precision; a non-empty one lists precisely which
sites were degraded and why (``--strict`` in the CLI turns any
demotion into a failure exit).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro._record import FrozenRecord, setfield

#: ``to_kind`` used when a component fell all the way to ⊥ / was dropped.
BOTTOM_KIND = "bottom"


def summarize_demotions(rendered: List[str]) -> str:
    """The multi-line degraded-components report for rendered
    demotions (empty string when there are none)."""
    if not rendered:
        return ""
    lines = [f"{len(rendered)} component(s) degraded:"]
    lines.extend(f"  - {line}" for line in rendered)
    return "\n".join(lines)


class Demotion(FrozenRecord):
    """One component that was degraded instead of aborting the run.

    ``component`` is a stable machine-readable tag (``jump_function``,
    ``return_function``, ``sccp_oracle``, ``substitution``, ``solver``,
    ``gsa_refinement``, ``dce``); ``site`` locates it (procedure name,
    call site); ``from_kind`` / ``to_kind`` bracket the lattice drop;
    ``reason`` carries the triggering exception or budget message.
    """

    __slots__ = _fields = ("component", "site", "from_kind", "to_kind",
                           "reason")

    def __init__(self, component: str, site: str, from_kind: str,
                 to_kind: str, reason: str):
        setfield(self, "component", component)
        setfield(self, "site", site)
        setfield(self, "from_kind", from_kind)
        setfield(self, "to_kind", to_kind)
        setfield(self, "reason", reason)

    def render(self) -> str:
        return (
            f"{self.component} at {self.site}: "
            f"{self.from_kind} -> {self.to_kind} ({self.reason})"
        )


class ResilienceReport:
    """All demotions of one analysis run, in occurrence order."""

    def __init__(self) -> None:
        self.demotions: List[Demotion] = []

    def record(
        self,
        component: str,
        site: str,
        from_kind: str,
        to_kind: str,
        reason: str,
    ) -> Demotion:
        demotion = Demotion(component, site, from_kind, to_kind, reason)
        self.demotions.append(demotion)
        from repro.obs import metrics, trace

        metrics.inc(f"demotions_{component}")
        if trace.ENABLED:
            trace.instant(
                "demotion", component=component, site=site,
                from_kind=from_kind, to_kind=to_kind,
            )
        return demotion

    # -- queries -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when the run completed at full precision."""
        return not self.demotions

    def count(self, component: Optional[str] = None) -> int:
        if component is None:
            return len(self.demotions)
        return sum(1 for d in self.demotions if d.component == component)

    def by_component(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for demotion in self.demotions:
            counts[demotion.component] = counts.get(demotion.component, 0) + 1
        return counts

    def summary(self) -> str:
        """Human-readable multi-line report (empty string when ok)."""
        return summarize_demotions([d.render() for d in self.demotions])

    def __len__(self) -> int:
        return len(self.demotions)

    def __iter__(self) -> Iterator[Demotion]:
        return iter(self.demotions)

    def __bool__(self) -> bool:
        # Truthy as a container even when empty; use ``.ok`` for content.
        return True
