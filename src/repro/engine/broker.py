"""Resource brokering for task submission.

Section 7: the engine identifies appropriate Grid resources "either as
specified in the workflow specification or by consulting with the directory
services".  The paper's prototype only implemented the first option; we
implement both:

* explicit options — the program's ``<Option>`` list is used directly;
* directory-brokered options — an option with ``hostname='*'`` is resolved
  against the :class:`~repro.catalogs.resource.ResourceCatalog` at
  submission time (constraints may be attached per activity via
  :meth:`Broker.set_query`).

An explicit option's target follows from the program alone, so the recovery
coordinator asks for it once and keeps it in its launch plan; a wildcard
option is asked for at every submission, and must be: the catalog and the
queries change while a runtime lives.  A wildcard is asked with the hosts to
keep away from (a replica's siblings'), and lands on one of them only when
no other host matches.

The broker also implements retry resource selection, as the recovery
coordinator passes it from the activity's policy: ``SAME`` resubmits to the
option used by the failed attempt; ``ROTATE`` advances round-robin through
the option list, skipping the option that just failed when another exists.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..catalogs.resource import ResourceCatalog, ResourceQuery
from ..core.policy import ResourceSelection
from ..errors import BrokerError, NoResourceError
from ..wpdl.model import Activity, Option, Program

__all__ = ["Broker", "ResolvedOption", "is_wildcard"]

WILDCARD = "*"


def is_wildcard(option: Option) -> bool:
    """Whether *option* is directory-brokered: matched against the catalog
    at submission time, so never resolved ahead of one."""
    return option.hostname == WILDCARD


@dataclass(frozen=True)
class ResolvedOption:
    """A concrete submission target (after any catalog lookup)."""

    hostname: str
    service: str
    directory: str
    executable: str
    #: Index of the originating option in the program's option list (used
    #: by retry selection).
    option_index: int


class Broker:
    """Resolves program options to concrete submission targets."""

    def __init__(self, catalog: ResourceCatalog | None = None) -> None:
        self.catalog = catalog
        self._queries: dict[str, ResourceQuery] = {}

    def set_query(self, activity_name: str, query: ResourceQuery) -> None:
        """Attach matchmaking constraints used when *activity_name* resolves
        a wildcard option."""
        self._queries[activity_name] = query

    # -- resolution -------------------------------------------------------------

    def resolve_index(
        self,
        activity: Activity,
        program: Program,
        index: int,
        *,
        exclude: Iterable[str],
    ) -> ResolvedOption:
        """Target of option *index*.  A wildcard option avoids the hosts in
        *exclude* (a replica's siblings', read only for a wildcard) while
        another host matches."""
        if not 0 <= index < len(program.options):
            raise BrokerError(
                f"option index {index} out of range for program {program.name!r}"
            )
        option = program.options[index]
        hostname = option.hostname
        if is_wildcard(option):
            hostname = self._broker_host(activity, program, index, exclude)
        return ResolvedOption(
            hostname=hostname,
            service=option.service,
            directory=option.executable_dir,
            executable=program.executable_on(option),
            option_index=index,
        )

    def retry_index(
        self,
        activity: Activity,
        program: Program,
        *,
        failed_index: int,
        tries_used: int,
        selection: ResourceSelection,
    ) -> int:
        """Option index for the next try after a failure on *failed_index*,
        chosen as *selection* says."""
        count = len(program.options)
        if selection is ResourceSelection.SAME or count == 1:
            return failed_index
        # ROTATE: round-robin by try number, skipping the failed option
        # when an alternative exists.
        candidate = tries_used % count
        if candidate == failed_index:
            candidate = (candidate + 1) % count
        return candidate

    # -- internals -----------------------------------------------------------------

    def _broker_host(
        self, activity: Activity, program: Program, index: int, exclude: Iterable[str]
    ) -> str:
        if self.catalog is None:
            raise BrokerError(
                f"program {program.name!r} option {index} uses hostname='*' "
                "but no resource catalog is configured"
            )
        base = self._queries.get(activity.name, ResourceQuery())
        query = ResourceQuery(
            min_disk_gb=base.min_disk_gb,
            min_memory_gb=base.min_memory_gb,
            min_mttf=base.min_mttf,
            max_mean_downtime=base.max_mean_downtime,
            require_tags=base.require_tags,
            exclude_hosts=base.exclude_hosts | frozenset(exclude),
        )
        try:
            return self.catalog.select(query).hostname
        except NoResourceError:
            # Not enough distinct hosts: allow reuse rather than fail.
            try:
                return self.catalog.select(base).hostname
            except NoResourceError as exc:
                raise NoResourceError(f"activity {activity.name!r}: {exc}") from exc
