"""Sequential dispatch as a test oracle, not a mode of the service.

:class:`SequentialDispatchService` is the production
:class:`~repro.scheduler.service.SchedulerService` with one override:
its ``_dispatch`` sends each message on its own and gathers the reply
before the next message leaves ("gather after every send"), so at most
one shard is ever in flight.  The equivalence gates run a stream through
both and demand the same decisions, merged reports, counters, journals
and wire messages: overlapping the round trips may change when a reply
is read, never what is decided.
"""

from repro.scheduler import SchedulerService


class SequentialDispatchService(SchedulerService):
    def _dispatch(self, sends):
        outcomes = {}
        for shard, message in sends:
            outcomes.update(super()._dispatch([(shard, message)]))
        return outcomes


def dispatch_service(overlap: bool):
    """The production service (``overlap``) or the sequential oracle."""
    return SchedulerService if overlap else SequentialDispatchService
