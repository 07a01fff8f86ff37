"""The shared state behind a set of simulated ranks.

A :class:`World` owns one mailbox per rank, the traffic statistics, and the
abort machinery.  Ranks never touch each other's Python state directly; all
inter-rank communication flows through ``deliver`` / ``match`` on the
destination mailbox, which gives the simulator MPI's matching semantics:
messages from the same (source, tag, channel) are received in send order
(non-overtaking), and wildcards match the earliest pending message.
"""

from __future__ import annotations

import threading

from repro.errors import DeadlockError, MPIError
from repro.mpi.message import Message
from repro.mpi.stats import TrafficStats
from repro.obs.recorder import Recorder


class Mailbox:
    """Pending-message queue for one rank, with condition-based blocking."""

    def __init__(self, world: "World", rank: int):
        self.world = world
        self.rank = rank
        self._pending: list[Message] = []
        self._cond = threading.Condition()

    def deliver(self, msg: Message) -> None:
        with self._cond:
            self._pending.append(msg)
            self._cond.notify_all()

    def try_match(self, source: int, tag: int, channel: int) -> Message | None:
        """Pop and return the earliest matching message, or None."""
        with self._cond:
            return self._pop_locked(source, tag, channel)

    def _pop_locked(self, source: int, tag: int, channel: int) -> Message | None:
        for i, msg in enumerate(self._pending):
            if msg.matches(source, tag, channel):
                self.world.note_progress()
                return self._pending.pop(i)
        return None

    def wait_match(self, source: int, tag: int, channel: int) -> Message:
        """Block until a matching message arrives; honours world abort.

        The deadlock check runs *outside* the mailbox lock (so concurrent
        checkers cannot deadlock on each other's mailboxes) and uses the
        world progress counter to rule out the race where another rank
        matched a message between our two looks.
        """
        deadline_step = self.world.block_timeout
        self.world.rank_blocked(self.rank)
        try:
            while True:
                with self._cond:
                    self.world.check_abort()
                    msg = self._pop_locked(source, tag, channel)
                    if msg is not None:
                        return msg
                    signalled = self._cond.wait(timeout=deadline_step)
                if not signalled:
                    self.world.check_abort()
                    progress_before = self.world.progress
                    if (
                        self.world.all_blocked_or_done()
                        and self.world.progress == progress_before
                    ):
                        raise DeadlockError(
                            f"rank {self.rank} blocked in recv(source={source}, "
                            f"tag={tag}) with every other live rank also blocked "
                            "— the program has deadlocked"
                        )
        finally:
            self.world.rank_unblocked(self.rank)

    def pending_count(self) -> int:
        with self._cond:
            return len(self._pending)

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()


class World:
    """Shared communication fabric for ``size`` simulated ranks."""

    def __init__(self, size: int, block_timeout: float = 0.25):
        if size < 1:
            raise MPIError(f"world size must be >= 1, got {size}")
        self.size = size
        # How long a blocked rank sleeps between deadlock checks.  This is a
        # polling interval, not a correctness timeout: waiters are woken
        # immediately on delivery.
        self.block_timeout = block_timeout
        self.mailboxes = [Mailbox(self, r) for r in range(size)]
        #: Shared instrumentation recorder: traffic counters land here
        #: (``rank=-1`` marks records not attributable to a single rank).
        self.recorder = Recorder(rank=-1)
        self.stats = TrafficStats(self.recorder)
        self._abort_exc: BaseException | None = None
        self._state_lock = threading.Lock()
        self._blocked: set[int] = set()
        self._done: set[int] = set()
        self._progress = 0

    def note_progress(self) -> None:
        """Record that some message was matched (used by deadlock detection)."""
        with self._state_lock:
            self._progress += 1

    @property
    def progress(self) -> int:
        with self._state_lock:
            return self._progress

    # -- message transport ------------------------------------------------

    def send(self, msg: Message) -> None:
        if not 0 <= msg.dest < self.size:
            raise MPIError(
                f"invalid destination rank {msg.dest} (world size {self.size})"
            )
        self.check_abort()
        self.stats.record(msg.source, msg.dest, msg.nbytes)
        self.mailboxes[msg.dest].deliver(msg)

    # -- abort / deadlock bookkeeping --------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Poison the world: wake every waiter and make them re-raise."""
        with self._state_lock:
            if self._abort_exc is None:
                self._abort_exc = exc
        for box in self.mailboxes:
            box.wake()

    def check_abort(self) -> None:
        if self._abort_exc is not None:
            raise MPIError(
                f"world aborted after a failure on another rank: {self._abort_exc!r}"
            ) from self._abort_exc

    @property
    def aborted(self) -> bool:
        return self._abort_exc is not None

    def rank_blocked(self, rank: int) -> None:
        with self._state_lock:
            self._blocked.add(rank)

    def rank_unblocked(self, rank: int) -> None:
        with self._state_lock:
            self._blocked.discard(rank)

    def rank_done(self, rank: int) -> None:
        with self._state_lock:
            self._done.add(rank)
        for box in self.mailboxes:
            box.wake()

    def all_blocked_or_done(self) -> bool:
        """True when no live rank can make progress (deadlock heuristic).

        A rank counts as stuck only if it is blocked *and* its mailbox holds
        nothing — a pending message might still be a match for a different
        (source, tag) the rank will ask for next, so we only declare deadlock
        when every live rank is blocked with an empty mailbox.
        """
        with self._state_lock:
            live = set(range(self.size)) - self._done
            if not live.issubset(self._blocked):
                return False
        return all(
            self.mailboxes[r].pending_count() == 0
            for r in range(self.size)
            if r not in self._done
        )
