"""Single-writer lease for a lake.

The engine is a single-writer design (deterministic file names + one
atomic manifest commit — the same discipline as the reference's one
Glue workflow run at a time, ``update_workflow_properties.py:34-65``
where a run in state STARTED blocks the next). Two concurrent REPLAYS
of the same batches happen to converge (identical bytes, idempotent
commit), but concurrent *different* mutators (replay + backfill, two
redrives, compact + reshard) race the manifest. The lease makes the
assumption explicit and crash-tolerant:

- ``acquire`` creates ``_checkpoint/WRITER_LOCK`` with ``O_EXCL`` (the
  atomicity primitive every POSIX/object store rename path offers);
  a live lock from another owner raises :class:`ConcurrentWriter`.
- The holder refreshes the lock's mtime with ``heartbeat()``; a lock
  older than ``ttl_s`` is STALE (holder died without ``release()``,
  e.g. kill -9) and may be taken over. Takeover is two-phase — rename
  the stale lock to a uniquely-named tombstone, VERIFY the tombstone is
  the same stale incarnation that was measured (owner + age), then
  create fresh. The verification closes the window where a bare rename
  would capture a lock another stealer just re-created (or a live
  holder just heartbeated): the wrongly-taken lock is restored with an
  atomic no-clobber link and the stealer aborts. ``heartbeat()`` also
  detects usurpation (owner changed / lock gone) and raises, so a
  writer wrongly judged dead halts before its next manifest write.
- Re-acquiring by the same owner is a no-op refresh (mutating engine
  methods can each guard themselves without nesting bookkeeping).

Clock caveat (documented, inherent to lease designs): ttl_s must
exceed the longest gap between heartbeats of a live writer, including
GC/object-store stalls; the default 300 s is far above any per-batch
commit cadence this engine produces.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import uuid


class ConcurrentWriter(RuntimeError):
    """Another live writer holds the lake's lease."""


@contextlib.contextmanager
def writer_leases(engines):
    """Hold the single-writer lease of every engine in ``engines`` that
    has ``writer_lease=True`` and does not hold it already, for the
    ``with`` block's duration. Reentrant within one engine
    (``redrive_dlq`` calls ``replay``); held only for the block so
    sequential writers never wait on a ttl."""
    held = []
    try:
        for e in engines:
            if getattr(e, "writer_lease", False) and not e._active_lease:
                e._active_lease = WriterLease(e.lake_dir, ttl_s=e.lease_ttl_s).acquire()
                held.append(e)
        yield
    finally:
        for e in held:
            lease, e._active_lease = e._active_lease, None
            lease.release()


def with_writer_lease(fn):
    """Guard a mutating engine method with the engine's writer lease
    (:func:`writer_leases`)."""

    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        with writer_leases([self]):
            return fn(self, *args, **kwargs)

    return wrapped


class WriterLease:
    def __init__(self, lake_dir: str, owner: str | None = None,
                 ttl_s: float = 300.0):
        self.lock_path = os.path.join(lake_dir, "_checkpoint", "WRITER_LOCK")
        self.owner = owner or f"{os.uname().nodename}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        self.ttl_s = ttl_s
        self._held = False

    # ------------------------------------------------------------ state
    def _read(self) -> dict | None:
        try:
            with open(self.lock_path) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            # mid-write reads are impossible (O_EXCL + single write), but
            # a torn lock from a dead writer counts as stale content
            return None

    def _age_s(self) -> float:
        try:
            return time.time() - os.stat(self.lock_path).st_mtime
        except FileNotFoundError:
            return float("inf")

    def _create(self) -> bool:
        os.makedirs(os.path.dirname(self.lock_path), exist_ok=True)
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as f:
            json.dump({"owner": self.owner, "pid": os.getpid(),
                       "acquired_at": time.time()}, f)
        return True

    # ------------------------------------------------------------- api
    def acquire(self) -> "WriterLease":
        """Take the lease or raise :class:`ConcurrentWriter`.

        Steals a stale lock (older than ``ttl_s``) via a two-phase
        rename so concurrent stealers cannot both succeed."""
        if self._create():
            self._held = True
            return self
        info = self._read()
        if info is not None and info.get("owner") == self.owner:
            self.heartbeat()
            self._held = True
            return self
        if self._age_s() < self.ttl_s:
            raise ConcurrentWriter(
                f"lake is locked by {info.get('owner') if info else '<torn lock>'} "
                f"(age {self._age_s():.0f}s < ttl {self.ttl_s:.0f}s); "
                "wait, or raise ttl_s only if that writer is known dead"
            )
        # stale: rename to a tombstone, then VERIFY the tombstone is the
        # same stale incarnation we measured — a bare rename would also
        # capture a FRESH lock created (or heartbeated) by someone else
        # between our staleness check and the rename, silently yielding
        # two live writers
        stale_owner = info.get("owner") if info else None
        tomb = self.lock_path + f".stale-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(self.lock_path, tomb)
        except FileNotFoundError:
            pass  # another stealer (or a release) got there first
        else:
            try:
                t_age = time.time() - os.stat(tomb).st_mtime
                with open(tomb) as f:
                    t_owner = json.load(f).get("owner")
            except (OSError, json.JSONDecodeError):
                t_age, t_owner = None, None
            grabbed_live = (t_age is not None and t_age < self.ttl_s) or (
                stale_owner is not None and t_owner != stale_owner
            )
            if grabbed_live:
                # we renamed a LIVE writer's lock: restore it without
                # clobbering anything newer (link is atomic no-clobber)
                try:
                    os.link(tomb, self.lock_path)
                except FileExistsError:
                    pass
                os.remove(tomb)
                raise ConcurrentWriter(
                    f"takeover raced a live writer ({t_owner}); retry"
                )
            os.remove(tomb)
        if not self._create():
            raise ConcurrentWriter(
                "lost the takeover race for a stale lock; retry"
            )
        self._held = True
        return self

    def heartbeat(self) -> None:
        """Refresh liveness — and detect usurpation: if the lock is gone
        or another owner took it (a stealer judged us dead), raise
        instead of silently double-writing. The engine heartbeats at
        every batch commit, so a usurped writer halts before its next
        manifest write."""
        if self._held:
            cur = self._read()
            if cur is None or cur.get("owner") != self.owner:
                self._held = False
                raise ConcurrentWriter(
                    f"lease lost: lock now held by "
                    f"{cur.get('owner') if cur else '<none>'} — this "
                    "writer was judged dead (heartbeat gap > ttl_s?)"
                )
        try:
            os.utime(self.lock_path)
        except FileNotFoundError:
            if self._held:
                self._held = False
                raise ConcurrentWriter("lease lost: lock vanished mid-hold")

    def release(self) -> None:
        if not self._held:
            return
        info = self._read()
        if info is not None and info.get("owner") == self.owner:
            try:
                os.remove(self.lock_path)
            except FileNotFoundError:
                pass
        self._held = False

    def __enter__(self) -> "WriterLease":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
