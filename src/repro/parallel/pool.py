"""The process-wide persistent worker pool behind sharded ingestion.

Every multi-process consumer in the library — the plan executor
(:mod:`repro.parallel.plan`), the analysis runner's segment sharding,
the sweep harness's trial pools, and the network-monitor /
query-optimizer / data-cleaning applications — draws workers from one
lazily created, process-wide :class:`~concurrent.futures
.ProcessPoolExecutor` instead of spawning (and tearing down) a fresh
pool per call.  Pool startup is paid once per process, which is what a
long-running service needs: a daemon answering many small ingest calls
must not fork a pool per request.

Lifecycle rules:

* the pool is created on first use (:func:`get_pool`) and *grows by
  recreation* when a caller asks for more workers than it has;
* it is never shut down implicitly — call :func:`shutdown_pool` for an
  explicit, clean teardown (tests do; services may at exit);
* it is fork-safe: a process created via ``os.fork`` must not reuse its
  parent's pool (the worker pipes are shared), so the singleton is
  dropped in the child (``os.register_at_fork`` plus a PID check) and
  recreated lazily on first use there;
* a pool broken by a dying worker (e.g. a SIGKILL'd shard) is replaced
  on the next :func:`reset_pool` / :func:`get_pool` round — the plan
  executor uses exactly this to retry only the failed shards.

The module also hosts the *shared-payload staging* helpers: a caller
that fans many small tasks over the persistent pool but needs one large
object shipped to every worker (a sweep's replay stream, the
data-cleaning column table) stages it once on disk
(:func:`stage_shared`) and sends only the token per task; workers load
and memoize it per process (:func:`load_shared`).  This replaces the
pool-initializer idiom, which cannot be used with an already-running
shared pool.
"""

from __future__ import annotations

import atexit
import os

# Staged payloads never leave this interpreter's trust boundary: they are
# written and read by the same coordinator/fork-pool process family within
# one run, never persisted or exchanged, so the wire-format rules for
# repro.serialize do not apply.
import pickle  # lint: allow[ser-pickle-import] same-interpreter worker staging, not wire/persistent state
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Optional

from ..exceptions import ParameterError

__all__ = [
    "default_workers",
    "get_pool",
    "reset_pool",
    "shutdown_pool",
    "pool_stats",
    "stage_shared",
    "load_shared",
    "discard_shared",
]


def default_workers() -> int:
    """Return the default worker count: the CPUs this process may use.

    CPU *affinity* (``os.sched_getaffinity``), not the machine's raw CPU
    count: in a cgroup-limited CI container the process is typically
    pinned to a few cores of a many-core host, and sizing the pool by
    ``os.cpu_count()`` would oversubscribe it.  Falls back to
    ``os.cpu_count()`` where affinity is not exposed (macOS, Windows).
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        affinity = os.cpu_count() or 1
    return max(affinity, 1)


_LOCK = threading.Lock()
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_SIZE = 0
_POOL_PID: Optional[int] = None
_POOLS_CREATED = 0  # lifetime creation count, observable via pool_stats()
_POOL_RESTARTS = 0  # live pools replaced/discarded (recovery + growth), ditto

#: The plan executor's cost samples per target type (see
#: ``repro.parallel.plan._stays_in_process``): only floats, measured
#: against this pool, so dropped with it (reset, shutdown, fork child).
_COSTS: Dict[type, Any] = {}


def _drop_pool_reference() -> None:
    """Forget the singleton without shutting it down (fork child path)."""
    global _POOL, _POOL_SIZE, _POOL_PID
    _POOL = None
    _POOL_SIZE = 0
    _POOL_PID = None
    _COSTS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython on POSIX
    # A fork child must never touch the parent's worker pipes; drop the
    # reference so the child lazily builds its own pool on first use.
    os.register_at_fork(after_in_child=_drop_pool_reference)


def get_pool(workers: Optional[int] = None) -> ProcessPoolExecutor:
    """Return the shared persistent pool, creating or growing it as needed.

    Args:
        workers: the minimum worker count the caller needs.  ``None``
            asks for :func:`default_workers`.  A pool smaller than the
            request is replaced by a bigger one (the old workers are
            released without waiting); a bigger pool is simply reused —
            submitting fewer shards than workers is always safe.

    Returns:
        The live executor.  Callers must *not* shut it down; use
        :func:`shutdown_pool` for explicit teardown.
    """
    global _POOL, _POOL_SIZE, _POOL_PID, _POOLS_CREATED, _POOL_RESTARTS
    want = default_workers() if workers is None else int(workers)
    if want <= 0:
        raise ParameterError("workers must be positive")
    with _LOCK:
        if _POOL is not None and _POOL_PID != os.getpid():
            # Forked child that missed the at-fork hook (or an exotic
            # clone): the parent's pool is not ours to use or to join.
            _drop_pool_reference()
        if _POOL is None or _POOL_SIZE < want:
            old = _POOL
            _POOL = ProcessPoolExecutor(max_workers=max(want, _POOL_SIZE))
            _POOL_SIZE = max(want, _POOL_SIZE)
            _POOL_PID = os.getpid()
            _POOLS_CREATED += 1
            if old is not None:
                _POOL_RESTARTS += 1
                old.shutdown(wait=False, cancel_futures=True)
        return _POOL


def reset_pool() -> None:
    """Discard the current pool (if any) so the next use builds a fresh one.

    The recovery path for a broken pool: when a worker process dies, the
    executor marks itself broken and every submit raises; the plan
    executor calls this, then resubmits only the shards that had not
    completed.  Also usable after heavy one-off work to release workers.
    """
    global _POOL, _POOL_RESTARTS
    with _LOCK:
        pool, pid = _POOL, _POOL_PID
        _drop_pool_reference()
        if pool is not None and pid == os.getpid():
            _POOL_RESTARTS += 1
    if pool is not None and pid == os.getpid():
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pool(wait: bool = True) -> None:
    """Shut the persistent pool down explicitly and forget it.

    Args:
        wait: block until the workers have exited (the default; pass
            ``False`` for fire-and-forget teardown).
    """
    global _POOL
    with _LOCK:
        pool, pid = _POOL, _POOL_PID
        _drop_pool_reference()
    if pool is not None and pid == os.getpid():
        pool.shutdown(wait=wait, cancel_futures=True)


def pool_stats() -> Dict[str, Any]:
    """Return observability counters for the persistent pool.

    ``alive`` — whether a pool currently exists; ``size`` — its worker
    count; ``created`` — how many pools this process has built over its
    lifetime (warm reuse keeps this flat; tests and the warm-vs-cold
    benchmark read it to prove calls share one pool); ``restarts`` — how
    many *live* pools were discarded and replaced (broken-pool recovery
    via :func:`reset_pool`, or growth past the current size), which the
    durability/recovery tests assert on to prove a SIGKILL'd worker cost
    exactly one pool rebuild.
    """
    with _LOCK:
        return {
            "alive": _POOL is not None,
            "size": _POOL_SIZE,
            "created": _POOLS_CREATED,
            "restarts": _POOL_RESTARTS,
        }


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    """Release the persistent pool's workers at interpreter shutdown.

    Without this, a process that used the pool but never called
    :func:`shutdown_pool` leaks its worker processes into the
    ``concurrent.futures`` exit machinery with tasks still queued.
    Registered after ``concurrent.futures`` is imported, so (atexit
    being LIFO) it runs *before* that module's own exit hook joins the
    worker threads.
    """
    shutdown_pool(wait=False)


# ---------------------------------------------------------------------------
# Shared-payload staging (initializer replacement for the persistent pool).
# ---------------------------------------------------------------------------

#: Worker-side cache of loaded shared payloads, keyed by token.  Tokens are
#: unique temp-file paths, so entries can never go stale; the cache is
#: bounded to keep a worker that serves many sweeps from accumulating
#: every stream it ever saw.
_SHARED_CACHE: Dict[str, Any] = {}
_SHARED_CACHE_LIMIT = 4


def stage_shared(payload: Any) -> str:
    """Write a payload to disk once and return its worker-loadable token.

    The coordinator half of shipping one large object to every pool
    worker without a pool initializer: pickle the object to a unique
    temporary file, pass the returned token in each (small) task, and
    :func:`discard_shared` the token when the fan-out is done.  Workers
    resolve the token with :func:`load_shared`, paying the load once per
    process, not once per task.
    """
    handle, path = tempfile.mkstemp(prefix="repro-shared-", suffix=".bin")
    try:
        with os.fdopen(handle, "wb") as stream:
            pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        os.unlink(path)
        raise
    return path


def load_shared(token: str) -> Any:
    """Load (and memoize) a staged payload inside a worker process."""
    cached = _SHARED_CACHE.get(token)
    if cached is not None:
        return cached
    with open(token, "rb") as stream:
        payload = pickle.load(stream)
    while len(_SHARED_CACHE) >= _SHARED_CACHE_LIMIT:
        _SHARED_CACHE.pop(next(iter(_SHARED_CACHE)))
    _SHARED_CACHE[token] = payload
    return payload


def discard_shared(token: str) -> None:
    """Remove a staged payload's file (after every task using it finished)."""
    try:
        os.unlink(token)
    except OSError:
        pass
