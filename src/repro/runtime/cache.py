"""Crash-safe content-addressed solve cache.

Monte Carlo yield campaigns and comparative characterization sweeps
re-solve near-identical operating points millions of times; this module
turns those repeats into lookups. A :class:`SolveCache` maps a
**content key** — a SHA-256 over the canonical serialization of
everything a measurement depends on (netlist identity, PDK fingerprint,
stimulus plan, tolerances/solver policy, payload codec) — to the
codec-encoded measurement payload. Because the payload codecs
round-trip floats bitwise (repr-shortest JSON), a cache hit is
**bitwise identical** to the cold solve that produced it.

The cache is engineered for crash-safety first, throughput second:

* **Atomic commits** — an entry is written to a process-unique temp
  file, fsynced, then ``os.replace``d into place. A crash at any point
  leaves either the old state or the new one, never a torn entry; a
  leftover temp file is invisible to readers and swept by
  :meth:`SolveCache.verify`.
* **Per-entry checksums** — every entry embeds a SHA-256 over its
  canonical body. A read that fails the checksum (bit-flip, truncation,
  interleaved write) is **quarantined** — moved to ``quarantine/`` and
  counted — and reported as a miss so the campaign recomputes it. A
  corrupt entry is *never* served. ``verify_checksums=False`` exists
  solely as the negative-control knob for the chaos harness.
* **Lockfile writer coordination** — writers serialize on a lock file
  embedding ``pid`` + process start-time. A crashed writer's lock is
  reclaimed safely: the lock is stale when its owner is dead *or* the
  recorded start-time no longer matches that pid (pid reuse), so a
  live unrelated process that happens to share the pid never loses its
  lock, and a dead writer never wedges the cache.
* **Degraded mode** — any cache I/O error (unreadable root, full disk,
  lock timeout) logs one warning, flips the cache into a bypass mode
  where every get is a miss and every put is a no-op, and the campaign
  falls through to live solves. A broken cache can cost time, never
  correctness — and never a campaign.

Counters (``cache.hits`` / ``cache.misses`` / ``cache.corruptions`` /
``cache.evictions`` / ``cache.stores`` / ``cache.errors``) ride the
ambient :class:`~repro.runtime.telemetry.Tracer` when one is active,
alongside the in-process :class:`CacheStats`.

Chaos injection points (driven by the ambient
:class:`~repro.runtime.faults.FaultPlan`): ``cache_torn_write`` crashes
between temp-write and rename, ``cache_corrupt`` flips a byte of a
just-committed entry, ``stale_lock`` plants a crashed writer's lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import AnalysisError
from repro.runtime import telemetry
from repro.runtime.faults import active_plan

#: Version tag for the on-disk entry format; bump to invalidate.
ENTRY_SCHEMA = "repro-cache-entry-v1"

#: Version tag mixed into every content key; bump when the key
#: derivation (not the entry format) changes meaning.
KEY_SCHEMA = "repro-solve-key-v1"

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_ROOT = "cache"

LOCK_NAME = ".lock"
QUARANTINE_DIR = "quarantine"


# ---------------------------------------------------------------------------
# Canonical serialization and content keys


def canonical(obj):
    """Reduce ``obj`` to a deterministic JSON-representable structure.

    Handles the parameter payloads campaigns actually use: scalars,
    strings, tuples/lists, dicts, dataclasses (tagged with their class
    path, so two specs with identical field values but different types
    key differently), numpy scalars and arrays. Anything else falls
    back to a type-tagged ``repr`` — deterministic for every type used
    in campaign params, and a wrong guess costs a cache miss, never a
    wrong hit.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        body = {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)}
        return {"__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
                "fields": body}
    try:
        import numpy as np
        if isinstance(obj, np.generic):
            return canonical(obj.item())
        if isinstance(obj, np.ndarray):
            return {"__ndarray__": list(obj.shape),
                    "values": [canonical(v) for v in obj.ravel().tolist()]}
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    return {"__repr__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "value": repr(obj)}


def canonical_blob(obj) -> str:
    """Canonical JSON text of ``obj`` (stable across processes)."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def cache_key(**components) -> str:
    """SHA-256 content key over named key components.

    The :data:`KEY_SCHEMA` version tag is always mixed in, so a change
    to the key derivation invalidates every old entry instead of
    aliasing into it.
    """
    components["__key_schema__"] = KEY_SCHEMA
    return hashlib.sha256(canonical_blob(components).encode()).hexdigest()


def _cached_pdk_fingerprint(node: str = "ptm90") -> str:
    """Process-cached per-node PDK fingerprint (cards are constants).

    Keyed by node name: a single process-wide fingerprint would silently
    serve one node's digest for every node once a second PDK exists,
    aliasing their cache entries into each other.
    """
    fingerprint = _PDK_FINGERPRINTS.get(node)
    if fingerprint is None:
        from repro.runtime.experiment.store import pdk_fingerprint
        fingerprint = _PDK_FINGERPRINTS[node] = pdk_fingerprint(node)
    return fingerprint


_PDK_FINGERPRINTS: dict[str, str] = {}


def _point_pdk_node(spec, params) -> str:
    """Resolve which PDK node one experiment point runs on.

    Spec builders record the node in ``spec.metadata["pdk_node"]``;
    failing that, a PDK-like object (``.node`` string plus a callable
    ``.mosfet``) riding in the params tuple names it. Default is the
    paper's ``ptm90``.
    """
    metadata = getattr(spec, "metadata", None) or {}
    node = metadata.get("pdk_node")
    if node:
        return str(node)
    items = params if isinstance(params, (tuple, list)) else (params,)
    for item in items:
        node = getattr(item, "node", None)
        if isinstance(node, str) and callable(getattr(item, "mosfet", None)):
            return node
    return "ptm90"


def experiment_point_key(spec, params) -> str:
    """Content key for one experiment point.

    Keys on everything the measured payload can depend on: the
    measurement function's identity (module + qualname — the netlist
    builder), the point params (netlist sizing, supplies, stimulus
    plan, tolerances, per-sample seed), the point's own PDK node
    fingerprint, the solver retry policy, and the payload codec.
    Campaign *execution* knobs (workers, backend, chunking) are
    deliberately excluded: a pooled, batched or resumed run must hit
    the same entries a serial run writes — that is the whole point.
    """
    from repro.runtime.policy import RetryPolicy
    measure = spec.measure
    policy = spec.retry_policy or RetryPolicy.default()
    return cache_key(
        measure=f"{measure.__module__}:{measure.__qualname__}",
        codec=spec.codec,
        pdk_fingerprint=_cached_pdk_fingerprint(_point_pdk_node(spec, params)),
        retry_policy=policy,
        params=params,
    )


# ---------------------------------------------------------------------------
# Lock files


class LockTimeout(AnalysisError):
    """A live writer held the cache lock for longer than the timeout."""


def process_start_time(pid: int) -> int | None:
    """Kernel start-time ticks for ``pid`` (Linux), or None.

    The (pid, start_time) pair identifies a process instance across pid
    reuse; a lock whose recorded start-time mismatches the live pid's
    belongs to a crashed writer whose pid was recycled.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
        after_comm = data.rsplit(b")", 1)[1].split()
        return int(after_comm[19])  # field 22 of /proc/<pid>/stat
    except (OSError, IndexError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


def _lock_is_stale(lock_path: Path) -> bool:
    """True when the lock's owner is provably gone.

    Unreadable or unparseable lock files count as stale: a writer
    crashed *while writing the lock itself* must not wedge the cache
    forever. (The lock payload is one small write, so a torn lock is
    already a crash artifact.)
    """
    try:
        info = json.loads(lock_path.read_text())
        pid = int(info["pid"])
        start_time = info.get("start_time")
    except (OSError, ValueError, KeyError, TypeError):
        return True
    if not _pid_alive(pid):
        return True
    if start_time is not None:
        live = process_start_time(pid)
        if live is not None and live != int(start_time):
            return True  # pid was reused; the writer itself is dead
    return False


# ---------------------------------------------------------------------------
# The cache


@dataclass
class CacheStats:
    """In-process counters for one :class:`SolveCache` instance."""

    hits: int = 0
    misses: int = 0
    corruptions: int = 0
    evictions: int = 0
    stores: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SolveCache:
    """Content-addressed result cache under one root directory.

    Args:
        root: cache directory (created lazily on first store).
        read_only: serve hits but never write (shared caches on CI).
        verify_checksums: verify every entry on read (default). The
            ``False`` setting exists only as the chaos harness's
            negative control — it makes the corruption test fail,
            proving the checksum is what protects campaigns.
        lock_timeout_s: how long a writer waits on a *live* lock before
            degrading; stale locks are reclaimed immediately.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_ROOT, *,
                 read_only: bool = False, verify_checksums: bool = True,
                 lock_timeout_s: float = 10.0,
                 lock_poll_s: float = 0.02):
        self.root = Path(root)
        self.read_only = read_only
        self.verify_checksums = verify_checksums
        self.lock_timeout_s = lock_timeout_s
        self.lock_poll_s = lock_poll_s
        self.stats = CacheStats()
        self.degraded = False

    # -- paths -------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine_path(self, key: str) -> Path:
        return self.root / QUARANTINE_DIR / f"{key}.json"

    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_NAME

    # -- telemetry ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        tracer = telemetry.active_tracer()
        if tracer is not None:
            tracer.count(f"cache.{name}", n)

    def _degrade(self, what: str, exc: Exception) -> None:
        self.stats.errors += 1
        self._count("errors")
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                f"solve cache at {self.root} degraded after {what} "
                f"failed ({type(exc).__name__}: {exc}); campaigns fall "
                f"through to live solves", RuntimeWarning, stacklevel=3)

    # -- checksums ---------------------------------------------------------

    @staticmethod
    def _checksum(key: str, codec: str, value) -> str:
        body = {"codec": codec, "key": key, "value": value}
        return hashlib.sha256(canonical_blob(body).encode()).hexdigest()

    # -- reading -----------------------------------------------------------

    def get(self, key: str):
        """Look up ``key``; returns ``(hit, payload)``.

        A corrupt entry (unparseable, wrong schema/key, checksum
        mismatch) is quarantined and reported as a miss — it is never
        served, and the campaign recomputes and rewrites it. I/O errors
        degrade the cache instead of raising.
        """
        if self.degraded:
            self.stats.misses += 1
            self._count("misses")
            return False, None
        path = self.entry_path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.stats.misses += 1
            self._count("misses")
            return False, None
        except OSError as exc:
            self._degrade(f"reading entry {key[:12]}", exc)
            self.stats.misses += 1
            self._count("misses")
            return False, None
        entry = self._validate(key, text)
        if entry is None:
            self._evict_corrupt(key, path)
            self.stats.misses += 1
            self._count("misses")
            return False, None
        self.stats.hits += 1
        self._count("hits")
        return True, entry["value"]

    def _validate(self, key: str, text: str) -> dict | None:
        """Parse + integrity-check one entry body; None when corrupt."""
        try:
            entry = json.loads(text)
        except ValueError:
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != ENTRY_SCHEMA or entry.get("key") != key:
            return None
        if "value" not in entry or "codec" not in entry:
            return None
        if self.verify_checksums:
            expected = self._checksum(key, entry["codec"], entry["value"])
            if entry.get("checksum") != expected:
                return None
        return entry

    def _evict_corrupt(self, key: str, path: Path) -> None:
        """Quarantine a corrupt entry so it is recomputed, never served."""
        self.stats.corruptions += 1
        self.stats.evictions += 1
        self._count("corruptions")
        self._count("evictions")
        quarantine = self._quarantine_path(key)
        try:
            quarantine.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine)
        except OSError:
            try:
                path.unlink()
            except OSError as exc:
                self._degrade(f"evicting corrupt entry {key[:12]}", exc)
        warnings.warn(
            f"solve cache entry {key[:12]}… failed verification; "
            f"quarantined and scheduled for recompute", RuntimeWarning,
            stacklevel=4)

    # -- writing -----------------------------------------------------------

    def put(self, key: str, value) -> bool:
        """Commit ``(key -> value)`` atomically; True when stored.

        ``value`` must already be codec-encoded (JSON-representable).
        Read-only and degraded caches skip silently; lock timeouts and
        I/O errors degrade rather than raise.
        """
        if self.read_only or self.degraded:
            return False
        try:
            codec = "json"
            entry = {
                "schema": ENTRY_SCHEMA,
                "key": key,
                "codec": codec,
                "value": value,
                "checksum": self._checksum(key, codec, value),
                "written_utc": datetime.now(timezone.utc).isoformat(),
            }
            with self._lock():
                return self._commit(key, entry)
        except LockTimeout as exc:
            self._degrade("acquiring the writer lock", exc)
            return False
        except OSError as exc:
            self._degrade(f"writing entry {key[:12]}", exc)
            return False

    def _commit(self, key: str, entry: dict) -> bool:
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{key}.{os.getpid()}.tmp"
        text = json.dumps(entry, sort_keys=True)
        plan = active_plan()
        fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
        try:
            if plan is not None and plan.fires("cache_torn_write"):
                # Crash between temp-write and rename: half the body is
                # on disk under the temp name and the entry never
                # becomes visible. Readers cannot observe it.
                os.write(fd, text[:max(1, len(text) // 2)].encode())
                return False
            os.write(fd, text.encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        self._fsync_dir(path.parent)
        self.stats.stores += 1
        self._count("stores")
        if plan is not None and plan.fires("cache_corrupt"):
            _flip_byte(path)
        return True

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    # -- locking -----------------------------------------------------------

    @contextmanager
    def _lock(self):
        """Serialize writers on a pid+start-time lock file."""
        self.root.mkdir(parents=True, exist_ok=True)
        plan = active_plan()
        if plan is not None and plan.fires("stale_lock"):
            # A previous writer "crashed" holding the lock: plant a
            # lock whose start-time can never match a live process, so
            # the reclaim path below must run to make progress.
            try:
                self.lock_path.write_text(json.dumps(
                    {"pid": os.getpid(), "start_time": -1}))
            except OSError:  # pragma: no cover - root itself broken
                pass
        deadline = time.monotonic() + self.lock_timeout_s
        while True:
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                break
            except FileExistsError:
                if _lock_is_stale(self.lock_path):
                    try:
                        self.lock_path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"cache writer lock at {self.lock_path} held by "
                        f"a live process for > {self.lock_timeout_s} s")
                time.sleep(self.lock_poll_s)
        try:
            info = {"pid": os.getpid(),
                    "start_time": process_start_time(os.getpid()),
                    "acquired_utc":
                        datetime.now(timezone.utc).isoformat()}
            os.write(fd, json.dumps(info).encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            yield
        finally:
            try:
                self.lock_path.unlink()
            except OSError:  # pragma: no cover - already reclaimed
                pass

    # -- maintenance -------------------------------------------------------

    def iter_entry_paths(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == QUARANTINE_DIR:
                continue
            for path in sorted(shard.iterdir()):
                yield path

    def verify(self) -> dict:
        """Walk every entry; quarantine corrupt ones, sweep stray temps.

        Returns ``{"entries", "ok", "corrupt", "stray_tmp",
        "quarantined_total"}`` — the report ``repro cache verify``
        prints.
        """
        entries = ok = corrupt = stray = 0
        for path in list(self.iter_entry_paths()):
            if path.suffix == ".tmp" or ".tmp" in path.name:
                stray += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            entries += 1
            key = path.stem
            try:
                text = path.read_text()
            except OSError:
                corrupt += 1
                self._evict_corrupt(key, path)
                continue
            if self._validate(key, text) is None:
                corrupt += 1
                self._evict_corrupt(key, path)
            else:
                ok += 1
        quarantine = self.root / QUARANTINE_DIR
        quarantined_total = (len(list(quarantine.iterdir()))
                             if quarantine.is_dir() else 0)
        return {"entries": entries, "ok": ok, "corrupt": corrupt,
                "stray_tmp": stray,
                "quarantined_total": quarantined_total}

    def clear(self) -> int:
        """Delete every entry (and the quarantine); returns the count."""
        removed = 0
        for path in list(self.iter_entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def entry_count(self) -> int:
        return sum(1 for path in self.iter_entry_paths()
                   if ".tmp" not in path.name)

    def total_bytes(self) -> int:
        total = 0
        for path in self.iter_entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total


def _flip_byte(path: Path, offset_from_end: int = 9) -> None:
    """Flip one byte of ``path`` in place (chaos corruption injector).

    Targets a byte near the end of the body — inside the serialized
    value/checksum region — so the corruption is semantic, not merely a
    JSON syntax error.
    """
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        offset = max(0, size - offset_from_end)
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x20]) if byte else b"X")


def as_cache(cache) -> SolveCache | None:
    """Coerce a cache argument (None | path | SolveCache)."""
    if cache is None or isinstance(cache, SolveCache):
        return cache
    return SolveCache(cache)
