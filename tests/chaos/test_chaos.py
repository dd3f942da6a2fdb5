"""Chaos battery: kill -9, bit-flips, torn writes, SIGTERM, races.

Every scenario asserts the headline robustness guarantee end to end:
a crashed-and-resumed campaign is *bitwise identical* to one that never
crashed, and a corrupted cache entry is quarantined and recomputed —
never served. Run with ``pytest -m chaos``.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.analysis.montecarlo import MonteCarloConfig, monte_carlo_spec
from repro.core.characterize import StimulusPlan
from repro.runtime.cache import SolveCache, cache_key
from repro.runtime.experiment import (
    ArtifactStore, ExperimentPoint, ExperimentSpec, run_experiment,
)
from repro.runtime.service import CampaignService, ServiceConfig

pytestmark = pytest.mark.chaos


def _ctx():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def slow_square(x):
    time.sleep(0.03)
    return x * x


def _spec(n=12, **overrides):
    points = [ExperimentPoint(i, float(i)) for i in range(n)]
    options = {"name": "chaos-run", "measure": slow_square,
               "points": points, "codec": "json"}
    options.update(overrides)
    return ExperimentSpec(**options)


def _config(**overrides):
    options = {"chunk_size": 2, "workers": 2, "poll_interval_s": 0.005,
               "backoff_base_s": 0.01, "backoff_cap_s": 0.05}
    options.update(overrides)
    return ServiceConfig(**options)


def _mc_spec(runs=2):
    config = MonteCarloConfig(
        runs=runs, seed=20080310,
        plan=StimulusPlan(settle=3e-9, hold=2e-9, short=0.8e-9))
    return monte_carlo_spec("sstvs", 0.8, 1.2, config)


def _bump(node):
    """Perturb every numeric leaf of a JSON value (+1.0)."""
    if isinstance(node, dict):
        return {key: _bump(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_bump(value) for value in node]
    if isinstance(node, bool) or node is None:
        return node
    if isinstance(node, (int, float)):
        return node + 1.0
    return f"{node}-corrupt"


def _tamper_value(cache, key):
    """Perturb an entry's payload, keeping the stale checksum.

    Still perfectly parseable JSON — only checksum verification can
    tell this entry has been corrupted.
    """
    path = cache.entry_path(key)
    entry = json.loads(path.read_text())
    entry["value"] = _bump(entry["value"])
    path.write_text(json.dumps(entry, sort_keys=True))


def _supervisor_victim(store_root, run_id):
    """Child body: run a supervised campaign, SIGKILL *ourselves*
    (the supervisor) after the fourth merged point — an uncatchable
    kill -9 mid-campaign, exactly at a row boundary a real crash could
    hit."""
    merged = []

    def progress(index, value):
        merged.append(index)
        if len(merged) == 4:
            os.kill(os.getpid(), signal.SIGKILL)

    service = CampaignService(store_root, config=_config())
    service.run(_spec(), run_id=run_id, progress=progress)


def _sigterm_victim(store_root, run_id, ready_path):
    def progress(index, value):
        # First merged row: the supervisor loop (and its SIGTERM
        # handler) is live — tell the parent it may now shoot us. Then
        # hold the supervisor here until the signal lands, so a loaded
        # machine cannot let the campaign finish before the kill.
        if not os.path.exists(ready_path):
            with open(ready_path, "w") as handle:
                handle.write("ready")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                time.sleep(0.01)

    service = CampaignService(store_root, config=_config())
    service.run(_spec(), run_id=run_id, progress=progress)


def _hammer_puts(root, worker_id, n):
    cache = SolveCache(root, lock_timeout_s=30.0, lock_poll_s=0.001)
    for i in range(n):
        cache.put(cache_key(x=i), [float(worker_id), float(i)])


class TestKillNineResume:
    def test_killed_supervisor_resumes_bitwise_identical(self, tmp_path):
        serial = run_experiment(_spec())
        run_id = "chaos-kill-run"
        victim = _ctx().Process(target=_supervisor_victim,
                                args=(str(tmp_path), run_id))
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL
        # Orphaned chunk workers each finish their one chunk and exit;
        # give them a beat so their final fsynced lines are on disk.
        time.sleep(0.5)

        service = CampaignService(tmp_path, config=_config())
        resumed = service.run(_spec(), run_id=run_id)
        assert service.stats.salvaged_rows >= 4
        assert not resumed.interrupted
        assert resumed.values() == serial.values()
        assert resumed.counts == serial.counts
        # The healed artifact reloads identically.
        healed = ArtifactStore(tmp_path).load(run_id)
        assert healed.values() == serial.values()


class TestSigtermParity:
    def test_sigterm_finishes_partial_then_resume_matches(self,
                                                          tmp_path):
        serial = run_experiment(_spec())
        run_id = "chaos-term-run"
        ready = tmp_path / "ready"
        victim = _ctx().Process(target=_sigterm_victim,
                                args=(str(tmp_path), run_id,
                                      str(ready)))
        victim.start()
        deadline = time.monotonic() + 30
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ready.exists()
        os.kill(victim.pid, signal.SIGTERM)
        victim.join(timeout=60)
        # SIGTERM is Ctrl-C: partial results written, clean exit 0.
        assert victim.exitcode == 0

        store = ArtifactStore(tmp_path)
        partial = store.load(run_id)
        assert partial.interrupted
        assert 0 < len(partial.rows) <= 12

        service = CampaignService(tmp_path, config=_config())
        resumed = service.run(_spec(), run_id=run_id, resume=partial)
        assert not resumed.interrupted
        assert resumed.values() == serial.values()


class TestCacheBitFlip:
    def test_corrupt_entry_recomputed_bitwise_equal_to_cold(self,
                                                            tmp_path):
        spec = _mc_spec()
        cold_cache = SolveCache(tmp_path / "cache")
        cold = run_experiment(_mc_spec(), cache=cold_cache)
        assert cold_cache.stats.stores == 2

        keys = [path.stem for path in cold_cache.iter_entry_paths()]
        _tamper_value(cold_cache, keys[0])

        warm_cache = SolveCache(tmp_path / "cache")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            warm = run_experiment(_mc_spec(), cache=warm_cache)
        assert warm_cache.stats.corruptions == 1
        assert warm_cache.stats.hits == 1    # the intact entry
        assert warm_cache.stats.stores == 1  # the recomputed one
        assert warm.values() == cold.values()
        # The corrupt body is preserved for forensics, never served.
        quarantine = tmp_path / "cache" / "quarantine"
        assert len(list(quarantine.iterdir())) == 1
        assert warm_cache.verify()["corrupt"] == 0

    def test_negative_control_detection_disabled_serves_corruption(
            self, tmp_path):
        """Prove the checksum is load-bearing.

        With verification switched off, the very same tampered entry IS
        served and the warm campaign silently diverges from cold — the
        exact failure mode the checksum exists to prevent. If the
        production default ever stopped verifying, this test's sibling
        above would fail and this one would "pass", flagging the
        regression.
        """
        cold_cache = SolveCache(tmp_path / "cache")
        cold = run_experiment(_mc_spec(), cache=cold_cache)
        keys = [path.stem for path in cold_cache.iter_entry_paths()]
        _tamper_value(cold_cache, keys[0])

        unsafe = SolveCache(tmp_path / "cache", verify_checksums=False)
        warm = run_experiment(_mc_spec(), cache=unsafe)
        assert unsafe.stats.hits == 2
        assert unsafe.stats.corruptions == 0  # nothing detected...
        assert warm.values() != cold.values()  # ...and results diverge


class TestConcurrentWriters:
    def test_two_writers_same_keys_never_torn(self, tmp_path):
        root = tmp_path / "cache"
        n = 40
        writers = [_ctx().Process(target=_hammer_puts,
                                  args=(str(root), wid, n))
                   for wid in (1, 2)]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        survivor = SolveCache(root)
        report = survivor.verify()
        assert report["corrupt"] == 0
        assert report["entries"] == n
        assert not survivor.lock_path.exists()
        for i in range(n):
            hit, payload = survivor.get(cache_key(x=i))
            assert hit
            # Last committed writer wins wholesale — values are one
            # writer's record or the other's, never an interleaving.
            assert payload in ([1.0, float(i)], [2.0, float(i)])

    def test_crashed_writer_lock_is_reclaimed(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        # A lock from a writer that no longer exists (dead pid).
        pid = 2 ** 22 - 7
        while os.path.exists(f"/proc/{pid}"):  # pragma: no cover
            pid -= 1
        (root / ".lock").write_text(json.dumps({"pid": pid}))
        cache = SolveCache(root, lock_timeout_s=5.0)
        assert cache.put(cache_key(x=0), 1.0)
        assert cache.get(cache_key(x=0)) == (True, 1.0)
