"""StageArtifactStore hardening: concurrent writers, corruption, reaping."""

import json
import os
import time

from repro.pipeline.artifacts import STAGE_STORE_FORMAT, StageArtifactStore
from repro.runtime import ParallelMap


def _store(tmp_path, **kwargs) -> StageArtifactStore:
    return StageArtifactStore(root=str(tmp_path / "stages"), **kwargs)


# ---------------------------------------------------------------------------
# stale-tmp reaping (SIGKILLed writer regression)
# ---------------------------------------------------------------------------
def test_init_reaps_stale_tmp_but_keeps_fresh(tmp_path):
    root = tmp_path / "stages"
    root.mkdir()
    stale = root / "abcd.json.999.tmp"
    fresh = root / "ef01.json.998.tmp"
    stale.write_text("{trunc")
    fresh.write_text("{trunc")
    past = time.time() - 7200
    os.utime(stale, (past, past))

    store = _store(tmp_path)  # init sweeps
    assert not stale.exists()
    assert fresh.exists()  # could be a live writer mid-publish
    assert store.reap_stale_tmp() == 0  # idempotent


def test_put_leaves_no_tmp_behind(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": 1})
    leftovers = [n for n in os.listdir(store.root) if n.endswith(".tmp")]
    assert leftovers == []


def test_reap_on_missing_root_is_harmless(tmp_path):
    store = StageArtifactStore(root=str(tmp_path / "never_created"))
    assert store.reap_stale_tmp() == 0


# ---------------------------------------------------------------------------
# corruption = miss
# ---------------------------------------------------------------------------
def test_corrupt_record_reads_as_miss(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": 1})
    with open(store.path("k1"), "w") as fh:
        fh.write('{"format": 1, "payload": ')  # torn write
    assert store.get("k1") is None


def test_wrong_format_reads_as_miss(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": 1})
    record = json.load(open(store.path("k1")))
    record["format"] = STAGE_STORE_FORMAT + 1
    json.dump(record, open(store.path("k1"), "w"))
    assert store.get("k1") is None


def test_record_missing_payload_reads_as_miss(tmp_path):
    store = _store(tmp_path)
    os.makedirs(store.root, exist_ok=True)
    with open(store.path("k1"), "w") as fh:
        json.dump({"format": STAGE_STORE_FORMAT, "key": "k1"}, fh)
    assert store.get("k1") is None


# ---------------------------------------------------------------------------
# first-publish-wins dedup
# ---------------------------------------------------------------------------
def test_put_overwrite_false_discards_second_publication(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": "first"},
              overwrite=False, worker="w1")
    store.put("k1", "s", "analysis", "spec", {"v": "second"},
              overwrite=False, worker="w2")
    record = store.get("k1")
    assert record["payload"] == {"v": "first"}
    assert record["worker"] == "w1"


def test_put_overwrite_true_replaces(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": "first"})
    store.put("k1", "s", "analysis", "spec", {"v": "second"})
    assert store.get("k1")["payload"] == {"v": "second"}


def test_put_records_seconds_and_worker(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": 1},
              seconds=1.234567899, worker="w9")
    record = store.get("k1")
    assert record["seconds"] == 1.234568
    assert record["worker"] == "w9"


def test_drop_removes_record(tmp_path):
    store = _store(tmp_path)
    store.put("k1", "s", "analysis", "spec", {"v": 1})
    store.drop("k1")
    assert store.get("k1") is None
    store.drop("k1")  # idempotent


# ---------------------------------------------------------------------------
# cross-process concurrent publication
# ---------------------------------------------------------------------------
def _concurrent_put(args):
    """Runs in a spawned worker: publish one record for a shared key."""
    root, worker = args
    from repro.pipeline.artifacts import StageArtifactStore as Store

    store = Store(root=root)
    store.put("race", "s", "analysis", "spec",
              {"from": worker, "blob": "x" * 4096},
              overwrite=False, worker=worker)
    record = store.get("race")
    return {"worker": worker, "read": record["payload"]["from"],
            "pid": os.getpid()}


def test_concurrent_process_puts_converge_on_one_record(tmp_path):
    """Two processes put() the same key simultaneously: exactly one record
    survives, both readers see the same whole payload, nothing crashes."""
    root = str(tmp_path / "stages")
    reports = ParallelMap(jobs=2).map(
        _concurrent_put, [(root, "w1"), (root, "w2")]
    )
    assert all(r["pid"] != os.getpid() for r in reports)

    store = StageArtifactStore(root=root)
    record = store.get("race")
    assert record is not None
    winner = record["payload"]["from"]
    assert winner in {"w1", "w2"}
    # byte-identical reads: every later read returns the winner's record
    assert store.get("race") == record
    assert not [n for n in os.listdir(root) if n.endswith(".tmp")]
    # exactly one record file for the key
    assert sorted(n for n in os.listdir(root) if n == "race.json") == [
        "race.json"
    ]
