"""Crash-consistent artifact store: atomicity, versioning, corruption.

The crash simulations here are byte-exhaustive: a write is killed at
*every* payload offset (plus the written-but-not-renamed boundary) and
the reader must always observe the old content or the new content in
full — never a torn prefix.  The same property is asserted for every
production writer routed through the shared helper (campaign
checkpoints, evaluation-grid JSON, dataset ``.npz`` and the figure,
report, kernel and fault-sweep exports).
"""

import json
import pickle

import pytest

import repro.datagen.dataset as dataset_module
import repro.evaluation.cache as evaluation_cache
import repro.parallel as parallel_module
from repro.datagen.dataset import DVFSDataset
from repro.errors import ArtifactCorrupt
from repro.parallel import CampaignCheckpoint
from repro.store import (ArtifactStore, SimulatedCrash, atomic_write_bytes,
                         atomic_write_text, sha256_hex)


# ---------------------------------------------------------------------------
# Atomic writer
# ---------------------------------------------------------------------------

def test_atomic_write_roundtrip(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"hello")
    assert path.read_bytes() == b"hello"
    atomic_write_text(path, "ciao")
    assert path.read_text() == "ciao"
    assert not list(tmp_path.glob("*.tmp*"))


def test_atomic_write_crash_at_every_offset(tmp_path):
    path = tmp_path / "blob.bin"
    old = b"old-content-that-must-survive"
    new = b"replacement-payload-0123456789"
    atomic_write_bytes(path, old)
    # +1 exercises the written-but-not-renamed boundary.
    for offset in range(len(new) + 2):
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(path, new, crash_after=offset)
        assert path.read_bytes() == old, f"torn read at offset {offset}"
    # Leftover temp files from the kills must not block a clean write.
    atomic_write_bytes(path, new)
    assert path.read_bytes() == new


def test_atomic_write_crash_with_no_previous_file(tmp_path):
    path = tmp_path / "fresh.bin"
    with pytest.raises(SimulatedCrash):
        atomic_write_bytes(path, b"data", crash_after=2)
    assert not path.exists()


# ---------------------------------------------------------------------------
# ArtifactStore semantics
# ---------------------------------------------------------------------------

def test_store_put_get_roundtrip_and_versioning(tmp_path):
    store = ArtifactStore(tmp_path)
    v1 = store.put("pair", b"alpha", schema="test/v1")
    v2 = store.put("pair", b"beta", schema="test/v1", mark_good=True)
    assert (v1, v2) == (1, 2)
    assert store.get("pair") == b"beta"
    assert store.get("pair", v1) == b"alpha"
    assert store.latest_version("pair") == 2
    assert store.last_known_good("pair") == 2
    assert store.names() == ["pair"]
    entries = store.versions("pair")
    assert [e.version for e in entries] == [1, 2]
    assert entries[0].sha256 == sha256_hex(b"alpha")
    assert "pair" in store.render()


def test_store_detects_corruption_and_falls_back(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("pair", b"good-old", mark_good=True)
    v2 = store.put("pair", b"good-new", mark_good=True)
    # Flip payload bytes of the newest version on disk.
    path = tmp_path / "pair" / f"v{v2:06d}.art"
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert not store.verify("pair", v2)
    with pytest.raises(ArtifactCorrupt):
        store.get("pair", v2, fallback=False)
    # With fallback the store serves the older verifying version.
    assert store.get("pair") == b"good-old"
    assert store.counters["store_corrupt_reads"] >= 1
    assert store.counters["store_fallbacks"] >= 1


def test_store_missing_artifact_raises(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ArtifactCorrupt):
        store.get("nothing")
    with pytest.raises(ArtifactCorrupt):
        store.get("nothing", 3, fallback=False)


def test_store_rollback_demotes_pointer(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("pair", b"v1-bytes", mark_good=True)
    store.put("pair", b"v2-bytes", mark_good=True)
    assert store.last_known_good("pair") == 2
    assert store.rollback("pair") == 1
    assert store.last_known_good("pair") == 1
    assert store.get("pair", store.last_known_good("pair")) == b"v1-bytes"


def test_store_manifest_corruption_rebuilds_from_version_files(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("pair", b"alpha")
    store.put("pair", b"beta")
    (tmp_path / "pair" / "manifest.json").write_text("{not json")
    rebuilt = ArtifactStore(tmp_path)
    assert [e.version for e in rebuilt.versions("pair")] == [1, 2]
    assert rebuilt.get("pair") == b"beta"


def test_store_put_crash_at_every_offset_never_tears(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("pair", b"committed", mark_good=True)
    payload = b"next-version-payload"
    # The encoded version file = magic + header + payload; kill the
    # write at every offset of the *encoded* length plus the rename
    # boundary.
    encoded_length = len(payload) + 256
    for offset in range(encoded_length):
        with pytest.raises(SimulatedCrash):
            store.put("pair", payload, crash_after=offset)
        survivor = ArtifactStore(tmp_path)  # fresh process after the kill
        assert survivor.get("pair") == b"committed"
        assert survivor.last_known_good("pair") == 1
    after = store.put("pair", payload)
    assert store.get("pair", after) == payload


# ---------------------------------------------------------------------------
# Every production writer goes through the atomic helper
# ---------------------------------------------------------------------------

def _crash_offsets(length, exhaustive_limit=256, samples=32):
    """Every offset for small payloads, an even sample for large ones."""
    boundary = length + 1
    if boundary <= exhaustive_limit:
        return list(range(boundary + 1))
    step = max(1, boundary // samples)
    return sorted({0, boundary, *range(0, boundary, step)})


def _assert_writer_crash_consistent(module, write, read, expected,
                                    payload_length, monkeypatch):
    """Kill ``write`` at byte offsets; ``read()`` must equal ``expected``."""
    real = atomic_write_bytes
    for offset in _crash_offsets(payload_length):
        def crashing(path, data, *, crash_after=None, _offset=offset):
            real(path, data, crash_after=_offset)

        monkeypatch.setattr(module, "atomic_write_bytes", crashing,
                            raising=False)
        if hasattr(module, "atomic_write_text"):
            monkeypatch.setattr(
                module, "atomic_write_text",
                lambda path, text, _c=crashing: _c(path,
                                                   text.encode("utf-8")),
                raising=False)
        with pytest.raises(SimulatedCrash):
            write()
        monkeypatch.undo()
        assert read() == expected, f"torn content at offset {offset}"


def test_campaign_checkpoint_writes_are_atomic(tmp_path, monkeypatch):
    path = tmp_path / "campaign.ckpt"
    ckpt = CampaignCheckpoint(path, key="k")
    ckpt.save({0: "committed"})
    payload_length = len(pickle.dumps({"key": "k", "results": {0: "new"}}))
    _assert_writer_crash_consistent(
        parallel_module,
        write=lambda: CampaignCheckpoint(path, key="k").save({0: "new"}),
        read=lambda: CampaignCheckpoint(path, key="k").load(),
        expected={0: "committed"},
        payload_length=payload_length,
        monkeypatch=monkeypatch)


def _export_writers():
    """``(module, write(path))`` for each result writer outside the store."""
    import repro.cli as cli_module
    import repro.evaluation.export as export_module
    import repro.evaluation.report as report_module
    import repro.store as store_module
    from repro.evaluation.experiments import Fig4Result
    from repro.evaluation.robustness import FaultSweepCell, FaultSweepResult
    from repro.evaluation.runner import ComparisonResult, PolicyRun

    comparison = ComparisonResult(preset=0.10)
    for policy in ("baseline", "pcstall", "flemma", "ssmdvfs-pruned"):
        comparison.runs.append(PolicyRun(
            policy_name=policy, kernel_name="k1", time_s=1e-4,
            energy_j=1e-2, normalized_edp=0.9, normalized_latency=1.05,
            epochs=30))
    sweep = FaultSweepResult(preset=0.10, slack=0.05, cells=[FaultSweepCell(
        mode="nan", rate=0.5, policy="governor", mean_edp=0.9,
        mean_latency=1.02, violations=0, kernels=1)])

    def faults_export(path):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.evaluation.robustness.fault_sweep",
                          lambda *args, **kwargs: sweep)
            assert cli_module.main(["faults", "--small", "--mode", "nan",
                                    "--export", str(path)]) == 0

    def report(path):
        results = path.parent / "results"
        results.mkdir(exist_ok=True)
        (results / "hw_asic.txt").write_text("HW\n")
        report_module.write_report(results, path)

    return {
        "export_fig4_json": (store_module, lambda path: (
            export_module.export_fig4_json(
                Fig4Result(comparisons={0.10: comparison}), path))),
        "write_report": (report_module, report),
        "cmd_faults_export": (cli_module, faults_export),
    }


@pytest.mark.parametrize("writer", [
    "export_fig4_json", "write_report", "cmd_faults_export"])
def test_result_exports_are_atomic(writer, tmp_path, monkeypatch, capsys):
    module, write = _export_writers()[writer]
    probe = tmp_path / "probe.out"
    write(probe)
    path = tmp_path / "result.out"
    path.write_bytes(b"committed")
    _assert_writer_crash_consistent(
        module,
        write=lambda: write(path),
        read=path.read_bytes,
        expected=b"committed",
        payload_length=len(probe.read_bytes()),
        monkeypatch=monkeypatch)
    write(path)
    assert path.read_bytes() == probe.read_bytes()


def test_evaluation_grid_cache_writes_are_atomic(tmp_path, monkeypatch):
    path = tmp_path / "grid-abc.json"
    committed = {"preset": 0.1, "runs": []}
    path.write_text(json.dumps(committed))
    replacement = json.dumps({"preset": 0.2, "runs": []})
    _assert_writer_crash_consistent(
        evaluation_cache,
        write=lambda: evaluation_cache.atomic_write_text(path, replacement),
        read=lambda: json.loads(path.read_text()),
        expected=committed,
        payload_length=len(replacement),
        monkeypatch=monkeypatch)


def test_dataset_save_is_atomic(tmp_path, monkeypatch, small_dataset):
    path = tmp_path / "ds.npz"
    small_dataset.save(path)
    committed = path.read_bytes()

    def read_back():
        DVFSDataset.load(path)  # must parse fully, not just exist
        return path.read_bytes()

    _assert_writer_crash_consistent(
        dataset_module,
        write=lambda: small_dataset.save(path),
        read=read_back,
        expected=committed,
        payload_length=len(committed),
        monkeypatch=monkeypatch)


def test_dataset_save_appends_npz_suffix(tmp_path, small_dataset):
    # np.savez historically appended .npz to suffix-less paths; the
    # atomic rewrite must keep that contract for external callers.
    small_dataset.save(tmp_path / "plain")
    assert (tmp_path / "plain.npz").exists()
    loaded = DVFSDataset.load(tmp_path / "plain.npz")
    assert loaded.num_breakpoints == small_dataset.num_breakpoints
