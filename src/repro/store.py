"""Crash-consistent artifact store and atomic-write helpers.

A production DVFS deployment keeps trained Decision-maker / Calibrator
pairs, datasets and evaluation grids on disk, and a crash mid-write
must never leave a torn file that a later run silently trusts (or
silently retrains from).  This module provides the two layers that
guarantee:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the shared
  write-temp / fsync / rename helper every persistent writer in the
  repo routes through: the ``save`` of each cache built on
  :func:`repro.parallel.cached` (datasets, evaluation grids, sweep
  points), campaign checkpoints and model artefacts.  A reader of the
  destination path sees either the complete old content or the
  complete new content, never a prefix.  Crash simulation is built in:
  ``crash_after`` aborts the write after that many payload bytes with
  :class:`SimulatedCrash`, leaving exactly the on-disk state a power
  loss would — the chaos-soak harness and the torn-write tests drive
  every byte offset through it.

* :class:`ArtifactStore` — a versioned, checksummed registry.  Every
  ``put`` writes a self-describing version file (magic + JSON header
  with schema version, payload length and an embedded SHA-256, then
  the payload) through the atomic helper and records it in a
  per-artifact manifest.  ``get`` verifies the digest before returning
  a single byte and raises :class:`~repro.errors.ArtifactCorrupt` on
  mismatch — or transparently falls back to the newest *verifying*
  version when one exists.  A ``last_known_good`` pointer per artifact
  name, advanced only by :meth:`ArtifactStore.mark_good`, is what the
  drift-rollback machinery restores from.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import ArtifactCorrupt, ReproError

#: First line of every version file; bump when the header layout changes.
ARTIFACT_MAGIC = b"repro-artifact-v1"

#: Manifest schema identifier (checked on load; mismatch = rebuild).
MANIFEST_MAGIC = "repro-artifact-manifest-v1"


class SimulatedCrash(ReproError):
    """An injected mid-write crash (testing / chaos-soak only).

    Raised by the atomic-write helpers when ``crash_after`` is set:
    the temp file holds a prefix of the payload, the destination is
    untouched — exactly the state a real kill would leave.
    """


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a completed rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fsync (not a correctness loss)
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes, *,
                       crash_after: int | None = None) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    Readers of ``path`` observe either its previous content or ``data``
    in full — never a torn prefix.  ``crash_after`` simulates a crash:
    the temp file is flushed with exactly that many payload bytes and
    :class:`SimulatedCrash` is raised *without* renaming (a value
    larger than ``len(data)`` crashes after the full write but before
    the rename, exercising the rename boundary).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            if crash_after is not None and crash_after <= len(data):
                handle.write(data[:crash_after])
                handle.flush()
                os.fsync(handle.fileno())
                raise SimulatedCrash(
                    f"injected crash after {crash_after} of "
                    f"{len(data)} bytes -> {path.name}")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if crash_after is not None:
            raise SimulatedCrash(
                f"injected crash before rename -> {path.name}")
        os.replace(tmp, path)
    except SimulatedCrash:
        raise  # leave the temp file behind, exactly like a real kill
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, payload) -> Path:
    """Atomically write ``payload`` as indented, key-sorted JSON.

    The one writer of every JSON export, so an export is byte-stable
    whenever its payload is.  Returns the path.
    """
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of a payload (the digest embedded in version files)."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Versioned registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactVersion:
    """Manifest entry describing one stored version of an artifact."""

    version: int
    filename: str
    sha256: str
    schema: str
    length: int

    def to_payload(self) -> dict:
        """JSON-ready manifest entry."""
        return {"version": self.version, "filename": self.filename,
                "sha256": self.sha256, "schema": self.schema,
                "length": self.length}

    @classmethod
    def from_payload(cls, payload: dict) -> "ArtifactVersion":
        """Inverse of :meth:`to_payload`."""
        return cls(version=int(payload["version"]),
                   filename=str(payload["filename"]),
                   sha256=str(payload["sha256"]),
                   schema=str(payload["schema"]),
                   length=int(payload["length"]))


def _encode_version_file(data: bytes, schema: str) -> bytes:
    header = json.dumps({"schema": schema, "sha256": sha256_hex(data),
                         "length": len(data)}, sort_keys=True)
    return b"\n".join([ARTIFACT_MAGIC, header.encode("utf-8"), data])


def _decode_version_file(blob: bytes, path: Path) -> tuple[bytes, dict]:
    """Split and verify a version file; raises ArtifactCorrupt."""
    magic, _, rest = blob.partition(b"\n")
    if magic != ARTIFACT_MAGIC:
        raise ArtifactCorrupt(f"{path}: bad or missing artifact magic")
    header_line, _, payload = rest.partition(b"\n")
    try:
        header = json.loads(header_line.decode("utf-8"))
    except Exception as exc:
        raise ArtifactCorrupt(f"{path}: unreadable header") from exc
    if len(payload) != header.get("length"):
        raise ArtifactCorrupt(
            f"{path}: truncated payload ({len(payload)} bytes, header "
            f"says {header.get('length')})")
    if sha256_hex(payload) != header.get("sha256"):
        raise ArtifactCorrupt(f"{path}: SHA-256 mismatch")
    return payload, header


class ArtifactStore:
    """Versioned, checksummed, crash-consistent artifact registry.

    Layout: ``root/<name>/v<NNNNNN>.art`` version files plus a
    ``manifest.json`` per artifact name recording the version list and
    the ``last_known_good`` pointer.  Both are written through the
    atomic helper, so no crash can leave a reader-visible torn file.  A
    corrupt or missing manifest is rebuilt by re-scanning (and
    re-verifying) the version files — degraded, never fatal.  A corrupt
    version file raises :class:`~repro.errors.ArtifactCorrupt` on
    direct reads; reads without an explicit version transparently fall
    back to the newest version that still verifies.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Observability counters (``store_*`` names), merged into
        #: campaign ``--stats`` by the soak harness.
        self.counters = Counter()

    # -- manifest ------------------------------------------------------
    def _dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ReproError(f"invalid artifact name {name!r}")
        return self.root / name

    def _manifest_path(self, name: str) -> Path:
        return self._dir(name) / "manifest.json"

    def _load_manifest(self, name: str) -> dict:
        path = self._manifest_path(name)
        if path.exists():
            try:
                payload = json.loads(path.read_text())
                if payload.get("magic") != MANIFEST_MAGIC:
                    raise ArtifactCorrupt(f"{path}: wrong manifest magic")
                versions = [ArtifactVersion.from_payload(entry)
                            for entry in payload["versions"]]
                return {"versions": versions,
                        "last_known_good": payload.get("last_known_good")}
            except Exception:
                self.counters["store_manifest_rebuilds"] += 1
        elif not self._dir(name).exists():
            return {"versions": [], "last_known_good": None}
        else:
            self.counters["store_manifest_rebuilds"] += 1
        return self._rebuild_manifest(name)

    def _rebuild_manifest(self, name: str) -> dict:
        """Re-scan version files after manifest loss/corruption."""
        versions = []
        for file in sorted(self._dir(name).glob("v*.art")):
            try:
                payload, header = _decode_version_file(file.read_bytes(),
                                                       file)
            except ArtifactCorrupt:
                continue  # unverifiable versions are not resurrected
            try:
                number = int(file.stem[1:])
            except ValueError:
                continue
            versions.append(ArtifactVersion(
                version=number, filename=file.name,
                sha256=header["sha256"], schema=header["schema"],
                length=header["length"]))
        manifest = {"versions": versions, "last_known_good": None}
        if versions:
            self._save_manifest(name, manifest)
        return manifest

    def _save_manifest(self, name: str, manifest: dict) -> None:
        payload = {
            "magic": MANIFEST_MAGIC,
            "versions": [v.to_payload() for v in manifest["versions"]],
            "last_known_good": manifest["last_known_good"],
        }
        atomic_write_text(self._manifest_path(name),
                          json.dumps(payload, indent=2, sort_keys=True))

    # -- public API ----------------------------------------------------
    def names(self) -> list[str]:
        """All artifact names present under the store root."""
        if not self.root.exists():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def versions(self, name: str) -> list[ArtifactVersion]:
        """Manifest entries for ``name``, oldest first."""
        return sorted(self._load_manifest(name)["versions"],
                      key=lambda v: v.version)

    def latest_version(self, name: str) -> int | None:
        """Highest recorded version number (None when absent)."""
        versions = self.versions(name)
        return versions[-1].version if versions else None

    def last_known_good(self, name: str) -> int | None:
        """The version :meth:`mark_good` last blessed (None if never)."""
        return self._load_manifest(name)["last_known_good"]

    def put(self, name: str, data: bytes, schema: str = "bytes/v1", *,
            mark_good: bool = False,
            crash_after: int | None = None) -> int:
        """Store a new version of ``name``; returns its version number.

        ``mark_good`` additionally advances the ``last_known_good``
        pointer — callers should only set it after validating the
        payload end-to-end.  ``crash_after`` forwards to the atomic
        writer for crash simulation: the store is guaranteed readable
        (old versions intact, manifest consistent) after the simulated
        kill.
        """
        if not isinstance(data, bytes):
            raise ReproError("artifact payload must be bytes")
        manifest = self._load_manifest(name)
        versions = manifest["versions"]
        number = (max(v.version for v in versions) + 1) if versions else 1
        filename = f"v{number:06d}.art"
        atomic_write_bytes(self._dir(name) / filename,
                           _encode_version_file(data, schema),
                           crash_after=crash_after)
        versions.append(ArtifactVersion(
            version=number, filename=filename, sha256=sha256_hex(data),
            schema=schema, length=len(data)))
        if mark_good:
            manifest["last_known_good"] = number
        self._save_manifest(name, manifest)
        self.counters["store_puts"] += 1
        return number

    def _read_version(self, name: str, entry: ArtifactVersion) -> bytes:
        path = self._dir(name) / entry.filename
        if not path.exists():
            raise ArtifactCorrupt(f"{path}: version file missing")
        payload, header = _decode_version_file(path.read_bytes(), path)
        if header["sha256"] != entry.sha256:
            raise ArtifactCorrupt(
                f"{path}: digest differs from manifest entry")
        return payload

    def get(self, name: str, version: int | None = None, *,
            fallback: bool = True) -> bytes:
        """Read and verify one version's payload.

        ``version=None`` reads the ``last_known_good`` version when one
        is marked, the newest otherwise.  On a failed digest check the
        read falls back to the newest older version that verifies
        (``store_fallbacks`` counts it) unless ``fallback=False``, in
        which case :class:`~repro.errors.ArtifactCorrupt` propagates.
        """
        entries = self.versions(name)
        if not entries:
            raise ArtifactCorrupt(f"no artifact named {name!r} in store")
        by_version = {entry.version: entry for entry in entries}
        if version is None:
            version = self._load_manifest(name)["last_known_good"]
            if version is None:
                version = entries[-1].version
        if version not in by_version:
            raise ArtifactCorrupt(f"{name!r} has no version {version}")
        try:
            payload = self._read_version(name, by_version[version])
            self.counters["store_reads"] += 1
            return payload
        except ArtifactCorrupt:
            self.counters["store_corrupt_reads"] += 1
            if not fallback:
                raise
        for entry in reversed(entries):
            if entry.version == version:
                continue
            try:
                payload = self._read_version(name, entry)
            except ArtifactCorrupt:
                self.counters["store_corrupt_reads"] += 1
                continue
            self.counters["store_fallbacks"] += 1
            return payload
        raise ArtifactCorrupt(
            f"{name!r}: no stored version verifies (tried "
            f"{[e.version for e in entries]})")

    def verify(self, name: str, version: int) -> bool:
        """True when the version's payload matches its embedded digest."""
        entries = {e.version: e for e in self.versions(name)}
        if version not in entries:
            return False
        try:
            self._read_version(name, entries[version])
            return True
        except ArtifactCorrupt:
            return False

    def drop(self, name: str) -> None:
        """Remove ``name`` and every version of it (no-op when absent)."""
        shutil.rmtree(self._dir(name), ignore_errors=True)

    def mark_good(self, name: str, version: int) -> None:
        """Advance ``last_known_good`` after the caller validated it."""
        manifest = self._load_manifest(name)
        if version not in {v.version for v in manifest["versions"]}:
            raise ArtifactCorrupt(f"{name!r} has no version {version}")
        manifest["last_known_good"] = version
        self._save_manifest(name, manifest)

    def rollback(self, name: str) -> int:
        """Force ``last_known_good`` back to the previous verifying version.

        The operations runbook's manual override: demotes the pointer
        past the currently-blessed version and returns the new target.
        Raises :class:`~repro.errors.ArtifactCorrupt` when nothing
        older verifies.
        """
        manifest = self._load_manifest(name)
        entries = sorted(manifest["versions"], key=lambda v: v.version)
        current = manifest["last_known_good"]
        if current is None and entries:
            current = entries[-1].version
        candidates = [e for e in entries if e.version < (current or 0)]
        for entry in reversed(candidates):
            if self.verify(name, entry.version):
                manifest["last_known_good"] = entry.version
                self._save_manifest(name, manifest)
                self.counters["store_rollbacks"] += 1
                return entry.version
        raise ArtifactCorrupt(
            f"{name!r}: no verifying version older than {current}")

    def render(self) -> str:
        """Human-readable registry listing (the runbook's inspect view)."""
        lines = [f"artifact store at {self.root}"]
        names = self.names()
        if not names:
            lines.append("  (empty)")
        for name in names:
            good = self.last_known_good(name)
            lines.append(f"  {name}")
            for entry in self.versions(name):
                ok = self.verify(name, entry.version)
                tags = []
                if entry.version == good:
                    tags.append("last-known-good")
                tags.append("ok" if ok else "CORRUPT")
                lines.append(
                    f"    v{entry.version:06d}  {entry.length:>10d} B  "
                    f"{entry.schema:16s} {entry.sha256[:12]}  "
                    f"[{', '.join(tags)}]")
        return "\n".join(lines)
