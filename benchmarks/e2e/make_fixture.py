"""Write the benchmark's fixture model from ``offline-build`` at seed 3.

Run from the repository root::

    python3 benchmarks/e2e/make_fixture.py

It runs ``offline-build`` once over the whole training suite (seed 3,
``workers=1``, one BLAS thread), saves the pruned model in the
``SSMDVFSModel.save`` format under ``fixtures/ssmdvfs-pruned/`` and
records each file's SHA-256 in ``fixtures/ssmdvfs-pruned.sha256``.
``fig4-grid``, ``fleet-trace`` and ``serve-replay`` load this frozen
model, so their inputs do not change when training code changes;
regenerate it only on purpose, in a change of its own.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 3


def main() -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    import workloads
    size = workloads.Size(build_kernels=18, train_epochs=120,
                          finetune_epochs=40)
    outcome = workloads.execute(workloads.prepare("offline-build", SEED,
                                                  size))
    directory = workloads.FIXTURE_DIR
    outcome["model"].save(directory)
    files = sorted(path for path in directory.iterdir() if path.is_file())
    workloads.FIXTURE_SUMS.write_text("".join(
        f"{workloads.sha256_file(path)}  {path.name}\n" for path in files))
    print(f"wrote {len(files)} files to {directory} "
          f"(build fingerprint {outcome['fingerprint'][:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
