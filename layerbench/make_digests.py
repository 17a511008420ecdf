"""Regenerate ``digests.json``: each workload's result digest at the default seed.

    PYTHONPATH=src python3 layerbench/make_digests.py

``fig6_mc`` and ``fault_sweep`` digest their own entry point's result;
``service_chiplet`` digests the single-process ``run_fault_campaign`` on
the service's config, so the service's merged result is checked against
the in-process driver.  Rerun only when a change is meant to alter
results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    digest,
    quiet_expected_warnings,
)


def main() -> int:
    quiet_expected_warnings()
    digests = {}
    for name, workload in WORKLOADS.items():
        if workload.reference is not None:
            sha = workload.reference(DEFAULT_SEED)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                inputs = workload.build(DEFAULT_SEED, Path(tmp))
                sha = digest(workload.run(inputs).canonical)
        digests[name] = {"seed": DEFAULT_SEED, "sha256": sha}
        print(f"{name}: {sha}")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
