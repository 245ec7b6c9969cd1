"""Record bench/reference.json: every op's outputs for the default seed.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
then fails any later commit whose outputs for that seed differ.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

run.import_msbench()
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    run.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(run.DEFAULT_SEED, Path(tmp) / name, None)
            outputs = [workload.check(i, entry, workload.run(entry))
                       for i, entry in enumerate(workload.deck)]
            entry = {"seed": run.DEFAULT_SEED, "deck": workload.deck}
            if name == "cli_quickstart":
                entry["stability"] = outputs[0]["stability"]
                outputs = [{k: v for k, v in o.items() if k != "stability"} for o in outputs]
            if name == "noise_fit":  # fitted p_dep is informative, not compared
                outputs = [{k: o[k] for k in ("target", "p_dep")} for o in outputs]
            entry["outputs"] = outputs
            reference[name] = entry
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
