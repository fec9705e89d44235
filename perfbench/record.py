#!/usr/bin/env python3
"""Record reference.json: the digest of every generated input and of every
op's correct output.

    python3 perfbench/record.py

Report digests come from running the report ops on the polyk in ``src``, so
record only from a commit whose reports are known good (the goldens in
tests/data/golden match).  Compare and reconstruct digests come from the
combinatorial model in workloads.py and need no polyk run.  Takes about a
minute, most of it cube5 and cross5.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    pk = workloads.import_polyk()
    inputs: dict[str, str] = {}
    outputs = workloads.model_digests()
    for workload in workloads.WORKLOADS:
        texts = workloads.input_texts(pk, workload)
        inputs.update({k: workloads.sha256(t) for k, t in texts.items()})
        if workload != "compare":
            for k, t in texts.items():
                outputs[k] = workloads.sha256(workloads.report_op(pk, k, t, "").run())
                print(f"recorded {k}", file=sys.stderr)
    ref = {"corpus_seed": workloads.CORPUS_SEED, "inputs": inputs, "outputs": outputs}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
