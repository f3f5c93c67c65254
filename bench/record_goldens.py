"""Record the CLI outputs that bench/goldens.json pins.

    python3 bench/record_goldens.py

Run from the repository root on the code whose outputs are the reference.
It runs every fixed-flag numcli operation of the benchmark once and keeps,
for each, the sha256 of its artifact plus a sample of its rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import cli
import harness
import ops_small
from run import GOLDENS, OUT_DIR, ROOT


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="goldens-", dir=OUT_DIR)
    try:
        dk = harness.import_desknum(os.path.join(ROOT, "src"))
        ctx = harness.Context(dk, 0, tmp, {})
        goldens = {}
        for op in ops_small.cli_ops(ctx):
            res = op.run(harness.Tracer())
            if res["rc"] != 0:
                raise SystemExit(f"{op.name} exited with {res['rc']}: {res['stderr']}")
            if len(res["files"]) == 1:
                goldens[op.name] = cli.golden_sample(res["files"][0])
            else:
                goldens[op.name] = {"sha256": hashlib.sha256(b"".join(res["files"])).hexdigest()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
