"""Regenerate bench/pins.json, the reference outputs the checks compare to.

    python3 bench/make_pins.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run is checked against what this writes.  The full sizes take
about a minute (the n = 10 family dominates).
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from worker import BENCH, DS_KINDS, ROOT, WORKLOADS, Workload, class_digest, import_qcss


def outputs(name: str, seed: int, smoke: bool, qcss):
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pins-", dir=ROOT / ".bench_out")
    try:
        wl = Workload(name, seed, smoke, Path(work), qcss, None)
        wl.choose_inputs()
        wl.run()
        if wl.rc != 0:
            raise SystemExit(f"{name} seed {seed} exited {wl.rc}")
        if name == "family-n10":
            return {"digest": class_digest(np.array(wl.doc["members"]), wl.size),
                    "alpha_max": wl.alpha}
        return json.loads(wl.out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    qcss = import_qcss()
    pins = {}
    for smoke in (True, False):
        mode = pins["smoke" if smoke else "full"] = {}
        for name in WORKLOADS:
            if name == "report-n7":
                # seed i selects DS_KINDS[i]
                mode[name] = {ds: outputs(name, i, smoke, qcss) for i, ds in enumerate(DS_KINDS)}
            else:
                mode[name] = outputs(name, 0, smoke, qcss)
            print(f"pinned {'smoke' if smoke else 'full'} {name}", flush=True)
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
