"""One benchmark iteration in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --t0 MONOTONIC
        [--trace] [--smoke] [--setup-only] [--spans FILE]

Set-up (imports, the workload's cache fill and an n = 4 warm-up) runs first;
``setup_s`` is measured from ``--t0``, the parent's monotonic clock just
before it started this process.  The timed interval runs from the first call
into qcss until the last one returns.  Output checks run after it.  The last
line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import COMPUTED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TOL = 1e-9

# Input sizes.  The smoke sizes keep n <= 5 and run in seconds.
SIZES = {
    False: {"family-n10": 10, "report-n7": 7, "sweep-lowm": ((4, 5, 6, 7), (3, 4, 5))},
    True: {"family-n10": 5, "report-n7": 5, "sweep-lowm": ((4, 5), (2, 3))},
}
WORKLOADS = tuple(SIZES[False])
DS_KINDS = ("singer", "legendre")


def import_qcss():
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import qcss
    from qcss import analysis, binpoly, cli, correlation, diffsets, z4  # noqa: F401

    where = Path(qcss.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"qcss imported from {where}, not from {SRC}")
    return qcss


def primitive_polys(n: int, binpoly) -> list[tuple[int, ...]]:
    """All primitive degree-n polynomials, the built-in table entry first."""
    table = binpoly.primitive_polynomial(n)
    found = []
    for mid in range(1 << (n - 1)):
        coeffs = (1,) + tuple((mid >> i) & 1 for i in range(n - 1)) + (1,)
        if coeffs != table and binpoly.is_primitive_binary(coeffs):
            found.append(coeffs)
    return [table] + found


class Workload:
    """Inputs, set-up, the timed body and the output checks of one workload."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path, qcss, pins: dict | None):
        self.name, self.seed, self.smoke, self.work = name, seed, smoke, work
        self.size = SIZES[smoke][name]
        self.q = qcss
        self.pins = pins["smoke" if smoke else "full"][name] if pins else None
        self.out = work / "out.json"
        self.stdout = ""
        self.rc = None
        self.cache_files: list[Path] = []
        self.alpha = None
        self.doc = self.subset = None

    # -- inputs --------------------------------------------------------------

    def argv(self, size=None) -> list[str]:
        size = self.size if size is None else size
        if self.name == "family-n10":
            poly = self.poly if size == self.size else self.q.binpoly.primitive_polynomial(size)
            return ["family", "--n", str(size), "--poly", ",".join(map(str, poly)),
                    "--out", str(self.out)]
        if self.name == "report-n7":
            return ["qcss", "--n", str(size), "--verify", "--ds", self.ds,
                    "--cache-dir", str(self.work / f"cache-n{size}"), "--out", str(self.out)]
        n_values, x_values = size
        return ["sweep", "--n-range", ",".join(map(str, n_values)),
                "--x-range", ",".join(map(str, x_values)), "--empirical", "--out", str(self.out)]

    def choose_inputs(self):
        """The seed picks among inputs of one size and one code path."""
        if self.name == "family-n10":
            polys = primitive_polys(self.size, self.q.binpoly)
            self.poly = polys[self.seed % len(polys)]
        elif self.name == "report-n7":
            self.ds = DS_KINDS[self.seed % len(DS_KINDS)]
        else:
            rng = random.Random(self.seed)
            n_values, x_values = (list(v) for v in self.size)
            rng.shuffle(n_values)
            rng.shuffle(x_values)
            self.size = (tuple(n_values), tuple(x_values))

    # -- set-up --------------------------------------------------------------

    def setup(self):
        if self.name == "report-n7":
            n = self.size
            f = (1 << (n - 2)) - 1
            cache = self.work / f"cache-n{n}"
            self._call(["ads", "--f", str(f), "--ds", self.ds, "--cache-dir", str(cache),
                        "--out", str(self.work / "setup.json")])
            if self.rc != 0:
                raise RuntimeError(f"cache fill ads exited {self.rc}")
            # `qcss family` would also run its alpha census (~6 s at n = 7), so
            # the family entry is written in the CLI's documented cache layout
            z4 = self.q.z4
            family = cache / "family-a" / f"n{n}.json"
            family.parent.mkdir(parents=True, exist_ok=True)
            family.write_text(json.dumps(z4.family_to_json(z4.build_family_a(n)), indent=2) + "\n")
            self.cache_files = [family, cache / "ads" / f"f{f}-{self.ds}.json"]
        warm = ((4,), (2,)) if self.name == "sweep-lowm" else 4
        self._call(self.argv(warm))
        if self.rc != 0:
            raise RuntimeError(f"warm-up exited {self.rc}")
        if self.name == "family-n10":
            fam = self.q.z4.family_from_json(json.loads(self.out.read_text()), verify=True)
            self.q.z4.subset_l(fam, verify=True)
        self.out.unlink()

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.rc = self.q.cli.main(argv)
        self.stdout = buf.getvalue()

    # -- timed body ----------------------------------------------------------

    def run(self):
        if self.name != "family-n10":
            self._call(self.argv())
            return
        # keep family_alpha_max's return value for the checks (one call)
        z4 = self.q.z4
        inner = z4.family_alpha_max

        def capture(*args, **kwargs):
            self.alpha = inner(*args, **kwargs)
            return self.alpha

        z4.family_alpha_max = capture
        try:
            self._call(self.argv())
        finally:
            z4.family_alpha_max = inner
        self.doc = json.loads(self.out.read_text())
        family = z4.family_from_json(self.doc, verify=True)
        self.subset = z4.subset_l(family, verify=True)

    # -- checks --------------------------------------------------------------

    def checks(self) -> list[tuple[str, bool]]:
        out = [("exit code 0", self.rc == 0)]
        if self.name == "family-n10":
            out += self._family_checks()
        elif self.name == "report-n7":
            out.append(("verify: ok", "verify: ok" in self.stdout.splitlines()))
            doc = self._read_out()
            out += compare(self.pins[self.ds], doc, "report")
        else:
            doc = self._read_out()
            out += compare(self.pins, doc, "sweep")
        return out

    def _read_out(self):
        try:
            return json.loads(self.out.read_text())
        except (OSError, ValueError):
            return None

    def _family_checks(self) -> list[tuple[str, bool]]:
        import numpy as np

        n = self.size
        K, N = (1 << n) + 1, (1 << n) - 1
        try:
            A = np.array(self.doc["members"], dtype=np.int64)
            f = np.array(self.doc["polynomial"], dtype=np.int64)
        except (TypeError, KeyError, ValueError):
            return [("family file read back", False)]
        L = self.subset
        well_formed = A.shape == (K, N) and A.min() >= 0 and A.max() <= 3
        out = [
            ("size and symbols", well_formed),
            ("alpha_max bound", self.alpha is not None and self.alpha <= 1 + 2 ** (n / 2) + TOL),
            # Family A's correlation distribution depends on n only, so one
            # pinned value holds for every primitive polynomial the seed picks
            ("alpha_max pinned", self.alpha is not None
             and abs(self.alpha - self.pins["alpha_max"]) <= TOL),
            ("alpha_max printed", self.alpha is not None
             and f"alpha_max={self.alpha:.6f}" in self.stdout),
            ("polynomial lifts P", f.shape == (n + 1,) and tuple(f % 2) == tuple(self.poly)),
            ("subset_l is members[1:]",
             L is not None and [list(m) for m in L] == self.doc["members"][1:]),
        ]
        if not well_formed or f.shape != (n + 1,):
            return out
        out.append(("member 0 binary-valued", not np.any(A[0] % 2)))
        # every member satisfies s(t+n) = -sum_j f_j s(t+j) mod 4
        acc = np.roll(A, -n, axis=1)
        for j in range(n):
            acc += f[j] * np.roll(A, -j, axis=1)
        out.append(("recurrence", not np.any(acc % 4)))
        # the members' n-windows are exactly the 4^n - 1 nonzero states, so
        # the members are complete representatives of distinct cyclic classes
        flat = np.sort(state_codes(A, n).ravel())
        out.append(("classes partition the states",
                    flat[0] > 0 and bool(np.all(np.diff(flat) > 0)) and flat.size == 4**n - 1))
        # every pair of L correlates to exactly -1 at shift zero (one Gram matrix)
        Z = np.array([1, 1j, -1, -1j])[A[1:]]
        G = Z @ Z.conj().T
        np.fill_diagonal(G, -1)
        out.append(("subset L zero-shift -1", bool(np.all(G == -1))))
        if self.seed == 0:
            out.append(("member-set digest", class_digest(A, n) == self.pins["digest"]))
        return out


def state_codes(A, n: int):
    """codes[k, t] encodes the n-symbol window of member k starting at t."""
    import numpy as np

    codes = np.zeros_like(A)
    for j in range(n):
        codes += np.roll(A, -j, axis=1) << (2 * j)
    return codes


def class_digest(A, n: int) -> str:
    """sha256 of the sorted cyclic classes, each rotated to start at its
    least state code, so the digest ignores member order and rotation."""
    import numpy as np

    start = np.argmin(state_codes(A, n), axis=1)
    rows = sorted(tuple(np.roll(a, -int(s)).tolist()) for a, s in zip(A, start))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def compare(pinned, got, path: str) -> list[tuple[str, bool]]:
    """One check per pinned leaf; floats match to TOL, other values exactly."""
    if isinstance(pinned, dict):
        if not isinstance(got, dict):
            return [(path, False)]
        out = []
        for key, value in pinned.items():
            out += compare(value, got.get(key), f"{path}.{key}")
        return out
    if isinstance(pinned, list):
        if not isinstance(got, list) or len(got) != len(pinned):
            return [(f"{path} length", False)]
        out = []
        for i, (p, g) in enumerate(zip(pinned, got)):
            out += compare(p, g, f"{path}[{i}]")
        return out
    if isinstance(pinned, float):
        ok = isinstance(got, (int, float)) and math.isfinite(got) and abs(got - pinned) <= TOL
        return [(path, ok)]
    return [(path, type(got) is type(pinned) and got == pinned)]


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcss").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the spans here (traced runs)")
    args = p.parse_args(argv)

    qcss = import_qcss()
    pins = json.loads((BENCH / "pins.json").read_text())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        wl = Workload(args.workload, args.seed, args.smoke, work, qcss, pins)
        wl.choose_inputs()
        wl.setup()
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(wl, args))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl: Workload, args) -> dict:
    tracer = None
    hits = sum(path.exists() for path in wl.cache_files)
    misses = len(wl.cache_files) - hits
    if args.trace:
        tracer = Tracer()
        tracer.install()
    error = None
    cpu0, w0 = cpu_seconds(), time.perf_counter()
    try:
        wl.run()
    except Exception:  # the program under test failed: count it, keep going
        error = traceback.format_exc()
    wall_s = time.perf_counter() - w0
    cpu_s = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = [("ran without exception", error is None)] + wl.checks()
    for name, ok in checks:
        if not ok:
            print(f"check failed [{wl.name} seed {wl.seed}]: {name}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(checks),
        "failed": sum(not ok for _, ok in checks),
        "argv": wl.argv(),
        "env": environment(wl.seed),
    }
    if tracer is not None:
        layers = tracer.summary(wall_s)
        layers["cli.out_bytes"] = wl.out.stat().st_size if wl.out.exists() else 0
        layers["cli.cache_hits"] = hits
        layers["cli.cache_misses"] = misses
        out["layers"] = layers
        if args.spans:
            Path(args.spans).write_text(json.dumps({
                "workload": wl.name, "seed": wl.seed, "argv": wl.argv(), "wall_s": wall_s,
                "computed_from_sizes": sorted(COMPUTED),
                "spans": tracer.dump(),
            }))
    return out


if __name__ == "__main__":
    sys.exit(main())
