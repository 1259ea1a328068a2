"""Command-line entry point: family / ads / qcss / tables / sweep.

Every command is deterministic (identical inputs give byte-identical output
files) and reports through exit codes:

    0  success
    2  configuration error (bad arguments, unsupported sizes, values
       beyond float range)
    3  an expected construction property was falsified on concrete data
    4  out of memory
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import analysis, correlation, diffsets, z4
from .errors import ConstructionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FALSIFIED = 3
EXIT_MEMORY = 4


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _dump_json(doc, out: str | None) -> None:
    _dump_text(_json_text(doc), out)


def _write(path: Path, text: str | memoryview) -> None:
    """Write a str, or ASCII bytes as they are (no decode and re-encode)."""
    path.write_bytes(text.encode() if isinstance(text, str) else text)


def _dump_text(text: str | memoryview, out: str | None) -> None:
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text if isinstance(text, str) else str(text, "ascii"))


def _write_cache(path: Path, text: str | memoryview) -> None:
    """Write a cache entry atomically: a temporary file in the same directory,
    then os.replace, so readers never see a partial entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write(tmp, text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cache_dir(args) -> Path | None:
    return Path(args.cache_dir) if args.cache_dir else None


def _build_family(n: int, args) -> tuple[z4.FamilyA, memoryview | None]:
    """The family, and its JSON bytes when they were rendered for the cache entry."""
    poly = getattr(args, "poly", None)  # custom polynomials are not cached
    family = z4.build_family_a(n, coeffs=_parse_poly(poly) if poly else None)
    cache = _cache_dir(args)
    text = None
    if cache and poly is None:
        text = z4.family_json_bytes(family)
        _write_cache(cache / "family-a" / f"n{n}.json", text)
    return family, text


def _build_ads(f: int, ds_kind: str, args) -> tuple[diffsets.CyclicSubset, str | None]:
    """The lifted set, and its export text when it was rendered for the cache entry."""
    if ds_kind == "singer":
        k = (f + 1).bit_length() - 1
        if (1 << k) - 1 != f:
            raise ValueError(f"singer base needs f = 2^k - 1, got {f}")
        W = diffsets.singer_ds(k)
    else:  # argparse's choices leave only "legendre"
        W = diffsets.legendre_ds(f)
    U = diffsets.lift_ads_to_z4f(W)
    cache = _cache_dir(args)
    text = None
    if cache:
        text = _ads_json_text(U)
        _write_cache(cache / "ads" / f"f{f}-{ds_kind}.json", text)
    return U, text


def _ads_json_text(U: diffsets.CyclicSubset) -> str:
    return _json_text(diffsets.ads_to_json(U, diffsets.CANONICAL_PATTERN))


def _parse_poly(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse polynomial coefficients {text!r}") from exc


def cmd_family(args) -> int:
    family, text = _build_family(args.n, args)
    alpha = z4.family_alpha_max(family)
    _dump_text(text or z4.family_json_bytes(family), args.out)
    print(f"familyA n={family.n} size={family.size} alpha_max={alpha:.6f}")
    return EXIT_OK


def cmd_ads(args) -> int:
    if args.f is not None:
        f = args.f
    elif args.n is not None:
        f = analysis.construction_params(args.n).f
    else:
        raise ValueError("ads needs --f or --n")
    U, text = _build_ads(f, args.ds, args)
    _dump_text(text or _ads_json_text(U), args.out)
    c = diffsets.expected_ads_classification(f)  # what lift_ads_to_z4f certified
    print(f"ads f={f} q={U.modulus} classification=({c.p},{c.m},{c.lam},{c.t}) kind={c.kind}")
    return EXIT_OK


def cmd_qcss(args) -> int:
    n = args.n
    params = analysis.construction_params(n)
    family, _ = _build_family(n, args)
    ads, _ = _build_ads(params.f, args.ds, args)
    qset = correlation.build_qcss(
        family,
        ads,
        provenance={
            "n": n,
            "f": params.f,
            "dsKind": args.ds,
            "polynomial": list(family.polynomial),
            "pattern": diffsets.pattern_to_json(diffsets.CANONICAL_PATTERN, params.f),
        },
    )
    [report] = correlation.tolerances(qset)
    if args.format == "csv":
        _dump_text(correlation.report_per_shift_csv(report), args.out)
    else:
        _dump_json(correlation.report_to_json(report), args.out)
    print(
        f"qcss n={n} K={report.num_sets} M={report.num_rows} N={report.period} q={report.q} "
        f"delta_max={report.delta_max:.6f} lower_bound={report.lower_bound:.6f} "
        f"rho={report.rho:.6f} claimed_delta_max={params.claimed_delta_max:.6f}"
    )
    if args.verify:
        # the shape and the shift-class maxima hold by construction; the
        # Welch-type floor is the one property the census can falsify
        if report.delta_max < report.lower_bound - correlation.MAGNITUDE_TOL:
            print(f"verify: delta_max {report.delta_max} below lower bound {report.lower_bound}",
                  file=sys.stderr)
            return EXIT_FALSIFIED
        print("verify: ok")
    return EXIT_OK


def cmd_tables(args) -> int:
    if args.digits < 0:
        raise ValueError(f"--digits must be non-negative, got {args.digits}")
    rows = analysis.table_rows(args.table, args.x_max)
    if args.format == "json":
        doc = [
            {
                "tableId": r.table_id,
                "x": r.x,
                "f_or_q": r.f_or_q,
                "K": r.K,
                "M": r.M,
                "K_over_M": r.k_over_m_guarantee,
                "rho": round(r.rho, args.digits),
            }
            for r in rows
        ]
        _dump_json(doc, args.out)
    else:
        _dump_text(analysis.tables_to_csv(rows, digits=args.digits), args.out)
    print(f"tables table={args.table} rows={len(rows)}")
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    """The integers of "lo:hi", both included, or of "a,b,..."; ValueError
    if there are none or one repeats."""
    lo, colon, hi = text.partition(":")
    values = list(range(int(lo), int(hi) + 1)) if colon else [int(tok) for tok in text.split(",")]
    if not values or len(set(values)) < len(values):
        raise ValueError(f"range {text!r} {'repeats a value' if values else 'is empty'}")
    return values


SWEEP_COLUMNS = (
    "n", "x", "tableId", "f", "q", "K", "M", "N",
    "boundRho", "asymptoticRho", "measuredDeltaMax", "measuredRho", "lowerBound",
)


def cmd_sweep(args) -> int:
    records = analysis.sweep(
        _parse_range(args.n_range),
        _parse_range(args.x_range),
        empirical=args.empirical,
    )
    if args.format == "csv":
        columns = [c for c in SWEEP_COLUMNS if any(c in r for r in records)]
        lines = [",".join(columns)]
        for r in records:
            lines.append(",".join(repr(r[c]) if c in r else "" for c in columns))
        _dump_text("\n".join(lines) + "\n", args.out)
    else:
        _dump_json(records, args.out)
    print(f"sweep cells={len(records)} empirical={args.empirical}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process and shared by every ``main``
    call: treat it as read-only.  ``parse_args`` returns a fresh Namespace on
    each call, so no state passes from one call to the next.  A ``qcss``
    process calls ``main`` once, so only a process that calls it again (a
    library caller, the tests, the benchmark) saves the rebuild."""
    parser = argparse.ArgumentParser(
        prog="qcss",
        description="Construct and verify quasi-complementary sequence sets "
        "from quaternary families and almost difference sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def outputs(p, fmt=None, cache=False):
        p.add_argument("--out", help="output file (stdout when omitted)")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default=fmt)
        if cache:
            p.add_argument(
                "--cache-dir",
                help="directory the family and ADS entries are written to, never read from",
            )

    p_family = sub.add_parser("family", help="build the quaternary family for degree n")
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--poly", help="binary polynomial coefficients, low degree first, comma-separated")
    outputs(p_family, cache=True)
    p_family.set_defaults(func=cmd_family)

    p_ads = sub.add_parser("ads", help="build and classify the lifted almost difference set")
    p_ads.add_argument("--f", type=int, help="base modulus (3 mod 4)")
    p_ads.add_argument("--n", type=int, help="derive f = 2^(n-2) - 1 from a degree")
    p_ads.add_argument("--ds", choices=["singer", "legendre"], default="singer")
    outputs(p_ads, cache=True)
    p_ads.set_defaults(func=cmd_ads)

    p_qcss = sub.add_parser("qcss", help="assemble the set at degree n and sweep correlations")
    p_qcss.add_argument("--n", type=int, required=True)
    p_qcss.add_argument("--ds", choices=["singer", "legendre"], default="singer")
    p_qcss.add_argument("--verify", action="store_true",
                        help="fail (exit 3) if delta_max is below the Welch-type floor")
    outputs(p_qcss, fmt="json", cache=True)
    p_qcss.set_defaults(func=cmd_qcss)

    p_tables = sub.add_parser("tables", help="emit one asymptotic tightness table")
    p_tables.add_argument("--table", type=int, choices=[1, 2, 3], required=True)
    p_tables.add_argument("--x-max", type=int, default=7)
    p_tables.add_argument("--digits", type=int, default=3, help="decimals in table output")
    outputs(p_tables, fmt="csv")
    p_tables.set_defaults(func=cmd_tables)

    p_sweep = sub.add_parser("sweep", help="compare bound-based and asymptotic tightness on a grid")
    p_sweep.add_argument("--n-range", required=True, help="e.g. 4:8 or 5,6")
    p_sweep.add_argument("--x-range", required=True, help="e.g. 2:4")
    p_sweep.add_argument("--empirical", action="store_true", help="also build and measure each cell")
    outputs(p_sweep, fmt="json")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 on bad usage; 2 is the config code
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"resource cap: out of memory ({exc})", file=sys.stderr)
        return EXIT_MEMORY
    except ConstructionError as exc:
        print(f"construction falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    raise SystemExit(main())
