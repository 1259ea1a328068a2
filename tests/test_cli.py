import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qcss import cli, correlation, diffsets, z4


def run(argv):
    return cli.main(argv)


def test_family_command(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert run(["family", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 4
    assert doc["l0_index"] == 0
    assert len(doc["members"]) == 17
    assert all(len(m) == 15 for m in doc["members"])
    assert all(v in (0, 1, 2, 3) for m in doc["members"] for v in m)
    summary = capsys.readouterr().out.strip()
    assert summary == "familyA n=4 size=17 alpha_max=5.000000"


def test_family_rejects_bad_degree(tmp_path):
    assert run(["family", "--n", "1", "--out", str(tmp_path / "x.json")]) == 2


def test_family_polynomial_override(tmp_path):
    out = tmp_path / "family.json"
    assert run(["family", "--n", "3", "--poly", "1,0,1,1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 9


def test_ads_command(tmp_path, capsys):
    out = tmp_path / "ads.json"
    assert run(["ads", "--f", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["q"] == 28
    assert doc["classification"] == {
        "kind": "AlmostDifferenceSet",
        "P": 28,
        "M": 13,
        "lambda": 5,
        "t": 6,
    }
    assert doc["pattern"]["delta"] == 0
    assert "classification=(28,13,5,6)" in capsys.readouterr().out


@pytest.mark.parametrize("cache", [False, True])
def test_ads_classifies_the_lifted_set_twice(cache, tmp_path, monkeypatch):
    # once in lift_ads_to_z4f, once for the export text shared by --out and the entry
    lifted = []
    classify = diffsets.classify_set
    monkeypatch.setattr(
        diffsets, "classify_set", lambda s: (s.modulus == 28 and lifted.append(s)) or classify(s)
    )
    argv = ["ads", "--f", "7", "--out", str(tmp_path / "a.json")]
    assert run(argv + (["--cache-dir", str(tmp_path / "cache")] if cache else [])) == 0
    assert len(lifted) == 2
    if cache:
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "cache" / "ads" / "f7-singer.json").read_bytes()


def test_ads_lift_mismatch_is_falsified_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def wrong(f):
        return diffsets.SetClassification(diffsets.ALMOST_DIFFERENCE_SET, 4 * f, 2 * f - 1, f - 1, f - 1)

    monkeypatch.setattr(diffsets, "expected_ads_classification", wrong)
    cache, out = tmp_path / "cache", tmp_path / "a.json"
    assert run(["ads", "--f", "7", "--cache-dir", str(cache), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("construction falsified: lifted union classifies as (")
    assert captured.out == ""
    assert not out.exists() and not cache.exists()


def test_ads_with_a_non_integral_difference_count_is_falsified(tmp_path, monkeypatch, capsys):
    # raising |F(1)|^2 by 0.3 q adds 0.3 cos(2 pi x / q) to d_D(x), most at x = 0
    real = diffsets._spectrum

    def skewed(subset):
        F = real(subset)
        F[1] *= math.sqrt(1 + 0.3 * subset.modulus / abs(F[1]) ** 2)
        return F

    monkeypatch.setattr(diffsets, "_spectrum", skewed)
    out = tmp_path / "a.json"
    assert run(["ads", "--f", "7", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("construction falsified: difference count d_D(0) = 3.3")
    assert not out.exists()


def test_ads_from_degree(tmp_path):
    out = tmp_path / "ads.json"
    assert run(["ads", "--n", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q"] == 28


def test_ads_legendre(tmp_path):
    out = tmp_path / "ads.json"
    assert run(["ads", "--f", "11", "--ds", "legendre", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["classification"]["P"], doc["classification"]["M"]) == (44, 21)


def test_ads_rejects_bad_modulus(tmp_path):
    assert run(["ads", "--f", "13", "--ds", "legendre", "--out", str(tmp_path / "x.json")]) == 2
    assert run(["ads", "--f", "9", "--ds", "singer", "--out", str(tmp_path / "y.json")]) == 2
    out = tmp_path / "z.json"
    assert run(["ads", "--f", "100003", "--ds", "legendre", "--out", str(out)]) == 2  # beyond 2^12 - 1
    assert not out.exists()


def test_qcss_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["qcss", "--n", "5", "--verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"deltaA", "deltaC", "deltaMax", "lowerBound", "rho", "perShiftMax"}
    assert doc["provenance"]["K"] == 32
    assert doc["provenance"]["dsKind"] == "singer"
    assert doc["deltaMax"] == pytest.approx(49.128734, abs=1e-6)
    text = capsys.readouterr().out
    assert "lower_bound=15.476521" in text
    assert "verify: ok" in text


def test_qcss_csv_profile(tmp_path):
    out = tmp_path / "profile.csv"
    assert run(["qcss", "--n", "5", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,class,maxMagnitude"
    assert len(lines) == 32


@pytest.mark.parametrize("n", [3, 13])
def test_qcss_rejects_small_degree(n, tmp_path):
    # n = 3 leaves no nondegenerate f; n = 13 is above z4.MAX_FAMILY_DEGREE
    out = tmp_path / "x.json"
    assert run(["qcss", "--n", str(n), "--out", str(out)]) == 2
    assert not out.exists()


def test_qcss_runs_above_the_old_census_cap(tmp_path):
    out = tmp_path / "x.json"
    assert run(["qcss", "--n", "9", "--verify", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["deltaMax"] == 809.6083174513274


# sha256 of `qcss qcss --n 5` output in both formats, with the exponential
# sums taken from one FFT of the shift set, E(0) exact, and each mirror pair
# of shifts computed once
QCSS_N5_SHA256 = {
    "json": "68b25bbe0ff3f39ddf47494eed841fa2f1e1bbd1dde2c8f9d3f868ba49f33383",
    "csv": "f195b90a2850508ecd629f6f075895a01ada631819ba7ab5812e0d4c485f5050",
}


@pytest.mark.parametrize("fmt", sorted(QCSS_N5_SHA256))
def test_qcss_export_keeps_its_bytes(fmt, tmp_path):
    out = tmp_path / f"report.{fmt}"
    assert run(["qcss", "--n", "5", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QCSS_N5_SHA256[fmt]


def test_census_and_verify_never_build_the_tensor(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the full phase tensor was built")

    monkeypatch.setattr(correlation.QcssSet, "phases", property(refuse))
    assert run(["qcss", "--n", "5", "--verify", "--out", str(tmp_path / "r.json")]) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_verify_flags_delta_max_below_the_lower_bound(tmp_path, monkeypatch, capsys):
    # the Welch-type floor is the one check --verify makes; a floor above
    # the measured delta_max (49.13 at n = 5) must fail it
    monkeypatch.setattr(correlation, "welch_lower_bound", lambda K, M, N: 1e6)
    assert run(["qcss", "--n", "5", "--verify", "--out", str(tmp_path / "r.json")]) == 3
    captured = capsys.readouterr()
    assert re.fullmatch(r"verify: delta_max \S+ below lower bound 1000000\.0\n", captured.err)
    assert "verify: ok" not in captured.out


def test_out_of_memory_is_a_resource_cap(tmp_path, monkeypatch, capsys):
    def exhausted(*qsets):
        raise MemoryError("Unable to allocate 4.27 GiB")

    monkeypatch.setattr(correlation, "tolerances", exhausted)
    assert run(["qcss", "--n", "4", "--out", str(tmp_path / "r.json")]) == 4
    assert capsys.readouterr().err.startswith("resource cap: out of memory")


def test_tables_command(tmp_path):
    out = tmp_path / "t2.csv"
    assert run(["tables", "--table", "2", "--x-max", "7", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "f_or_q,K,M,K_over_M,rho"
    rhos = [line.split(",")[-1] for line in lines[1:]]
    assert rhos == ["2.000", "1.633", "1.512", "1.461", "1.437", "1.425"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tables_refuses_negative_digits(fmt, tmp_path, capsys):
    out = tmp_path / f"t.{fmt}"
    assert run(["tables", "--table", "2", "--format", fmt, "--digits", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --digits must be non-negative, got -1\n"  # one line, no traceback
    assert not out.exists()


def test_tables_large_row(tmp_path):
    out = tmp_path / "t3.csv"
    assert run(["tables", "--table", "3", "--x-max", "40", "--out", str(out)]) == 0
    assert out.read_text().strip().split("\n")[-1].endswith(",1.000")


def test_tables_table1_first_row(tmp_path):
    out = tmp_path / "t1.csv"
    assert run(["tables", "--table", "1", "--x-max", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1].endswith(",1.000")
    assert lines[-1].endswith(",2.874")


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--n-range", "4:6", "--x-range", "2:3", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert all("boundRho" in r and "asymptoticRho" in r for r in records)


# sha256 of `qcss sweep --n-range 4,5,6 --x-range 2,3,4 --empirical` output,
# with the exponential sums taken from one FFT of the shift set, E(0) exact,
# and each mirror pair of shifts computed once
SWEEP_EMPIRICAL_SHA256 = "5d0fd8c87eef8ff49be24454dd073803398cd7c4343777b666c32114053ef699"


def test_empirical_sweep_keeps_its_bytes(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n-range", "4,5,6", "--x-range", "2,3,4", "--empirical", "--out", str(out)]
    assert run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_EMPIRICAL_SHA256


def test_sweep_fails_before_any_census_above_the_family_degree(tmp_path, monkeypatch, capsys):
    def refuse(*qsets):
        raise AssertionError("a census ran")

    monkeypatch.setattr(correlation, "tolerances", refuse)
    out = tmp_path / "x.json"
    assert run(["sweep", "--n-range", "4,13", "--x-range", "2", "--empirical", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: degree must be in [2, {z4.MAX_FAMILY_DEGREE}], got 13\n"
    assert not out.exists()


def test_sweep_cap_skips_degrees_without_cells(tmp_path):
    # n - x < 2 leaves no cell at n = 4 or 13, so no census would run there
    out = tmp_path / "x.json"
    assert run(["sweep", "--n-range", "4,13", "--x-range", "12", "--empirical", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == []


@pytest.mark.parametrize("flag, value, reason", [
    ("--n-range", "6:4", "is empty"),
    ("--x-range", "3:2", "is empty"),
    ("--x-range", "2,2", "repeats a value"),
    ("--n-range", "4,5,4", "repeats a value"),
])
def test_sweep_refuses_an_empty_or_repeated_range(flag, value, reason, tmp_path, capsys):
    # refused before any cell is built, so a repeated n never builds its family twice
    ranges = {"--n-range": "4:5", "--x-range": "2:3", flag: value}
    out = tmp_path / "x.json"
    argv = ["sweep", *(token for pair in ranges.items() for token in pair), "--empirical", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: range {value!r} {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["tables", "--table", "1", "--x-max", "1100"],  # math.sqrt(2**x - 1)
    ["sweep", "--n-range", "2100", "--x-range", "2"],  # 2 ** (n / 2)
], ids=["tables", "sweep"])
def test_a_value_beyond_float_range_is_a_configuration_error(argv, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_census_of_a_base_that_is_not_subset_l_is_falsified(tmp_path, monkeypatch, capsys):
    # a wrong lift, x^4 + x^3 + x^2 + x + 1, which divides x^5 - 1: the family
    # refuses to be made, so neither command writes its output
    monkeypatch.setattr(z4, "graeffe_lift", lambda h: (1, 1, 1, 1, 1))
    for command in ("qcss", "family"):
        out = tmp_path / f"{command}.json"
        assert run([command, "--n", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "construction falsified: row 0 mod 2 is not an m-sequence: window code 1 sits at shifts (4, 9)\n")
        assert not out.exists()


def test_unknown_command_is_config_error():
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--n", "4"],
        ["ads", "--f", "7"],
        ["qcss", "--n", "5"],
        ["tables", "--table", "2", "--x-max", "10"],
        ["sweep", "--n-range", "4:6", "--x-range", "2:3"],
    ],
)
def test_outputs_are_deterministic(argv, tmp_path):
    out1, out2 = tmp_path / "run1.out", tmp_path / "run2.out"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_family_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out1)]) == 0
    assert (cache / "family-a" / "n4.json").exists()
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of `qcss family --n 5` output, one member per line
FAMILY_N5_SHA256 = "1f2e1c9b0b6034e079bc6716b44d8bb83f295ba8b26fcb1c59c03d145b237615"


def test_family_cache_entry_and_export_keep_their_bytes(tmp_path, capsys):
    cache, out = tmp_path / "cache", tmp_path / "a.json"
    assert run(["family", "--n", "5", "--cache-dir", str(cache), "--out", str(out)]) == 0
    for path in (out, cache / "family-a" / "n5.json"):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILY_N5_SHA256
    capsys.readouterr()
    assert run(["family", "--n", "5"]) == 0  # to stdout, followed by the summary line
    text, summary = capsys.readouterr().out.rsplit("\n", 2)[:2]
    assert hashlib.sha256(f"{text}\n".encode()).hexdigest() == FAMILY_N5_SHA256
    assert summary.startswith("familyA n=5 ")


def test_qcss_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs 18-30 ms to import, and np.unique imports it lazily
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from qcss import cli\n"
        f"assert cli.main(['qcss', '--n', '4', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_family_n12_stays_within_its_memory_budget(tmp_path):
    # the README's budgets at n = 12.  `qcss family`: the export text, one
    # member per line, is 34 MB; one symbol per line it was 151 MB and the
    # process peaked at ~207 MB.  `qcss qcss --verify`: ~79 MB with the
    # census reading the family's own rows; 127-143 MB with a second
    # certificate of subset L and a copy of it, ~270 MB with the exponential
    # sums gathered from a q x M table of roots
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for argv, budget_mb in (["family", "--n", "12"], 150), (["qcss", "--n", "12", "--verify"], 100):
        script = (
            "import resource\n"
            "from qcss import cli\n"
            f"assert cli.main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        # a process started from this one counts this one's resident pages in
        # its ru_maxrss, so a small launcher in between starts the child
        launch = f"import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', {script!r}]).returncode)"
        proc = subprocess.run([sys.executable, "-c", launch], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.splitlines()[-1]) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < budget_mb, f"qcss {' '.join(argv)} peaked at {peak_mb:.0f} MB"


def test_family_cache_miss_renders_the_text_once(tmp_path, monkeypatch):
    calls = []
    render = z4.family_json_bytes
    monkeypatch.setattr(z4, "family_json_bytes", lambda fam: calls.append(fam) or render(fam))
    cache, out = tmp_path / "cache", tmp_path / "a.json"
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_bytes() == (cache / "family-a" / "n4.json").read_bytes()


def test_ads_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    args = ["ads", "--f", "7", "--cache-dir", str(cache)]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert (cache / "ads" / "f7-singer.json").exists()
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv,entry",
    [(["family", "--n", "4"], "family-a/n4.json"), (["ads", "--f", "7"], "ads/f7-singer.json")],
)
def test_failed_cache_write_leaves_no_entry(argv, entry, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    cache = tmp_path / "cache"
    assert run(argv + ["--cache-dir", str(cache), "--out", str(tmp_path / "a.json")]) == 2
    assert not (cache / entry).exists()
    assert not any((cache / entry).parent.iterdir())  # no temporary file left either


def test_qcss_with_cache_dir(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["qcss", "--n", "5", "--cache-dir", str(cache), "--out", str(out1)]) == 0
    assert (cache / "family-a" / "n5.json").exists()
    assert (cache / "ads" / "f7-singer.json").exists()
    assert run(["qcss", "--n", "5", "--cache-dir", str(cache), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


FAMILY_N4, ADS_F3 = "family-a/n4.json", "ads/f3-singer.json"


def _corrupt_docs(exports):
    """Entries a reader would have to reject: member 0 of the family rotated
    off its least rotation, and a translate of the ADS (same classification,
    another set)."""
    family, ads = json.loads(exports[FAMILY_N4]), json.loads(exports[ADS_F3])
    family["members"][0] = family["members"][0][3:] + family["members"][0][:3]
    ads["elements"] = sorted((e + 1) % ads["q"] for e in ads["elements"])
    return {FAMILY_N4: json.dumps(family).encode(), ADS_F3: json.dumps(ads).encode()}


GARBAGE = {
    "not-json": lambda exports: dict.fromkeys(exports, b"\xff\x00 not json"),
    "corrupt-docs": _corrupt_docs,
}


@pytest.mark.parametrize("garbage", sorted(GARBAGE))
def test_garbage_cache_entries_change_no_exit_code_or_output(garbage, tmp_path, capsys):
    # nothing reads the cache: each command prints and writes what a run
    # without it does, and overwrites its own entries with the export bytes
    exports = {}
    for name, argv in ((FAMILY_N4, ["family", "--n", "4"]), (ADS_F3, ["ads", "--f", "3"])):
        assert run(argv + ["--out", str(tmp_path / "export")]) == 0
        exports[name] = (tmp_path / "export").read_bytes()
    entries = GARBAGE[garbage](exports)
    cache = tmp_path / "cache"
    commands = [
        (["family", "--n", "4"], {FAMILY_N4}),
        (["ads", "--f", "3"], {ADS_F3}),
        (["ads", "--n", "4"], {ADS_F3}),
        (["qcss", "--n", "4", "--verify"], {FAMILY_N4, ADS_F3}),
        (["qcss", "--n", "4", "--format", "csv"], {FAMILY_N4, ADS_F3}),
    ]
    for argv, written in commands:
        for name, data in entries.items():
            (cache / name).parent.mkdir(parents=True, exist_ok=True)
            (cache / name).write_bytes(data)
        plain, cached = tmp_path / "plain.out", tmp_path / "cached.out"
        capsys.readouterr()
        assert run(argv + ["--out", str(plain)]) == 0
        want = capsys.readouterr()
        assert run(argv + ["--cache-dir", str(cache), "--out", str(cached)]) == 0
        assert capsys.readouterr() == want
        assert cached.read_bytes() == plain.read_bytes()
        for name, data in entries.items():
            assert (cache / name).read_bytes() == (exports[name] if name in written else data)


@pytest.mark.parametrize(
    "argv,entry,edit",
    [
        (["family", "--n", "4"], "family-a/n4.json", lambda d: d.pop("n")),
        (["family", "--n", "4"], "family-a/n4.json", lambda d: d["members"][2].pop()),
        (["family", "--n", "4"], "family-a/n4.json", lambda d: d["members"][2].__setitem__(0, 0.5)),
        (["ads", "--f", "7"], "ads/f7-singer.json", lambda d: d.update(classification=3)),
        (["ads", "--f", "7"], "ads/f7-singer.json", lambda d: d.pop("q")),
    ],
    ids=["family-no-n", "family-ragged", "family-float-symbol", "ads-int-classification", "ads-no-q"],
)
def test_malformed_cache_entry_is_overwritten(argv, entry, edit, tmp_path, capsys):
    # a well-formed JSON document that a reader would have to reject is not
    # read: the run exits 0 with the same output and rewrites the entry
    cache, out = tmp_path / "cache", tmp_path / "a.json"
    args = argv + ["--cache-dir", str(cache), "--out", str(out)]
    assert run(args) == 0
    want, export = capsys.readouterr(), out.read_bytes()
    assert (cache / entry).read_bytes() == export
    doc = json.loads((cache / entry).read_text())
    edit(doc)
    (cache / entry).write_text(json.dumps(doc))
    out.unlink()
    assert run(args) == 0
    assert capsys.readouterr() == want
    assert out.read_bytes() == export
    assert (cache / entry).read_bytes() == export


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--n", "4", "--jobs", "2"],
        ["qcss", "--n", "5", "--digits", "3"],
        ["tables", "--table", "2", "--force"],
        ["family", "--n", "4", "--format", "json"],
        ["ads", "--f", "7", "--format", "json"],
        ["tables", "--table", "2", "--cache-dir", "C"],
        ["sweep", "--n-range", "4:5", "--x-range", "2:3", "--cache-dir", "C"],
        ["qcss", "--n", "5", "--force"],
        ["qcss", "--n", "5", "--cap", "9"],
        ["sweep", "--n-range", "4:5", "--x-range", "2:3", "--cap", "9"],
    ],
)
def test_flags_outside_their_command_are_config_errors(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path / "x.out")]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "family" in capsys.readouterr().out


def test_readme_flags_table_matches_the_parser():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | flags |") + 2  # past the header and its rule
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, flags = line.strip("|").split("|")
        documented[command.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)`", flags))
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in commands.items()
    }
    assert documented == parsed


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    added = []
    inner = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *a, **k: added.append(a) or inner(self, *a, **k))
    cli.build_parser.cache_clear()
    argv = ["tables", "--table", "1", "--x-max", "2", "--out", str(tmp_path / "t.csv")]
    assert run(argv) == 0
    first = len(added)
    assert first > 0
    assert run(argv) == 0
    assert len(added) == first


@pytest.mark.parametrize("before, code", [
    (["qcss"], 2),  # --n missing
    (["qcss", "--n", "4", "--digits", "2"], 2),  # a flag of another command
    (["--help"], 0),
    (["qcss", "--help"], 0),
    (["qcss", "--n", "4", "--format", "csv"], 0),
    (["qcss", "--n", "4", "--verify"], 0),
])
def test_a_call_leaves_the_next_call_as_a_first_call(before, code, tmp_path, capsys):
    def valid(out):
        status = run(["qcss", "--n", "4", "--out", str(out)])
        return status, out.read_bytes(), capsys.readouterr().out

    cli.build_parser.cache_clear()
    first = valid(tmp_path / "first.json")
    cli.build_parser.cache_clear()
    assert run(before) == code
    capsys.readouterr()
    assert valid(tmp_path / "after.json") == first
