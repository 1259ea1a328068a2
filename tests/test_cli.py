import hashlib
import json
import os

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


def test_qcss_rejects_small_degree(tmp_path):
    assert run(["qcss", "--n", "3", "--out", str(tmp_path / "x.json")]) == 2


def test_qcss_resource_cap(tmp_path):
    assert run(["qcss", "--n", "9", "--out", str(tmp_path / "x.json")]) == 4


# sha256 of `qcss qcss --n 5` output in both formats, taken before the set
# stopped storing its K*M*N phase tensor
QCSS_N5_SHA256 = {
    "json": "0a96cb9ec9f087ab3c2b329d2aa2c3c30b44d055eb259f16c0ac5b8d8610e59a",
    "csv": "a98a3b0d3fca2f4744d13004c0b31e656fac4efeb57ee01887381442a48e60f3",
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


def test_verify_flags_a_non_unimodular_root(tmp_path, monkeypatch, capsys):
    # every entry of the n = 5 set is roots_table(28)[phase]
    real = correlation.roots_table

    def skewed(order):
        table = real(order)
        if order == 28:
            table = table.copy()
            table[5] *= 1.0 + 1e-9
        return table

    monkeypatch.setattr(correlation, "roots_table", skewed)
    assert run(["qcss", "--n", "5", "--verify", "--out", str(tmp_path / "r.json")]) == 3
    assert "verify: non-unimodular entry found" in capsys.readouterr().err


def test_out_of_memory_is_a_resource_cap(tmp_path, monkeypatch, capsys):
    def exhausted(qset):
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
# taken before the sweep measured each degree's cells in one census pass
SWEEP_EMPIRICAL_SHA256 = "2d5505c275173b3d2c08ab2a6b86484b3f2d3013b8b45922b0b1119cf63a5159"


def test_empirical_sweep_keeps_its_bytes(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n-range", "4,5,6", "--x-range", "2,3,4", "--empirical", "--out", str(out)]
    assert run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_EMPIRICAL_SHA256


@pytest.mark.parametrize(
    "argv",
    [["qcss", "--n", "5", "--cap", "4"], ["sweep", "--n-range", "5", "--x-range", "2", "--empirical", "--cap", "4"]],
)
def test_both_commands_share_one_census_cap(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(argv + ["--out", str(out)]) == 4
    assert capsys.readouterr().err == "resource cap: correlation census capped at n <= 4 (raise --cap to exceed), got n = 5\n"
    assert not out.exists()


def test_cap_at_the_degree_runs(tmp_path):
    assert run(["qcss", "--n", "5", "--cap", "5", "--out", str(tmp_path / "x.json")]) == 0


def test_sweep_cap(tmp_path):
    code = run(["sweep", "--n-range", "9:9", "--x-range", "2:2", "--empirical", "--out", str(tmp_path / "x.json")])
    assert code == 4


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


# sha256 of `qcss family --n 5` output, written by json.dumps(doc, indent=2)
# before the array writer replaced it
FAMILY_N5_SHA256 = "e8f1a7a07a64024dc4ca8b94d23cfbc295c9e52d337801a1ec86ea550bd9f36e"


def test_family_cache_entry_and_export_keep_their_bytes(tmp_path):
    cache, out = tmp_path / "cache", tmp_path / "a.json"
    assert run(["family", "--n", "5", "--cache-dir", str(cache), "--out", str(out)]) == 0
    for path in (out, cache / "family-a" / "n5.json"):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FAMILY_N5_SHA256


def test_family_cache_miss_renders_the_text_once(tmp_path, monkeypatch):
    calls = []
    render = z4.family_json_text
    monkeypatch.setattr(z4, "family_json_text", lambda fam: calls.append(fam) or render(fam))
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


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("QCSS_CACHE_DIR", str(cache))
    assert run(["ads", "--f", "7", "--out", str(tmp_path / "a.json")]) == 0
    assert (cache / "ads" / "f7-singer.json").exists()


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
    ],
)
def test_flags_outside_their_command_are_config_errors(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path / "x.out")]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "family" in capsys.readouterr().out
