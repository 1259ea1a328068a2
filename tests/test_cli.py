import json
import os

import pytest

from qcss import cli


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


def test_ads_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    args = ["ads", "--f", "7", "--cache-dir", str(cache)]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert (cache / "ads" / "f7-singer.json").exists()
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_corrupt_cache_is_rejected(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "a.json"
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 0
    cached = cache / "family-a" / "n4.json"
    doc = json.loads(cached.read_text())
    doc["members"][0][0] = 1  # breaks the binary-valued member invariant
    cached.write_text(json.dumps(doc))
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 2


def test_misaligned_cache_entry_is_rejected(tmp_path):
    # member 3 rotated by one symbol is still a full cyclic class, but no
    # longer correlates to -1 with the other members at shift zero
    cache = tmp_path / "cache"
    out = tmp_path / "a.json"
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 0
    cached = cache / "family-a" / "n4.json"
    doc = json.loads(cached.read_text())
    doc["members"][3] = doc["members"][3][1:] + doc["members"][3][:1]
    cached.write_text(json.dumps(doc))
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 2
    assert run(["qcss", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 2


def test_translated_ads_cache_entry_is_rejected(tmp_path):
    # a translate of the ADS has the same classification, so only the
    # comparison with the lift of W tells it apart
    cache = tmp_path / "cache"
    out = tmp_path / "a.json"
    assert run(["ads", "--f", "7", "--cache-dir", str(cache), "--out", str(out)]) == 0
    cached = cache / "ads" / "f7-singer.json"
    doc = json.loads(cached.read_text())
    doc["elements"] = sorted((e + 1) % doc["q"] for e in doc["elements"])
    cached.write_text(json.dumps(doc))
    assert run(["ads", "--f", "7", "--cache-dir", str(cache), "--out", str(out)]) == 2
    assert run(["qcss", "--n", "5", "--cache-dir", str(cache), "--out", str(out)]) == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--n", "4", "--jobs", "2"],
        ["qcss", "--n", "5", "--digits", "3"],
        ["tables", "--table", "2", "--force"],
    ],
)
def test_flags_outside_their_command_are_config_errors(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path / "x.out")]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "family" in capsys.readouterr().out
