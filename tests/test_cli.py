import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import cli, correlation, z4


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
def test_malformed_cache_entry_is_a_config_error(argv, entry, edit, tmp_path, capsys):
    cache = tmp_path / "cache"
    args = argv + ["--cache-dir", str(cache), "--out", str(tmp_path / "a.json")]
    assert run(args) == 0
    doc = json.loads((cache / entry).read_text())
    edit(doc)
    (cache / entry).write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def _rotate(member, r):
    return member[r:] + member[:r]


def _swap_2_3(members):
    members[2], members[3] = members[3], members[2]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.__setitem__(0, _rotate(m[0], 3)), "member 0 does not start at its least rotation"),
        (_swap_2_3, "not ordered by their least window code"),
        # rotating all of L by one shift keeps its alignment
        (lambda m: m.__setitem__(slice(1, None), [_rotate(x, 2) for x in m[1:]]),
         "member 1 does not start at its least rotation"),
    ],
    ids=["member-0-rotated", "members-2-3-swapped", "members-1-on-rotated"],
)
def test_non_canonical_cache_entry_is_rejected(edit, message, tmp_path, capsys):
    # each edit leaves valid, aligned classes that build_family_a never writes
    cache = tmp_path / "cache"
    out = tmp_path / "a.json"
    assert run(["family", "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 0
    cached = cache / "family-a" / "n4.json"
    doc = json.loads(cached.read_text())
    edit(doc["members"])
    cached.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("family", "qcss"):
        assert run([command, "--n", "4", "--cache-dir", str(cache), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err


WRONG_TYPES = ["4", 4.0, None, [1], {"n": 4}]

# one edit of a valid n = 4 family entry (17 members of period 15): drop a
# key the reader needs, give a value or one symbol a wrong type, flip one
# symbol, or rotate one member of subset L
CORRUPTIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["n", "polynomial", "members"])),
    st.tuples(st.just("type"), st.sampled_from(["n", "polynomial", "members", "symbol"]), st.sampled_from(WRONG_TYPES)),
    st.tuples(st.just("flip"), st.integers(0, 16), st.integers(0, 14), st.integers(1, 3)),
    st.tuples(st.just("rotate"), st.integers(1, 16), st.integers(1, 14)),
)


def corrupt(doc, edit):
    kind, *args = edit
    members = doc["members"]
    if kind == "drop":
        del doc[args[0]]
    elif kind == "type":
        key, value = args
        if key == "symbol":
            members[5][3] = value
        else:
            doc[key] = value
    elif kind == "flip":
        k, t, d = args
        members[k][t] = (members[k][t] + d) % 4
    else:
        k, r = args
        members[k] = members[k][r:] + members[k][:r]


@settings(max_examples=40, deadline=None)
@given(CORRUPTIONS)
def test_corrupt_family_cache_entry_exits_without_traceback(edit):
    doc = z4.family_to_json(z4.build_family_a(4))
    corrupt(doc, edit)
    with tempfile.TemporaryDirectory() as cache:
        entry = Path(cache) / "family-a" / "n4.json"
        entry.parent.mkdir()
        entry.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run(["qcss", "--n", "4", "--cache-dir", cache, "--out", str(Path(cache) / "r.json")])
    assert rc in (2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().startswith(("error: ", "construction falsified: "))


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
