import hashlib
import json
import os
from datetime import timedelta

import hypothesis
import hypothesis.strategies as strat
import pytest

from braidshadow.cli import (
    dump_doc,
    load_subgroup,
    run_command,
    save_doc,
    subgroup_doc,
)
from braidshadow.errors import BraidRelationError, KernelNotInPb3Error
from braidshadow.shadows import enumerate_shadows
from braidshadow.subgroups import nfi_equal
from braidshadow.words import word_to_text


@pytest.fixture
def files(tmp_path, pb3, catalog4):
    paths = {}
    for N in [pb3, *catalog4]:
        path = tmp_path / f"{N.label}.json"
        save_doc(str(path), subgroup_doc(N))
        paths[N.label] = str(path)
    return paths


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_doc(doc) if isinstance(doc, dict) else doc, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# subgroup file validation

def test_round_trip_through_files(files, pb3, catalog4):
    for N in [pb3, *catalog4]:
        loaded = load_subgroup(files[N.label])
        assert loaded.label == N.label
        assert loaded.degree == N.degree
        assert nfi_equal(loaded, N)
        assert dump_doc(subgroup_doc(loaded)) == dump_doc(subgroup_doc(N))


def test_load_rejects_bad_documents(tmp_path, pb3):
    good = subgroup_doc(pb3)

    def variant(**changes):
        doc = dict(good)
        for key, value in changes.items():
            if value is None:
                doc.pop(key, None)
            else:
                doc[key] = value
        return doc

    cases = {
        "not-object.json": "[1, 2, 3]\n",
        "schema.json": variant(schema=2),
        "missing.json": variant(sigma2=None),
        "unknown.json": variant(extra=1),
        "label.json": variant(label=7),
        "short.json": variant(sigma1=[1, 0]),
        "floats.json": variant(sigma1=[1.0, 0.0, 2.0]),
        "bools.json": variant(sigma1=[True, False, 2]),
        "repeat.json": variant(sigma1=[1, 1, 2]),
        "schema-true.json": variant(schema=True),
        "schema-float.json": variant(schema=1.0),
        "repeated-key.json": '{"label": "twice", ' + dump_doc(good)[1:],
    }
    for name, doc in cases.items():
        path = write_json(tmp_path, name, doc)
        with pytest.raises(ValueError):
            load_subgroup(path)


def test_load_rejects_bad_generator_images(tmp_path, pb3):
    braid = dict(subgroup_doc(pb3), sigma2=[1, 2, 0])
    with pytest.raises(BraidRelationError):
        load_subgroup(write_json(tmp_path, "braid.json", braid))
    leaky = {
        "schema": 1, "label": "leaky", "degree": 2,
        "sigma1": [1, 0], "sigma2": [1, 0],
    }
    with pytest.raises(KernelNotInPb3Error):
        load_subgroup(write_json(tmp_path, "leaky.json", leaky))


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_zero_on_success(files, capsys):
    assert run_command(["validate", files["pb3"]]) == 0
    assert "valid: pb3 (degree 3)" in capsys.readouterr().out


def test_exit_code_one_on_domain_errors(files, tmp_path, capsys):
    leaky = write_json(tmp_path, "leaky.json", {
        "schema": 1, "label": "leaky", "degree": 2,
        "sigma1": [1, 0], "sigma2": [1, 0],
    })
    assert run_command(["validate", leaky]) == 1
    assert "error:" in capsys.readouterr().err
    # a pair that is no shadow is a domain error too
    code = run_command(
        ["reduce", files["cat02"], files["pb3"], "-m", "1",
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 1
    assert "not a shadow" in capsys.readouterr().err


def test_exit_code_two_on_file_problems(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert run_command(["info", str(garbled)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "line" in err  # the parse location is passed through
    assert run_command(["info", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_deeply_nested_subgroup_file_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert run_command(["info", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_two_on_usage_errors(capsys):
    assert run_command([]) == 2
    assert run_command(["no-such-command"]) == 2
    assert run_command(["reduce"]) == 2  # missing required arguments
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command output

def test_info_reports_quotient_data(files, capsys):
    assert run_command(["info", files["cat04"]]) == 0
    out = capsys.readouterr().out
    assert "N_ord = 3" in out
    assert "index_pb3 = 12" in out
    assert "|B3/N| = 72" in out


def test_shadows_json_matches_library(files, tmp_path, catalog4, capsys):
    out = tmp_path / "shadows.json"
    code = run_command(
        ["shadows", files["cat04"], "--json", str(out),
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    expected = enumerate_shadows(catalog4[4])
    assert doc["target"] == "cat04"
    assert doc["n_ord"] == 3
    assert [(sd["m"], sd["f"]) for sd in doc["shadows"]] == [
        (s.m, word_to_text(s.f_word)) for s in expected
    ]
    # settled shadows report their own target as source
    assert {sd["source_label"] for sd in doc["shadows"]} == {"cat04"}


def test_component_and_diamond(files, tmp_path, capsys):
    cache = str(tmp_path / "c")
    assert run_command(["component", files["cat02"], "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "1 objects" in out
    assert "isolated=True" in out
    assert run_command(["diamond", files["cat02"], "--cache-dir", cache]) == 0
    assert "diamond of cat02: cat02" in capsys.readouterr().out


def test_component_document_of_two_objects(tmp_path, cat09, capsys):
    path = str(tmp_path / "cat09.json")
    save_doc(path, subgroup_doc(cat09))
    out = str(tmp_path / "component.json")
    code = run_command(
        ["component", path, "--json", out, "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(open(out, encoding="utf-8").read())
    assert not doc["isolated"]
    assert len(doc["objects"]) == 2
    assert sorted(doc["morphisms"]) == ["0->0", "0->1", "1->0", "1->1"]
    assert all(len(v) == 6 for v in doc["morphisms"].values())
    assert doc["diamond"]["degree"] == 20


def test_reduce_and_survive(files, tmp_path, capsys):
    cache = str(tmp_path / "c")
    code = run_command(
        ["reduce", files["cat04"], files["cat02"], "-m", "2", "--cache-dir", cache]
    )
    assert code == 0
    assert "reduced to cat02: m=2 f=1" in capsys.readouterr().out
    code = run_command(
        ["survive", files["cat02"], files["cat04"], "-m", "2", "--cache-dir", cache]
    )
    assert code == 0
    assert "survives into cat04" in capsys.readouterr().out
    code = run_command(
        ["survive", files["cat02"], files["cat01"], "-m", "2", "--cache-dir", cache]
    )
    assert code == 1  # cat01 is not contained in cat02
    assert "error:" in capsys.readouterr().err


def test_genuine_with_a_real_shadow(files, tmp_path, capsys):
    code = run_command(
        ["genuine", files["cat02"], "-m", "2", "--max-degree", "3",
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    assert "verdict: not_fake_to_depth" in capsys.readouterr().out


def test_genuine_accepts_an_f_word(files, tmp_path, capsys):
    code = run_command(
        ["genuine", files["cat04"], "-m", "2", "-f", "xyXY", "--max-degree", "3",
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    assert "verdict: not_fake_to_depth" in capsys.readouterr().out


def test_catalog_save_dir_round_trips(files, tmp_path, catalog4, capsys):
    save_dir = tmp_path / "saved"
    code = run_command(
        ["catalog", "--max-degree", "4", "--save-dir", str(save_dir),
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "5 kernels" in out
    assert sorted(os.listdir(save_dir)) == [f"cat0{i}.json" for i in range(5)]
    for i, N in enumerate(catalog4):
        loaded = load_subgroup(str(save_dir / f"cat0{i}.json"))
        assert nfi_equal(loaded, N)


def test_catalog_at_the_degree_limit(tmp_path, capsys):
    code = run_command(
        ["catalog", "--max-degree", "6", "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "catalog (degree <= 6): 7 kernels"


def test_mainline(files, tmp_path, capsys):
    code = run_command(
        ["mainline", files["pb3"], files["cat02"], files["cat04"],
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "3 objects" in out
    assert "limit size 6" in out
    assert "cat04: |GT| = 6" in out


def test_mainline_level_over_the_cap_is_one_line(files, tmp_path, capsys):
    code = run_command(
        ["mainline", files["cat00"], files["cat02"], files["cat04"],
         "--max-candidates", "11", "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: candidate cap exceeded: 12 candidates > cap 11"]


def test_mainline_twin_reports_its_own_label(files, tmp_path, catalog4, capsys):
    twin = write_json(
        tmp_path, "twin02.json", dict(subgroup_doc(catalog4[2]), label="twin02")
    )
    out = tmp_path / "mainline.json"
    code = run_command(
        ["mainline", files["cat02"], twin, "--json", str(out),
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    labels = [obj["label"] for obj in doc["objects"]]
    assert labels == ["cat02", "twin02"]
    for label, group in zip(labels, doc["groups"]):
        assert {sd["source_label"] for sd in group} == {label}
    capsys.readouterr()


# ---------------------------------------------------------------------------
# outside input is checked at the boundary

@pytest.mark.parametrize(
    "flags, degree, images",
    [
        (["--threads", "0"], None, None),
        (["--max-candidates", "-5"], None, None),
        (["--max-group-size", "0"], None, None),
        ([], True, [0]),
        ([], 0, []),
    ],
    ids=["threads-0", "max-candidates-negative", "max-group-size-0",
         "degree-true", "degree-0"],
)
def test_bad_input_exits_two_with_one_line(
    files, tmp_path, catalog4, capsys, flags, degree, images
):
    path = files["cat02"]
    if degree is not None:
        doc = dict(subgroup_doc(catalog4[2]), degree=degree)
        doc["sigma1"] = doc["sigma2"] = images
        path = write_json(tmp_path, "bad.json", doc)
    code = run_command(["shadows", path, *flags, "--cache-dir", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, target, other", [
    ("reduce", "cat04", "cat02"),  # other is coarser than the target
    ("survive", "cat02", "cat04"),  # other is finer than the target
])
def test_huge_m_ends_without_traceback(files, tmp_path, capsys, command, target, other):
    code = run_command(
        [command, files[target], files[other], "-m", "99999999999999999999",
         "--cache-dir", str(tmp_path / "c")]
    )
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diamond", "cat04"],
    ["survive", "cat04", "cat04", "-m", "0"],
    ["genuine", "cat04", "-m", "0"],
    ["mainline", "cat04"],
], ids=["diamond", "survive", "genuine", "mainline"])
def test_candidate_cap_reaches_every_enumeration(files, tmp_path, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code = run_command(
        [*argv, "--max-candidates", "1", "--cache-dir", str(tmp_path / "c")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: candidate cap exceeded") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# cache behavior

def test_cache_makes_output_reproducible(files, tmp_path, capsys):
    cache = str(tmp_path / "c")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(
        ["shadows", files["cat02"], "--json", str(out1), "--cache-dir", cache]
    ) == 0
    entries = os.listdir(cache)
    assert len(entries) == 1 and entries[0].endswith(".json")
    assert run_command(
        ["shadows", files["cat02"], "--json", str(out2), "--cache-dir", cache]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert os.listdir(cache) == entries
    capsys.readouterr()


@pytest.mark.parametrize(
    "junk",
    [
        "junk",
        "[]",
        "5",
        '{"payload": 5}',
        '{"payload": {}}',
        "[" * 200_000 + "]" * 200_000,
        '{"key": KEY, "payload": {"x": 1}}',
    ],
    ids=[
        "junk",
        "list",
        "number",
        "payload-number",
        "payload-without-key",
        "deep",
        "right-key-wrong-payload",
    ],
)
def test_cache_survives_corruption(files, tmp_path, capsys, junk):
    # KEY stands for the entry's own key, as a JSON string
    cache = tmp_path / "c"
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_command(["shadows", files["cat04"], "--json", str(out1), "--cache-dir", str(cache)])
    fresh = {entry.name: entry.read_bytes() for entry in cache.iterdir()}
    for entry in cache.iterdir():
        entry.write_text(junk.replace("KEY", json.dumps(entry.stem)), encoding="utf-8")
    assert run_command(
        ["shadows", files["cat04"], "--json", str(out2), "--cache-dir", str(cache)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert {entry.name: entry.read_bytes() for entry in cache.iterdir()} == fresh
    capsys.readouterr()


def test_cache_key_holds_the_caps(files, tmp_path, capsys):
    # an entry written by an uncapped run must not answer a capped one
    cache = str(tmp_path / "c")
    assert run_command(["shadows", files["cat04"], "--cache-dir", cache]) == 0
    capsys.readouterr()
    code = run_command(
        ["shadows", files["cat04"], "--cache-dir", cache, "--max-candidates", "1"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: candidate cap exceeded")
    assert run_command(
        ["shadows", files["cat04"], "--cache-dir", cache, "--max-group-size", "50000"]
    ) == 0
    assert len(os.listdir(cache)) == 2
    capsys.readouterr()


def test_cache_dir_from_environment(files, tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "envcache"
    monkeypatch.setenv("BRAIDSHADOW_CACHE", str(env_dir))
    assert run_command(["shadows", files["cat02"]]) == 0
    assert env_dir.is_dir() and len(list(env_dir.iterdir())) == 1
    capsys.readouterr()


def test_cache_dir_defaults_to_working_directory(files, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BRAIDSHADOW_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_command(["shadows", files["cat02"]]) == 0
    assert (tmp_path / ".braidshadow-cache").is_dir()
    capsys.readouterr()


def test_thread_count_never_changes_bytes(files, tmp_path, capsys):
    out1, out2 = tmp_path / "t1.json", tmp_path / "t3.json"
    run_command(
        ["catalog", "--max-degree", "3", "--threads", "1",
         "--json", str(out1), "--cache-dir", str(tmp_path / "c1")]
    )
    run_command(
        ["catalog", "--max-degree", "3", "--threads", "3",
         "--json", str(out2), "--cache-dir", str(tmp_path / "c2")]
    )
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzed command lines

_FILE_COUNT = {"catalog": (0, 0), "reduce": (2, 2), "survive": (2, 2), "mainline": (1, 3)}
_CAPS = strat.sampled_from(["0", "1", "5", str(10**9)])


@strat.composite
def _argv(draw):
    command = draw(strat.sampled_from([
        "validate", "info", "shadows", "component", "diamond",
        "reduce", "survive", "genuine", "catalog", "mainline",
    ]))
    low, high = _FILE_COUNT.get(command, (1, 1))
    names = ["pb3", "cat00", "cat01", "cat02", "cat03", "cat04", "outside"]
    argv = [command, *draw(strat.lists(strat.sampled_from(names), min_size=low, max_size=high))]
    if command in ("reduce", "survive", "genuine"):
        m = draw(strat.one_of(strat.integers(-10, 10), strat.sampled_from([-10**30, 10**30])))
        argv += ["-m", str(m), "-f", draw(strat.text(alphabet="xyXYa", max_size=8))]
    if command in ("genuine", "catalog"):
        argv += ["--max-degree", str(draw(strat.integers(-1, 7)))]
    for flag in ("--max-candidates", "--max-group-size", "--threads"):
        if draw(strat.booleans()):
            argv += [flag, draw(_CAPS)]
    return argv


@hypothesis.given(_argv())
@hypothesis.settings(
    max_examples=50,
    deadline=timedelta(seconds=10),
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
def test_fuzzed_command_lines_end_in_an_exit_code(files, tmp_path, capsys, argv):
    # every run ends in 0, 1 or 2 with no traceback; the cache dir is shared
    # across examples, so later ones also read what earlier ones wrote
    outside = write_json(tmp_path, "outside.json", {
        "schema": 1, "label": "outside", "degree": 2, "sigma1": [1, 0], "sigma2": [1, 0],
    })
    argv = [dict(files, outside=outside).get(a, a) for a in argv]
    code = run_command([*argv, "--cache-dir", str(tmp_path / "c")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# frozen output bytes

def _command_lines(labels, isolated):
    """The fixed sweep: per-input commands, every ordered pair, catalog, mainline."""
    lines = []
    for a in labels:
        lines += [["info", a], ["shadows", a], ["component", a], ["diamond", a],
                  ["genuine", a, "-m", "0", "--max-degree", "4"]]
    for a in labels:
        for b in labels:
            lines += [["reduce", a, b, "-m", "0"], ["survive", a, b, "-m", "0"]]
    return lines + [["catalog", "--max-degree", "4"], ["mainline", *isolated]]


# sha256 over the sweep's exit codes, printed lines and --json documents;
# a change of any byte of them changes it
_SWEEP_DIGEST = "7669ec5694aa96849a1eb8ae4b2f57bec7bb7306af538874a30b4b0f0527ef31"


def test_command_sweep_bytes_are_frozen(files, tmp_path, cat09, cat10, capsys):
    paths = dict(files)
    for N in (cat09, cat10):
        paths[N.label] = str(tmp_path / f"{N.label}.json")
        save_doc(paths[N.label], subgroup_doc(N))
    labels = ["pb3", "cat00", "cat01", "cat02", "cat03", "cat04", "cat09", "cat10"]
    out = tmp_path / "out.json"
    cache = ["--cache-dir", str(tmp_path / "c")]
    digest = hashlib.sha256()
    for line in _command_lines(labels, labels[:6]):
        argv = [paths.get(a, a) for a in line]
        human = run_command(argv + cache)
        stdout, stderr = capsys.readouterr()
        out.unlink(missing_ok=True)
        machine = run_command(argv + cache + ["--json", str(out)])
        capsys.readouterr()
        doc = out.read_text(encoding="utf-8") if out.exists() else ""
        record = [line, human, machine, stdout, stderr, doc]
        text = json.dumps(record)
        for label in labels:
            text = text.replace(paths[label], label)
        text = text.replace(str(tmp_path), "TMP")
        digest.update(text.encode())
    assert digest.hexdigest() == _SWEEP_DIGEST
