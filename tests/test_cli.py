"""End-to-end command-line flows, run in-process via cli.main."""

import json

import pytest

from ineqkit import verify
from ineqkit.cli import main
from ineqkit.gridfn import GridSpec, load_corpus_spec, save_corpus_spec
from ineqkit.render import CSV_COLUMNS, load_report


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def flow_dir(tmp_path_factory):
    """corpus gen -> verify run -> report render, all in one tree."""
    root = tmp_path_factory.mktemp("flow")
    corpus = root / "corpus.json"
    out = root / "run"
    assert run_cli("corpus", "gen", "--dim", "1", "--count", "3",
                   "--grid", "8,64", "--seed", "7", "--out", str(corpus)) == 0
    assert run_cli("verify", "run", "--id", "bound", "--corpus", str(corpus),
                   "--out", str(out), "--jobs", "1") == 0
    return root


def test_corpus_file_contents(flow_dir):
    grid, seed, count = load_corpus_spec(flow_dir / "corpus.json")
    assert (grid.dim, seed, count) == (1, 7, 3)
    assert grid.points[0] == 64


def test_verify_run_report(flow_dir):
    doc = load_report(flow_dir / "run" / "report.json")
    assert [r["id"] for r in doc["reports"]] == ["bound"]
    assert doc["reports"][0]["passed"] is True
    assert len(doc["reports"][0]["rows"]) == 3


def test_render_both_formats(flow_dir):
    out = flow_dir / "run"
    assert run_cli("report", "render", "--in", str(out), "--format", "csv") == 0
    assert run_cli("report", "render", "--in", str(out), "--format", "svg") == 0
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert (out / "report.svg").read_text().startswith("<svg")


def test_report_json_deterministic_modulo_timestamp(flow_dir, tmp_path):
    again = tmp_path / "again"
    assert run_cli("verify", "run", "--id", "bound",
                   "--corpus", str(flow_dir / "corpus.json"),
                   "--out", str(again), "--jobs", "1") == 0
    docs = [load_report(p / "report.json") for p in (flow_dir / "run", again)]
    for doc in docs:
        doc["metadata"].pop("timestamp")
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_config_fills_gaps_and_flags_win(tmp_path):
    corpus = tmp_path / "c.json"
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(
        {"dim": 1, "count": 2, "grid": "8,64", "out": str(corpus)}))
    assert run_cli("corpus", "gen", "--config", str(config), "--count", "4") == 0
    _, _, count = load_corpus_spec(corpus)
    assert count == 4


def test_config_keys_are_the_long_flags(flow_dir, tmp_path):
    # --id, --in and --format store to entry_id, in_dir and fmt
    out = tmp_path / "run"
    run_conf = tmp_path / "run.json"
    run_conf.write_text(json.dumps({"id": "bound", "corpus": str(flow_dir / "corpus.json"),
                                    "out": str(out), "jobs": 1}))
    assert run_cli("verify", "run", "--config", str(run_conf)) == 0
    assert [r["id"] for r in load_report(out / "report.json")["reports"]] == ["bound"]
    render_conf = tmp_path / "render.json"
    render_conf.write_text(json.dumps({"in": str(out), "format": "csv"}))
    assert run_cli("report", "render", "--config", str(render_conf)) == 0
    assert (out / "report.csv").is_file()


@pytest.mark.parametrize("argv,config", [
    (("corpus", "gen", "--out", "x.json"), {"dim": 4}),
    (("corpus", "gen", "--out", "x.json"), {"dim": 1.0}),
    (("corpus", "gen", "--dim", "1", "--out", "x.json"), {"grid": "8"}),
    (("verify", "run", "--id", "bound", "--out", "out"), {"jobs": "two"}),
    (("probe", "--question", "bound", "--out", "out"), {"depth": "x"}),
    (("report", "render", "--format", "csv"), {"in_dir": "."}),
])
def test_bad_config_values_exit_2_like_their_flags(tmp_path, monkeypatch, argv, config):
    # each is rejected while the config is read, before anything runs
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--config", str(path))
    assert exc.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]


def test_usage_errors_exit_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = [
        ("corpus", "gen", "--dim", "1", "--count", "0", "--out", "x.json"),
        ("corpus", "gen", "--count", "3", "--out", "x.json"),
        # --grid is parsed by its flag, before anything runs
        ("corpus", "gen", "--dim", "1", "--grid", "8", "--out", "x.json"),
        ("corpus", "gen", "--dim", "1", "--grid", "8,abc", "--out", "x.json"),
        ("verify", "run", "--id", "no_such_entry", "--out", str(tmp_path)),
        ("probe", "--question", "bound", "--out", str(tmp_path)),
        ("report", "render", "--format", "csv"),
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_corpus_gen_on_a_grid_too_coarse_for_the_draws_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run_cli("corpus", "gen", "--dim", "1", "--count", "6",
                   "--grid", "8,2", "--out", "x.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tail mass fraction") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path,value", [
    (("grid",), GridSpec.box(1, 8.0, 2).to_dict()),  # the identity corpus gen refuses
    (("seed",), 7.5),
    (("count",), 3.9),
    (("seed",), None),
    ((), [1, 8.0, 64]),
    (("grid", "dim"), None),
    (("grid", "half_extents"), [None]),
    (("grid", "half_extents"), 8.0),
    (("count",), True),
    (("seed",), True),
    (("grid", "dim"), True),
    (("format_version",), True),
], ids=["coarse-grid", "fractional-seed", "fractional-count", "null-seed",
        "json-list", "null-dim", "null-half-extent", "scalar-half-extents",
        "true-count", "true-seed", "true-dim", "true-format-version"])
def test_verify_rejects_a_corpus_it_cannot_draw(tmp_path, path, value):
    corpus = tmp_path / "corpus.json"
    save_corpus_spec(corpus, GridSpec.box(1, 8.0, 64), verify.DEFAULT_SEED, 6)
    doc = json.loads(corpus.read_text())
    if path:
        *head, key = path
        target = doc
        for k in head:
            target = target[k]
        target[key] = value
    else:
        doc = value
    corpus.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "run", "--id", "bound", "--corpus", str(corpus),
                "--out", str(tmp_path / "out"), "--jobs", "1")
    assert exc.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]


def test_dim_mismatch_exits_2(flow_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "run", "--id", "sob1",
                "--corpus", str(flow_dir / "corpus.json"),
                "--out", str(tmp_path / "bad"))
    assert exc.value.code == 2


def test_render_failures_exit_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", "render", "--in", str(empty), "--format", "csv") == 1
    # a stale version, JSON true (== 1 in Python) and a document that is not
    # an object all fail the version check: one error line, no csv
    for name, doc in (("stale", {"format_version": 99}),
                      ("true-version", {"format_version": True, "reports": []}),
                      ("list", [{"format_version": 1}])):
        bad = tmp_path / name
        bad.mkdir()
        (bad / "report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("report", "render", "--in", str(bad), "--format", "csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "format_version" in err
        assert err.count("\n") == 1
        assert not (bad / "report.csv").exists()


def test_runtime_error_exits_1_with_one_line(flow_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    doc = load_report(flow_dir / "run" / "report.json")
    for row in doc["reports"][0]["rows"]:
        del row["ratio_fine"]
    (broken / "report.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", "render", "--in", str(broken), "--format", "csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: KeyError:") and "ratio_fine" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_probe_writes_labeled_file(tmp_path):
    out = tmp_path / "probes"
    assert run_cli("probe", "--question", "obertype_n2", "--depth", "0",
                   "--out", str(out), "--jobs", "1") == 0
    doc = json.loads((out / "probe_obertype_n2.json").read_text())
    assert doc["probe"]["label"] == "OPEN QUESTION — no asserted direction"
    assert len(doc["probe"]["levels"]) == 1
