import json

import pytest

from qwalk import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def same_report(a, b):
    """Equal, floats to 1e-10: artifacts store op angles to 12 digits."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_report(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_report, a, b))
    if isinstance(a, float):
        return a == pytest.approx(b, rel=1e-10, abs=1e-10)
    return a == b


def test_depth_johnson(capsys):
    code, out, _ = run_cli(["depth", "--family", "johnson", "--params", "5,2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    assert len(data["levels"][1]["lambda"]) == 6


def test_run_search_rook(capsys):
    code, out, _ = run_cli(
        ["run", "search", "--family", "rook", "--params", "3,3", "--marked", "4"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["fidelity"] >= 1 - 1e-8
    assert data["target"] == 4


def test_spectrum_cycle5_exits_one(capsys):
    code, out, err = run_cli(["spectrum", "--family", "cycle5"], capsys)
    assert code == 1
    assert "non-integer" in err
    assert out == ""


def test_spectrum_c4(capsys):
    code, out, _ = run_cli(["spectrum", "--family", "rook", "--params", "2,2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalues"] == [0, 2, 2, 4]


def test_graph_verb_json_and_edgelist(tmp_path, capsys):
    out_json = tmp_path / "g.json"
    code, _, _ = run_cli(
        ["graph", "--family", "complete_bipartite", "--params", "2,3",
         "--out", str(out_json)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["n"] == 5
    assert data["vertex_transitive"] == "no"
    code, out, _ = run_cli(
        ["graph", "--family", "rook", "--params", "2,2", "--format", "edgelist"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_graph_from_edge_file(tmp_path, capsys):
    edges = tmp_path / "tri.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(["graph", "--edges", str(edges)], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["depth"])  # missing graph source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuchverb"])
    assert exc.value.code == 2


def test_byte_identical_artifacts(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(
            ["run", "search", "--family", "johnson", "--params", "5,2",
             "--marked", "3", "--out", str(p)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_schedule_artifact_resimulates(tmp_path, capsys):
    artifact = tmp_path / "sched.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "hamming", "--params", "2,3", "--task", "search",
         "--marked", "5", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    stored = json.loads(artifact.read_text())
    code, out, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0
    rerun = json.loads(out)
    assert abs(rerun["fidelity"] - stored["reported_fidelity"]) <= 1e-10
    code, out, _ = run_cli(
        ["run", "search", "--family", "hamming", "--params", "2,3", "--marked", "5"],
        capsys,
    )
    assert code == 0
    assert same_report(rerun, json.loads(out))


def test_sample_schedule_artifact_resimulates(tmp_path, capsys):
    artifact = tmp_path / "sample.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "rook", "--params", "2,2", "--task", "sample",
         "--marked", "1", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    stored = json.loads(artifact.read_text())
    code, out, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0
    rerun = json.loads(out)
    assert abs(rerun["fidelity"] - stored["reported_fidelity"]) <= 1e-10
    code, out, _ = run_cli(
        ["run", "sample", "--family", "rook", "--params", "2,2", "--marked", "1"],
        capsys,
    )
    assert code == 0
    assert same_report(rerun, json.loads(out))


def test_bipartite_schedule_artifact(tmp_path, capsys):
    artifact = tmp_path / "bip.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "complete_bipartite", "--params", "2,3",
         "--task", "bipartite", "--marked", "4", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    stored = json.loads(artifact.read_text())
    assert len(stored["branches"]) == 2
    code, out, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0
    rerun = json.loads(out)
    assert abs(rerun["fidelity"] - stored["reported_fidelity"]) <= 1e-10
    code, out, _ = run_cli(
        ["run", "bipartite", "--family", "complete_bipartite", "--params", "2,3",
         "--marked", "4"],
        capsys,
    )
    assert code == 0
    assert same_report(rerun, json.loads(out))


@pytest.mark.parametrize("family", [None, "complete_bipartite(7,4)"])
def test_bipartite_artifact_tag_must_match_edges(tmp_path, capsys, family):
    artifact = tmp_path / "bip.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "complete_bipartite", "--params", "4,7",
         "--task", "bipartite", "--marked", "2", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    data = json.loads(artifact.read_text())
    data["graph"]["family"] = family
    artifact.write_text(json.dumps(data))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_run_transfer(capsys):
    code, out, _ = run_cli(
        ["run", "transfer", "--family", "rook", "--params", "3,3",
         "--source", "0", "--target", "7"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1 - 1e-8


def test_run_bipartite(capsys):
    code, out, _ = run_cli(
        ["run", "bipartite", "--family", "complete_bipartite", "--params", "1,4",
         "--marked", "2"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["target"] == 2
    assert len(data["branches"]) == 2


def test_run_csv_format(capsys):
    code, out, _ = run_cli(
        ["run", "sample", "--family", "rook", "--params", "2,2", "--marked", "0",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph,task,m,fidelity,p,T,d,bound_ratio"
    assert len(lines) == 2


def test_empty_aggregate_csv():
    from qwalk import pipelines

    assert pipelines.reports_to_csv([]) == "graph,task,m,fidelity,p,T,d,bound_ratio\n"


def test_report_json_round_trip(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["run", "sample", "--family", "rook", "--params", "2,2", "--marked", "0",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text())
    again = json.loads(json.dumps(data))
    assert again == data


def test_verify_verb(tmp_path, capsys):
    out = tmp_path / "verify.json"
    csv = tmp_path / "verify.csv"
    code, _, err = run_cli(
        ["verify", "--family", "rook", "--params", "2,2",
         "--out", str(out), "--csv", str(csv)],
        capsys,
    )
    assert code == 0
    assert "verified rook(2,2)" in err
    data = json.loads(out.read_text())
    assert data["min_fidelity"] >= 1 - 1e-8
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "graph,task,m,fidelity,p,T,d,bound_ratio"
    assert len(lines) == 1 + data["runs"]


def test_verify_artifact_deterministic(tmp_path, capsys):
    outs = [tmp_path / "v1.json", tmp_path / "v2.json"]
    for out in outs:
        code, _, _ = run_cli(
            ["verify", "--family", "rook", "--params", "2,2", "--out", str(out)],
            capsys,
        )
        assert code == 0
    a = json.loads(outs[0].read_text())
    b = json.loads(outs[1].read_text())
    assert a == b
