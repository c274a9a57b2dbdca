import collections
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk import cli, depth, graph, pipelines, schedule, spectral

from conftest import dense_gate


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


def test_spectrum_cycle5_loose_tolerance_exits_one(capsys, monkeypatch):
    # 1.38 and 3.62 lie within 0.5 of 1 and 4; the certificate refuses them
    monkeypatch.setattr(spectral, "INTEGER_TOL", 0.5)
    code, out, err = run_cli(["spectrum", "--family", "cycle5"], capsys)
    assert code == 1
    assert err.startswith("error:") and "rounded integers" in err
    assert out == ""


def test_spectrum_and_depth_skip_eigenvectors(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "rook33.edges"
    edges.write_text(graph.dump_edge_list(graph.rook(3, 3)))
    big_edges = tmp_path / "hamming10_2.edges"
    big_edges.write_text(graph.dump_edge_list(graph.hamming(10, 2)))
    big = dense_gate(graph.hamming(10, 2))
    verbs = {
        "spectrum": ["spectrum", "--family", "hamming", "--params", "4,2"],
        "depth": ["depth", "--edges", str(edges)],
        "big_spectrum": ["spectrum", "--family", "hamming", "--params", "10,2"],
        "big_depth": ["depth", "--edges", str(big_edges)],
    }
    expected = {verb: run_cli(argv, capsys) for verb, argv in verbs.items()}
    assert json.loads(expected["big_spectrum"][1]) == spectral.spectrum_to_json_dict(big)
    assert json.loads(expected["big_depth"][1]) == depth.chain_to_json_dict(
        depth.build_depth_chain(big))

    def no_dense(*args):
        raise AssertionError("dense work")

    # family edges take closed-form values: no solver and no dense Laplacian
    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    for module in (graph, spectral, cli):
        monkeypatch.setattr(module, "laplacian", no_dense)
    for verb, argv in verbs.items():
        assert run_cli(argv, capsys) == expected[verb]
        assert expected[verb][0] == 0
    # the patch is live: the eigenvector dump still needs the dense path
    with pytest.raises(AssertionError, match="dense work"):
        cli.main(verbs["spectrum"] + ["--vectors-csv", str(tmp_path / "v.csv")])


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
    assert data["n"] == 5 and set(data) == {"n", "edges", "family"}
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


@pytest.mark.parametrize("source", [["--family", "cycle5"],
                                    ["--family", "hamming", "--params", "4,2"]])
def test_schedule_sample_without_marked_is_a_usage_error(source, capsys, monkeypatch):
    # the check comes before any solve, as for run sample, so C5 exits 2 too
    def no_solve(*args):
        raise AssertionError("solved before the usage check")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    with pytest.raises(SystemExit) as exc:
        cli.main(["schedule", *source, "--task", "sample"])
    assert exc.value.code == 2
    assert "--task sample requires --marked" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "search", "--family", "rook", "--params", "3,3", "--marked", "4",
     "--fidelity-threshold", "nan"],
    ["run", "search", "--family", "rook", "--params", "3,3", "--marked", "4",
     "--fidelity-threshold", "2"],
    ["run", "search", "--family", "rook", "--params", "3,3", "--marked", "4",
     "--fidelity-threshold", "0"],
    ["spectrum", "--family", "hamming", "--params", "4,2", "--int-tol", "nan"],
    ["spectrum", "--family", "hamming", "--params", "4,2", "--int-tol", "-1"],
    ["spectrum", "--family", "hamming", "--params", "4,2", "--int-tol", "inf"],
    ["spectrum", "--family", "hamming", "--params", "4,2", "--int-tol", "abc"],
    ["verify", "--family", "rook", "--params", "3,3", "--cap", "0"],
    ["verify", "--family", "rook", "--params", "3,3", "--cap", "-1"],
    ["verify", "--family", "rook", "--params", "3,3", "--cap", "2.5"],
], ids=["threshold_nan", "threshold_above_one", "threshold_zero", "int_tol_nan",
        "int_tol_negative", "int_tol_inf", "int_tol_not_a_number", "cap_zero",
        "cap_negative", "cap_not_an_integer"])
def test_bad_tolerance_is_a_usage_error(argv, capsys, monkeypatch):
    # checked while parsing, before any graph is built or solved; the
    # tolerance flags are gone, so argparse rejects the flag itself
    def no_solve(*args):
        raise AssertionError("solved before the usage check")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(cli, "build_family", no_solve)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[-2] in ("--fidelity-threshold", "--int-tol"):
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    else:
        assert f"argument --cap: must be a positive integer, got '{argv[-1]}'" in err


def test_family_spectrum_ignores_int_tol(capsys, monkeypatch):
    # closed-form values need no rounding; the dense route would refuse
    # the solver's 1e-15 at this tolerance
    argv = ["spectrum", "--family", "hamming", "--params", "4,2"]
    expected = run_cli(argv, capsys)
    monkeypatch.setattr(spectral, "INTEGER_TOL", 1e-300)
    assert run_cli(argv, capsys) == expected
    # the patch is live: the dense route refuses the solver's values
    with pytest.raises(spectral.SpectrumError, match="non-integer"):
        dense_gate(graph.hamming(4, 2))


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
def test_bipartite_artifact_blocks_come_from_edges(tmp_path, capsys, family):
    artifact = tmp_path / "bip.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "complete_bipartite", "--params", "4,7",
         "--task", "bipartite", "--marked", "2", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    code, reference, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0
    data = json.loads(artifact.read_text())
    data["graph"]["family"] = family
    artifact.write_text(json.dumps(data))
    code, out, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0
    assert out == reference


def test_bipartite_artifact_needs_complete_bipartite_edges(tmp_path, capsys):
    artifact = tmp_path / "bip.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "complete_bipartite", "--params", "4,7",
         "--task", "bipartite", "--marked", "2", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    data = json.loads(artifact.read_text())
    data["graph"]["edges"].remove([0, 4])  # still connected
    artifact.write_text(json.dumps(data))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def edit_json(edit):
    def apply(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return apply


def cwalks(data):
    return [op for op in data["schedule"]["ops"] if op["op"] == "cwalk"]


@pytest.mark.parametrize("factor", [3.0, 1.5])
def test_bipartite_walk_times_are_checked(tmp_path, capsys, factor):
    # stretched walks with a re-summed total time decode cleanly; x3 used to
    # run to exit 0 and x1.5 to fail only at the detach gate
    artifact = tmp_path / "kb57.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "complete_bipartite", "--params", "5,7",
         "--task", "bipartite", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    data = json.loads(artifact.read_text())
    for branch in data["branches"]:
        for op in branch["ops"]:
            if op["op"] == "cwalk":
                op["t"] *= factor
        branch["total_time"] = sum(abs(op.get("t", 0.0)) + abs(op.get("theta", 0.0))
                                   for op in branch["ops"])
    artifact.write_text(json.dumps(data))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1
    assert err.startswith("error: stage at level 0 walks for ")
    assert out == ""


def test_search_artifact_needs_one_branch_per_class(tmp_path, capsys, k4_minus_edge):
    # the cardinality-ratio schedule fits K4 - e's depth chain, but its
    # level masses depend on the vertex: two classes, two branches
    ctx = pipelines.prepare(k4_minus_edge)
    sampling = schedule.synth_sampling_schedule(
        ctx.chain, depth.transitive_overlaps(ctx.chain))
    artifact = tmp_path / "k4e.json"
    artifact.write_text(json.dumps({
        "task": "search", "graph": graph.graph_to_json_dict(k4_minus_edge),
        "probe_marked": 0, "reported_fidelity": 1.0,
        "schedule": schedule.schedule_to_json_dict(schedule.dagger(sampling)),
    }))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1
    assert err.startswith("error: search on this graph takes 2 branches, got 1")
    assert out == ""


def test_class_search_artifact_k4_minus_edge(tmp_path, capsys):
    edges = tmp_path / "k4e.edges"
    edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n")
    blobs = set()
    for m in range(4):
        artifact = tmp_path / f"k4e_{m}.json"
        code, _, _ = run_cli(["schedule", "--edges", str(edges), "--task", "search",
                              "--marked", str(m), "--out", str(artifact)], capsys)
        assert code == 0
        stored = json.loads(artifact.read_text())
        assert "schedule" not in stored and len(stored["branches"]) == 2
        blobs.add(json.dumps(stored["branches"]))
        code, out, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
        assert code == 0
        rerun = json.loads(out)
        assert abs(rerun["fidelity"] - stored["reported_fidelity"]) <= 1e-10
        assert rerun["target"] == m and rerun["search_mode"] == "blackbox"
        assert sum(b["succeeded"] for b in rerun["branches"]) == 1
    assert len(blobs) == 1  # no branch depends on the hidden vertex
    branches = stored["branches"]
    for edited in (branches[:1], branches + branches[:1]):  # dropped, duplicated
        artifact.write_text(json.dumps({**stored, "branches": edited}))
        code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
        assert code == 1
        assert err.startswith("error: search on this graph takes 2 branches")
        assert out == ""


def test_search_without_a_winner_exits_one(tmp_path, capsys):
    # both branches are K4 - e's first: vertex 3 is in the other mass class
    edges = tmp_path / "k4e.edges"
    edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n")
    artifact, report = tmp_path / "k4e.json", tmp_path / "report.json"
    code, _, _ = run_cli(["schedule", "--edges", str(edges), "--task", "search",
                          "--out", str(artifact)], capsys)
    assert code == 0
    stored = json.loads(artifact.read_text())
    artifact.write_text(json.dumps({**stored, "branches": stored["branches"][:1] * 2}))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact),
                              "--marked", "3", "--out", str(report)], capsys)
    assert code == 1
    assert err.startswith("error: no search branch found vertex 3: best fidelity 0.5")
    assert len(err.splitlines()) == 1 and out == "" and not report.exists()


ARTIFACT_ARGS = {
    # johnson(5,2) search: two stages, seven oracle calls
    "search": ["--family", "johnson", "--params", "5,2", "--task", "search"],
    # hamming(4,2) sample: levels 0, 1, 2 walk for pi/2, pi/4, pi/8
    "sample": ["--family", "hamming", "--params", "4,2", "--task", "sample",
               "--marked", "3"],
    "bipartite": ["--family", "complete_bipartite", "--params", "4,7", "--task",
                  "bipartite", "--marked", "2"],
    # rook(3,3) search: one schedule, for the JSON-type cases
    "rook": ["--family", "rook", "--params", "3,3", "--task", "search"],
}


def oracles(data):
    return [op for op in data["schedule"]["ops"] if op["op"] == "oracle"]


@pytest.mark.parametrize("kind, edit", [
    ("search", lambda text: text[:-20]),
    ("search", edit_json(lambda d: d.pop("task"))),
    ("search", edit_json(lambda d: cwalks(d)[0].pop("t"))),
    ("search", edit_json(lambda d: cwalks(d)[0].update(t="abc"))),
    ("search", edit_json(lambda d: d["schedule"].update(ops=None))),
    ("search", edit_json(lambda d: d["graph"].update(edges="x"))),
    ("search", edit_json(lambda d: d["schedule"].update(oracle_count=1))),
    ("search", edit_json(lambda d: d["schedule"].update(total_time=50.0))),
    ("search", edit_json(lambda d: cwalks(d)[-1].update(t=-1.0))),
    ("search", edit_json(lambda d: d["schedule"].update(hamiltonian="banana"))),
    ("search", edit_json(lambda d: d["schedule"].update(hamiltonian="adjacency"))),
    ("search", edit_json(lambda d: d["schedule"]["stage_levels"].reverse())),
    ("sample", edit_json(lambda d: d["schedule"].update(hamiltonian="adjacency"))),
    ("sample", edit_json(lambda d: d["schedule"]["stage_levels"].reverse())),
    ("bipartite", edit_json(lambda d: d["branches"][0].update(hamiltonian="laplacian"))),
    ("search", edit_json(lambda d: d.update(probe_marked=2.9))),
    ("search", edit_json(lambda d: d.update(probe_marked=True))),
    ("sample", edit_json(lambda d: d.update(branches=[d["schedule"]] * 2))),
    # int() and float() once coerced these and the run exited 0
    ("rook", edit_json(lambda d: d["schedule"].update(
        stage_levels=[v + 0.5 for v in d["schedule"]["stage_levels"]]))),
    ("rook", edit_json(lambda d: d["schedule"].update(
        stage_boundaries=[v + 0.25 for v in d["schedule"]["stage_boundaries"]]))),
    ("rook", edit_json(lambda d: d["schedule"].update(
        oracle_count=d["schedule"]["oracle_count"] + 0.5))),
    ("rook", edit_json(lambda d: oracles(d)[0].update(sign=True))),
    ("rook", edit_json(lambda d: oracles(d)[0].update(sign=float(oracles(d)[0]["sign"])))),
    ("rook", edit_json(lambda d: oracles(d)[0].update(theta=str(oracles(d)[0]["theta"])))),
    ("rook", edit_json(lambda d: d["schedule"].update(
        stage_levels=[str(v) for v in d["schedule"]["stage_levels"]]))),
], ids=["not_json", "no_task", "cwalk_without_t", "t_not_a_number", "ops_null",
        "edges_not_pairs", "oracle_count", "total_time", "cwalk_time",
        "hamiltonian_unknown", "search_on_adjacency", "search_levels_reversed",
        "sample_on_adjacency", "sample_levels_reversed", "branch_on_laplacian",
        "probe_float", "probe_bool", "sample_two_schedules", "levels_float",
        "boundaries_float", "oracle_count_float", "sign_bool", "sign_float",
        "theta_string", "levels_string"])
def test_malformed_artifact_exits_one(tmp_path, capsys, kind, edit):
    artifact = tmp_path / "sched.json"
    code, _, _ = run_cli(["schedule", *ARTIFACT_ARGS[kind], "--out", str(artifact)], capsys)
    assert code == 0
    code, _, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0  # the unedited artifact runs
    artifact.write_text(edit(artifact.read_text()))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""
    if kind == "rook":  # a JSON value of the wrong type
        assert err.startswith(f"error: malformed artifact {artifact}: TypeError: ")


def test_search_schedule_from_edge_list(tmp_path, capsys):
    edges = tmp_path / "rook33.edges"
    code, _, _ = run_cli(
        ["graph", "--family", "rook", "--params", "3,3", "--format", "edgelist",
         "--out", str(edges)],
        capsys,
    )
    assert code == 0
    artifacts = [tmp_path / "edges.json", tmp_path / "family.json"]
    for source, artifact in zip(
        (["--edges", str(edges)], ["--family", "rook", "--params", "3,3"]), artifacts
    ):
        code, _, _ = run_cli(
            ["schedule", *source, "--task", "search", "--out", str(artifact)], capsys
        )
        assert code == 0
    from_edges, from_family = (json.loads(a.read_text()) for a in artifacts)
    assert from_edges["graph"] == {**from_family["graph"], "family": None}
    assert json.dumps(from_edges["schedule"]) == json.dumps(from_family["schedule"])
    code, out, _ = run_cli(["run", "schedule", "--schedule", str(artifacts[0])], capsys)
    assert code == 0
    rerun = json.loads(out)
    assert abs(rerun["fidelity"] - from_edges["reported_fidelity"]) <= 1e-10
    assert rerun["search_mode"] == "blackbox"


def test_old_artifacts_with_a_vertex_transitive_key_rerun_the_same(tmp_path, capsys):
    # graph JSON no longer carries the key; an artifact written before
    # that reruns byte for byte whatever its value, which nothing reads
    artifact = tmp_path / "rook.json"
    code, _, _ = run_cli(
        ["schedule", "--family", "rook", "--params", "3,3", "--task", "search",
         "--marked", "4", "--out", str(artifact)],
        capsys,
    )
    assert code == 0
    code, reference, _ = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 0
    data = json.loads(artifact.read_text())
    assert "vertex_transitive" not in data["graph"]
    for value in ("yes", "no", "unknown", "maybe", None, 1):
        data["graph"]["vertex_transitive"] = value
        artifact.write_text(json.dumps(data))
        code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
        assert (code, out, err) == (0, reference, "")

    # K4 - e flagged "yes" still takes one branch per mass class: vertex 0's
    # class branch alone is refused
    k4e = graph.load_edge_list("0 2\n0 3\n1 2\n1 3\n2 3\n")
    ctx = pipelines.prepare(k4e)
    data = {
        "task": "search",
        "graph": {**graph.graph_to_json_dict(k4e), "vertex_transitive": "yes"},
        "probe_marked": 0,
        "reported_fidelity": 1.0,
        "schedule": schedule.schedule_to_json_dict(ctx.branches[0]),
    }
    artifact.write_text(json.dumps(data))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1
    assert "takes 2 branches" in err
    assert out == ""


def test_a_failing_branch_can_name_the_marked_vertex(tmp_path, capsys):
    # K4 - e, hidden vertex 2: branch 1, vertex 0's class, ends with
    # vertices 2 and 3 tied at exactly 1/2, below the threshold, so it fails
    # and names the lower of the two, the marked vertex itself; branch 2
    # confirms vertex 2
    edges = tmp_path / "k4e.edges"
    edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n")
    code, out, _ = run_cli(["run", "search", "--edges", str(edges), "--marked", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["branches"] == [
        {"candidate": 2, "fidelity": 0.5, "oracle_count": 1, "side": 1, "succeeded": False,
         "total_time": 7.85398163397},
        {"candidate": 2, "fidelity": 1.0, "oracle_count": 4, "side": 2, "succeeded": True,
         "total_time": 23.5619449019},
    ]
    assert (report["target"], report["fidelity"], report["oracle_count"]) == (2, 1.0, 5)


def test_run_transfer(capsys):
    code, out, _ = run_cli(
        ["run", "transfer", "--family", "rook", "--params", "3,3",
         "--source", "0", "--target", "7"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1 - 1e-8


def test_run_transfer_to_itself(capsys):
    code, out, _ = run_cli(
        ["run", "transfer", "--family", "rook", "--params", "3,3",
         "--source", "2", "--target", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("edit", [
    lambda g: g.update(n=9.5, edges=[[u + 0.5, v] for u, v in g["edges"]]),
    lambda g: g.update(n=9.0),
    lambda g: g.update(n="9"),
    lambda g: g["edges"][0].__setitem__(1, True),
], ids=["halves", "n_float", "n_string", "endpoint_bool"])
def test_run_schedule_rejects_non_integer_graph(tmp_path, capsys, edit):
    # int() once truncated these into rook(3,3) and the run exited 0
    artifact = tmp_path / "rook33.json"
    code, _, _ = run_cli(["schedule", "--family", "rook", "--params", "3,3", "--task", "search",
                          "--out", str(artifact)], capsys)
    assert code == 0
    data = json.loads(artifact.read_text())
    edit(data["graph"])
    artifact.write_text(json.dumps(data))
    code, out, err = run_cli(["run", "schedule", "--schedule", str(artifact)], capsys)
    assert code == 1 and out == ""
    assert err == "error: graph JSON: n and every edge endpoint must be integers\n"


def reference_round_floats(obj):
    """The rounding pass emit_json once made before json.dumps."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: reference_round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round_floats(v) for v in obj]
    return obj


def reference_emit(data):
    return json.dumps(reference_round_floats(data), indent=2, sort_keys=True) + "\n"


def emitted(data):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit_json(data, None)
    return buf.getvalue()


class Row(list):
    pass


json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.sampled_from([10**30, -10**30, -1, 2**63]),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1 / 3]),
    st.text(), st.sampled_from(["é", "日本", "😀", "\n\t\"\\/", "\x00\x1f", " "]),
)
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(Row),
    st.lists(st.integers(), max_size=6), st.lists(st.floats(), max_size=6),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=3).map(collections.OrderedDict),
), max_leaves=30)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(json_values)
def test_emit_json_matches_round_then_dumps(data):
    assert emitted(data) == reference_emit(data)


@pytest.mark.parametrize("data", [
    np.int64(3), {1, 2}, {"a": [1, np.int64(2)]}, {"a": {"b": {3}}},
    [np.float32(1.0)], {(1, 2): 0}, {"a": object()},
], ids=["int64", "set", "int64_in_list", "nested_set", "float32", "tuple_key", "object"])
def test_emit_json_refuses_what_json_refuses(data):
    with pytest.raises(TypeError) as want:
        reference_emit(data)
    with pytest.raises(TypeError) as got:
        emitted(data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("source", [
    ["--family", "rook", "--params", "3,3"],
    ["--family", "hamming", "--params", "4,2"],
    ["--family", "complete_bipartite", "--params", "5,7"],
    ["--edges", "k4e.edges"],
], ids=["rook33", "hamming42", "complete_bipartite57", "k4e"])
def test_every_json_artifact_is_stdlib_json(source, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4e.edges").write_text("0 1\n0 2\n0 3\n1 2\n1 3\n")
    bipartite = source[1] == "complete_bipartite"
    written = {
        "graph": ["graph", *source],
        "spectrum": ["spectrum", *source],
        "depth": ["depth", *source],
        "search": ["schedule", *source, "--task", "search"],
        "sample": ["schedule", *source, "--task", "sample", "--marked", "1"],
        "bipartite": ["schedule", *source, "--task", "bipartite"],
        "run_sample": ["run", "sample", *source, "--marked", "1"],
        "run_transfer": ["run", "transfer", *source, "--source", "0", "--target", "2"],
        "run_search": ["run", "search", *source, "--marked", "2"],
        "run_bipartite": ["run", "bipartite", *source, "--marked", "2"],
        "run_schedule_search": ["run", "schedule", "--schedule", "search.json"],
        "run_schedule_sample": ["run", "schedule", "--schedule", "sample.json"],
        "run_schedule_bipartite": ["run", "schedule", "--schedule", "bipartite.json"],
        "verify": ["verify", *source],
    }
    for name, argv in written.items():
        code, out, _ = run_cli([*argv, "--out", f"{name}.json"], capsys)
        assert code == (1 if "bipartite" in name and not bipartite else 0), name
        assert out == ""
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == len(written) - (0 if bipartite else 3)
    for path in files:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
