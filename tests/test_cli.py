import json
import time

from fusionrank import cli as cli_module
from fusionrank import ranks as ranks_module

TAILS_30 = {
    "vertices": [
        {"genus": 0, "legs": []},
        {"genus": 1, "legs": []},
        {"genus": 1, "legs": []},
        {"genus": 1, "legs": []},
    ],
    "edges": [[0, 1], [0, 2], [0, 3]],
}

Z3_RING = {
    "labels": ["0", "w", "ww"],
    "vacuum": "0",
    "dual": {"0": "0", "w": "ww", "ww": "w"},
    "n3": [
        {"triple": ["0", "0", "0"], "rank": 1},
        {"triple": ["0", "w", "ww"], "rank": 1},
        {"triple": ["w", "w", "w"], "rank": 1},
        {"triple": ["ww", "ww", "ww"], "rank": 1},
    ],
}


def test_rank_closed(cli):
    proc = cli("rank", "--genus", "2", "--npoints", "0", "--method", "closed")
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_rank_closed_json(cli):
    proc = cli(
        "rank", "--genus", "2", "--npoints", "0", "--method", "closed",
        "--format", "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {
        "g": 2, "n": 0, "method": "closed", "rank": "5",
        "q5": {"a": "5", "b": "0"},
    }


def test_rank_clutch(cli):
    proc = cli("rank", "--genus", "1", "--npoints", "1", "--method", "clutch")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_rank_tails(cli):
    proc = cli("rank", "--genus", "3", "--npoints", "0", "--method", "tails")
    assert proc.returncode == 0
    assert proc.stdout == "15\n"


def test_rank_verlinde_numeric(cli):
    proc = cli(
        "rank", "--genus", "2", "--npoints", "0", "--method", "verlinde-numeric"
    )
    assert proc.returncode == 0
    assert proc.stdout == "5 (residual < 1e-6)\n"


def test_rank_verlinde_rejects_marked_points(cli):
    proc = cli(
        "rank", "--genus", "2", "--npoints", "1", "--method", "verlinde-numeric"
    )
    assert proc.returncode == 2


def test_rank_unstable_is_a_precondition_failure(cli):
    proc = cli("rank", "--genus", "0", "--npoints", "2", "--method", "clutch")
    assert proc.returncode == 3
    assert "stable" in proc.stderr


def test_rank_method_graph(cli, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(TAILS_30))
    proc = cli("rank", "--method", "graph", "--graph", str(path))
    assert proc.returncode == 0
    assert proc.stdout == "15\n"


def test_rank_custom_ring(cli, tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(Z3_RING))
    proc = cli(
        "rank", "--genus", "2", "--npoints", "0", "--method", "clutch",
        "--fusion", str(path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "9\n"


def test_rank_custom_ring_needs_weight_choice(cli, tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(Z3_RING))
    proc = cli(
        "rank", "--genus", "1", "--npoints", "2", "--method", "clutch",
        "--fusion", str(path),
    )
    assert proc.returncode == 2
    assert "--weight" in proc.stderr
    # three points of weight w sum to zero in Z/3, one block per handle label
    proc = cli(
        "rank", "--genus", "1", "--npoints", "3", "--method", "clutch",
        "--fusion", str(path), "--weight", "w",
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_verify_grid(cli):
    proc = cli("verify", "--g", "2..10", "--n", "0..10")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 99
    assert lines[0] == "g=2 n=0 sum_clutch=5 closed=5 sum_tails=5 agree=true"
    assert all(line.endswith("agree=true") for line in lines)


def test_verify_jobs_byte_identical(cli):
    one = cli("verify", "--g", "2..10", "--n", "0..10", "--jobs", "1")
    eight = cli("verify", "--g", "2..10", "--n", "0..10", "--jobs", "8")
    assert one.returncode == 0 and eight.returncode == 0
    assert one.stdout == eight.stdout


def test_verify_jobs_env_default(cli):
    base = cli("verify", "--g", "2..4", "--n", "0..4")
    env = cli("verify", "--g", "2..4", "--n", "0..4",
              env_extra={"FUSION_RANK_JOBS": "4"})
    assert env.returncode == 0
    assert env.stdout == base.stdout
    bad = cli("verify", "--g", "2..4", "--n", "0..4",
              env_extra={"FUSION_RANK_JOBS": "zero"})
    assert bad.returncode == 2


def test_verify_csv(cli):
    proc = cli("verify", "--g", "2..2", "--n", "0..0", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == "g,n,sum_clutch,closed,sum_tails,agree\n2,0,5,5,5,true\n"


def test_verify_json(cli):
    proc = cli("verify", "--g", "2..2", "--n", "0..1", "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert rows == [
        {"g": 2, "n": 0, "sum_clutch": "5", "closed": "5", "sum_tails": "5",
         "agree": True},
        {"g": 2, "n": 1, "sum_clutch": "5", "closed": "5", "sum_tails": "5",
         "agree": True},
    ]


def test_verify_low_genus_needs_extension_flag(cli):
    proc = cli("verify", "--g", "1..3", "--n", "0..0")
    assert proc.returncode == 2
    proc = cli("verify", "--g", "1..3", "--n", "0..0", "--allow-extension")
    assert proc.returncode == 0
    rows = json.loads(
        cli("verify", "--g", "1..1", "--n", "0..0", "--allow-extension",
            "--format", "json").stdout
    )
    assert rows[0]["extension"] is True


def test_verify_rejects_bad_ranges(cli):
    assert cli("verify", "--g", "5..2", "--n", "0..0").returncode == 2
    assert cli("verify", "--g", "x..2", "--n", "0..0").returncode == 2
    assert cli("verify", "--g", "2", "--n", "0..0").returncode == 2


def test_graph_rank(cli, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(TAILS_30))
    proc = cli("graph-rank", "--graph", str(path))
    assert proc.returncode == 0
    assert proc.stdout == "15\n"


def test_graph_rank_oracle(cli, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(TAILS_30))
    proc = cli("graph-rank", "--graph", str(path), "--oracle")
    assert proc.returncode == 0
    assert proc.stdout == "15 15 OK\n"
    doc = json.loads(
        cli("graph-rank", "--graph", str(path), "--oracle",
            "--format", "json").stdout
    )
    assert doc == {"rank": "15", "oracle": "15", "agree": True}


def test_graph_rank_oracle_guard_runs_before_the_engine(tmp_path, monkeypatch, capsys):
    # 20 loops over two labels make 2^20 oracle labelings, past the guard
    path = tmp_path / "loops20.json"
    path.write_text(json.dumps(
        {"vertices": [{"genus": 0, "legs": []}], "edges": [[0, 0]] * 20}
    ))
    engine_calls = []
    monkeypatch.setattr(
        cli_module, "rank_graph", lambda *args: engine_calls.append(args) or 0
    )
    assert cli_module.main(["graph-rank", "--graph", str(path), "--oracle"]) == 3
    out, err = capsys.readouterr()
    assert engine_calls == []
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_graph_rank_unstable_file(cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"vertices": [{"genus": 0, "legs": ["mu"]}], "edges": []}'
    )
    proc = cli("graph-rank", "--graph", str(path))
    assert proc.returncode == 2
    assert "vertex 0" in proc.stderr


def test_graph_rank_missing_file(cli, tmp_path):
    proc = cli("graph-rank", "--graph", str(tmp_path / "absent.json"))
    assert proc.returncode == 2


def test_moebius(cli):
    proc = cli("moebius", "--k", "2")
    assert proc.returncode == 0
    assert proc.stdout == "15\n"


def test_moebius_check(cli):
    proc = cli("moebius", "--k", "3", "--check")
    assert proc.returncode == 0
    assert proc.stdout == "50 50 OK\n"
    doc = json.loads(cli("moebius", "--k", "2", "--check", "--format", "json").stdout)
    assert doc == {"k": 2, "count": "15", "expected": "15", "agree": True}


def test_moebius_rejects_out_of_range_k(cli):
    assert cli("moebius", "--k", "1").returncode == 2
    assert cli("moebius", "--k", "9").returncode == 2


def test_moebius_custom_graph(cli, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text('{"vertex_count": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    proc = cli("moebius", "--graph", str(path))
    assert proc.returncode == 0
    assert proc.stdout == "2\n"
    assert cli("moebius", "--graph", str(path), "--check").returncode == 2
    assert cli("moebius", "--graph", str(path), "--k", "2").returncode == 2


def test_table(cli):
    proc = cli("table", "--g", "2..2", "--n", "0..0", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == '[{"g":2,"n":0,"rank":"5"}]\n'
    proc = cli("table", "--g", "1..3", "--n", "0..0", "--format", "csv")
    assert proc.stdout == "g,n,rank\n1,0,2\n2,0,5\n3,0,15\n"


def test_output_to_file(cli, tmp_path):
    out = tmp_path / "result.txt"
    proc = cli(
        "rank", "--genus", "3", "--npoints", "0", "--method", "closed",
        "--output", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text() == "15\n"


def test_internal_error_is_exit_4_without_traceback(monkeypatch, capsys):
    # a crash must not read as exit 1, which means a verified disagreement
    def crash(*args):
        raise RuntimeError("engine\nfailure")

    monkeypatch.setattr(cli_module, "rank_smooth", crash)
    argv = ["rank", "--genus", "1", "--npoints", "3", "--method", "clutch"]
    assert cli_module.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal: RuntimeError: engine failure\n"


def test_large_leg_counts_match_closed(capsys):
    # 1500 legs once overflowed the recursive engine
    for g in (1, 2, 3):
        argv = ["rank", "--genus", str(g), "--npoints", "1500"]
        assert cli_module.main(argv + ["--method", "closed"]) == 0
        expected = capsys.readouterr()
        for method in ("clutch", "tails"):
            assert cli_module.main(argv + ["--method", method]) == 0, (g, method)
            assert capsys.readouterr() == expected, (g, method)


def test_graph_rank_oracle_many_legs(tmp_path, capsys):
    # the oracle's genus-0 routine is iterative, so 1500 legs do not
    # overflow the stack
    path = tmp_path / "legs1500.json"
    path.write_text(json.dumps(
        {"vertices": [{"genus": 0, "legs": ["mu"] * 1500}], "edges": []}
    ))
    assert cli_module.main(["graph-rank", "--graph", str(path), "--oracle"]) == 0
    out, err = capsys.readouterr()
    assert out.endswith(" OK\n") and err == ""


def test_graph_rank_loops_are_handles(tmp_path, capsys):
    # 25 loops on one vertex are 25 handles, not 2^25 labelings
    path = tmp_path / "loops25.json"
    path.write_text(json.dumps(
        {"vertices": [{"genus": 0, "legs": []}], "edges": [[0, 0]] * 25}
    ))
    start = time.perf_counter()
    assert cli_module.main(["graph-rank", "--graph", str(path)]) == 0
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    argv = ["rank", "--genus", "25", "--npoints", "0", "--method", "clutch"]
    assert cli_module.main(argv) == 0
    assert capsys.readouterr().out == out
    assert elapsed < 1.0, f"25 loops took {elapsed:.2f}s"


def test_graph_rank_engine_guard_runs_before_any_labeling(
    tmp_path, monkeypatch, capsys
):
    # 21 parallel edges over two labels make 2^21 > 10^6 edge labelings
    path = tmp_path / "parallel21.json"
    path.write_text(json.dumps(
        {"vertices": [{"genus": 0, "legs": []}, {"genus": 0, "legs": []}],
         "edges": [[0, 1]] * 21}
    ))
    enumerated = []
    monkeypatch.setattr(
        ranks_module, "product", lambda *args, **kw: enumerated.append(args) or iter(())
    )
    for argv in (
        ["graph-rank", "--graph", str(path)],
        ["rank", "--method", "graph", "--graph", str(path)],
    ):
        assert cli_module.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert enumerated == []


def test_usage_errors(cli):
    assert cli("rank", "--method", "closed").returncode == 2
    assert cli("rank", "--genus", "2", "--npoints", "0",
               "--method", "nonsense").returncode == 2
    assert cli("nonsense").returncode == 2
    assert cli("verify", "--g", "2..3", "--n", "0..0", "--jobs", "0").returncode == 2


def test_fusion_validation_error_is_usage(cli, tmp_path):
    bad = dict(Z3_RING)
    bad["dual"] = {"0": "0", "w": "w", "ww": "ww"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = cli(
        "rank", "--genus", "2", "--npoints", "0", "--method", "clutch",
        "--fusion", str(path),
    )
    assert proc.returncode == 2
    assert "vacuum-rule" in proc.stderr or "invalid fusion ring" in proc.stderr
