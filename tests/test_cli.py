import time

import pytest

from twreach import cli
from twreach.decomp import BalancedTD, parse_td, validate_td, write_td
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import parse_graph
from twreach.recursive import build_balanced

PATH_GR = "p dgr 4 3\n1 2\n2 3\n3 4\n"
PATH_TD = "c root 1\ns td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n"


@pytest.fixture
def path_files(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text(PATH_GR)
    td.write_text(PATH_TD)
    return str(gr), str(td)


def test_validate_ok(path_files, capsys):
    gr, td = path_files
    assert cli.main(["validate", "--graph", gr, "--td", td]) == 0
    out = capsys.readouterr().out
    assert "covers_vertices: True" in out
    assert "witness" not in out


def test_validate_bad(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text(PATH_GR)
    td.write_text("s td 1 2 4\nb 1 1 2\n")
    assert cli.main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    assert "witness:" in capsys.readouterr().out


def test_separator_output(path_files, capsys):
    gr, td = path_files
    assert cli.main(["separator", "--graph", gr, "--td", td]) == 0
    out = capsys.readouterr().out
    assert "bag_node: 1" in out
    assert "separator: 1 2" in out
    assert "target_size: 4" in out


def test_separator_explicit_target(path_files, capsys):
    gr, td = path_files
    assert cli.main(["separator", "--graph", gr, "--td", td, "--target", "3,4"]) == 0
    assert "bag_node: 2" in capsys.readouterr().out


def test_balance_writes_file(path_files, tmp_path, capsys):
    gr, td = path_files
    out_path = tmp_path / "b.td"
    assert cli.main(["balance", "--graph", gr, "--td", td, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "width:" in out and "depth:" in out
    t = parse_td(out_path.read_text())
    assert t.root is not None
    assert validate_td(parse_graph(PATH_GR), t).ok


def test_reach_reachable(path_files, capsys):
    gr, td = path_files
    assert cli.main(["reach", "--graph", gr, "--td", td,
                     "--source", "1", "--target", "4"]) == 0
    assert "REACHABLE" in capsys.readouterr().out


def test_reach_unreachable_exit_code(path_files, capsys):
    gr, td = path_files
    assert cli.main(["reach", "--graph", gr, "--td", td,
                     "--source", "4", "--target", "1"]) == 1
    assert "UNREACHABLE" in capsys.readouterr().out


def test_reach_meter(path_files, capsys):
    gr, td = path_files
    assert cli.main(["reach", "--graph", gr, "--td", td,
                     "--source", "1", "--target", "3", "--meter"]) == 0
    out = capsys.readouterr().out
    assert "peak_bits:" in out and "iterations:" in out and "w_input: 1" in out


def test_reach_bfs_engine(path_files, capsys):
    gr, td = path_files
    assert cli.main(["reach", "--graph", gr, "--td", td,
                     "--source", "1", "--target", "4", "--engine", "bfs"]) == 0
    out = capsys.readouterr().out
    assert "REACHABLE" in out and "peak_bits" not in out


def test_useq(capsys):
    assert cli.main(["useq", "--s", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 1 4 1 2 1"


def test_lseq(path_files, capsys):
    _, td = path_files
    # rooted path decomposition: every index resolves to the single leaf chain
    assert cli.main(["lseq", "--td", td, "--d", "2", "--r", "1"]) == 0
    leaf = int(capsys.readouterr().out)
    assert leaf == 3


def test_lseq_huge_budget_is_fast(tmp_path, capsys):
    # a 2^40 budget makes the schedule longer than 2^63: bounds and descent
    # must not go through len() or walk the universal sequence
    g, t = gen_ktree(KTreeSpec(n=64, k=3, seed=7))
    td = tmp_path / "b.td"
    td.write_text(write_td(build_balanced(g, t), n_vertices=g.n))
    start = time.perf_counter()
    code = cli.main(["lseq", "--td", str(td), "--d", str(1 << 40), "--r", "123456789"])
    elapsed = time.perf_counter() - start
    assert code == 0
    parsed = parse_td(td.read_text())
    tree = BalancedTD(parsed.bags, [tuple(e) for e in parsed.edges], parsed.root)
    assert int(capsys.readouterr().out) in tree.leaves
    assert elapsed < 1.0
    # far past the interpreter's recursion limit in halvings of the budget
    assert cli.main(["lseq", "--td", str(td), "--d", str(1 << 1200), "--r", "1"]) == 0
    assert int(capsys.readouterr().out) in tree.leaves


def test_lseq_unrooted(tmp_path, capsys):
    td = tmp_path / "t.td"
    td.write_text("s td 1 2 2\nb 1 1 2\n")
    assert cli.main(["lseq", "--td", str(td), "--d", "2", "--r", "1"]) == 2


def test_gen_ktree_roundtrip(tmp_path, capsys):
    gr = tmp_path / "k.gr"
    td = tmp_path / "k.td"
    assert cli.main(["gen-ktree", "--n", "15", "--k", "2", "--seed", "9",
                     "--graph-out", str(gr), "--td-out", str(td)]) == 0
    assert "width: 2" in capsys.readouterr().out
    g = parse_graph(gr.read_text())
    t = parse_td(td.read_text())
    expect_g, _ = gen_ktree(KTreeSpec(n=15, k=2, seed=9))
    assert g == expect_g
    assert validate_td(g, t).ok


def test_bench_stdout(capsys):
    assert cli.main(["bench", "--grid", "8:1,9:2", "--reps", "1", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("c seed=3 grid=8:1;9:2")
    assert lines[1].startswith("n,k,")
    assert len(lines) == 4


def test_bench_out_file_appends(tmp_path):
    out = tmp_path / "b.csv"
    assert cli.main(["bench", "--grid", "8:1", "--out", str(out)]) == 0
    assert cli.main(["bench", "--grid", "8:1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("n,k,") == 2


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert cli.main(["validate", "--graph", str(tmp_path / "nope.gr"),
                     "--td", str(tmp_path / "nope.td")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_is_exit_2(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text("p dgr 2 1\n1 9\n")
    td.write_text(PATH_TD)
    assert cli.main(["reach", "--graph", str(gr), "--td", str(td),
                     "--source", "1", "--target", "2"]) == 2
    assert "line 2" in capsys.readouterr().err
