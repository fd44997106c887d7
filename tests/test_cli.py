import time

import pytest
from hypothesis import example, given, settings, strategies as st

from twreach import cli, engine
from twreach.decomp import BalancedTD, TdFormatError, parse_td, validate_td, write_td
from twreach.gen import KTreeSpec, gen_ktree
from twreach.graph import GraphFormatError, parse_graph
from twreach.recursive import build_balanced
from twreach.sequences import leaf_depths, schedule_length

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


def test_separator_invalid_decomposition(tmp_path, capsys):
    # bags {1,2} and {3,4} leave edge (2,3) uncovered
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text(PATH_GR)
    td.write_text("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n")
    assert cli.main(["separator", "--graph", str(gr), "--td", str(td),
                     "--target", "1,2,3,4"]) == 2
    captured = capsys.readouterr()
    assert "bag_node" not in captured.out
    assert "invalid" in captured.err and "(2, 3)" in captured.err


INVALID_TDS = {
    # edge (2, 3) lies in no bag
    "uncovered-edge": "s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n",
    # vertex 4 and edge (3, 4) lie in no bag
    "uncovered-vertex": "s td 2 2 4\nb 1 1 2\nb 2 2 3\n1 2\n",
    # vertex 2 is in bags 1 and 3 but not in bag 2 between them
    "split-occurrences": "s td 3 2 4\nb 1 1 2\nb 2 3 4\nb 3 2 3\n1 2\n2 3\n",
}
COMMANDS = {
    "validate": [],
    "separator": ["--target", "1,2,3,4"],
    "balance": ["--out", "b.td"],
    "reach": ["--source", "1", "--target", "3"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(INVALID_TDS))
def test_invalid_decomposition_exits_2(tmp_path, capsys, command, case):
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_text(PATH_GR)
    td.write_text(INVALID_TDS[case])
    extra = [str(tmp_path / a) if a == "b.td" else a for a in COMMANDS[command]]
    assert cli.main([command, "--graph", str(gr), "--td", str(td)] + extra) == 2
    out = capsys.readouterr().out
    assert not any(word in out for word in ("bag_node", "nodes:", "REACHABLE"))
    assert not (tmp_path / "b.td").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_huge_vertex_count_exits_2(tmp_path, capsys, command):
    # 10^19 vertices, more than sys.maxsize, and one bag holding vertex 1:
    # coverage fails at vertex 2 instead of overflowing in len()
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_text("p dgr 10000000000000000000 0\n")
    td.write_text("s td 1 1 10000000000000000000\nb 1 1\n")
    extra = [str(tmp_path / a) if a == "b.td" else a for a in COMMANDS[command]]
    assert cli.main([command, "--graph", str(gr), "--td", str(td)] + extra) == 2
    captured = capsys.readouterr()
    assert "vertex coverage mismatch, e.g. vertex 2" in captured.out + captured.err
    assert "REACHABLE" not in captured.out


@pytest.mark.parametrize("command", ["balance", "reach"])
@pytest.mark.parametrize("gr_text, td_text, error", [
    # vertex 4 is in no bag: the recursion keeps the whole component
    ("p dgr 4 6\n1 2\n2 1\n1 3\n3 1\n3 4\n4 3\n",
     "s td 3 2 4\nb 1 1 2\nb 2 1 3\nb 3 3\n1 2\n2 3\n", "halve"),
    # vertex 3 is in no bag: no bag separates the one-vertex component {3}
    ("p dgr 3 2\n1 2\n2 3\n", "s td 1 2 3\nb 1 1 2\n", "no bag separates"),
], ids=["ValueError", "RuntimeError"])
def test_balancing_error_exits_2(tmp_path, capsys, monkeypatch, command, gr_text, td_text,
                                 error):
    # with validation bypassed, build_balanced's ValueError or RuntimeError
    # still ends in exit 2
    ok = validate_td(parse_graph(PATH_GR), parse_td(PATH_TD))
    monkeypatch.setattr(cli.decomp, "validate_td", lambda g, t: ok)
    monkeypatch.setattr(engine, "validate_td", lambda g, t: ok)
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_text(gr_text)
    td.write_text(td_text)
    extra = [str(tmp_path / a) if a == "b.td" else a for a in COMMANDS[command]]
    assert cli.main([command, "--graph", str(gr), "--td", str(td)] + extra) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("target", ["999", "0", "1,5"])
def test_separator_target_out_of_range(path_files, capsys, target):
    gr, td = path_files
    assert cli.main(["separator", "--graph", gr, "--td", td, "--target", target]) == 2
    captured = capsys.readouterr()
    assert "bag_node" not in captured.out
    assert "1..4" in captured.err


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
    assert int(out.split("memo_entries: ")[1].split()[0]) > 0
    assert int(out.split("step_entries: ")[1].split()[0]) > 0
    assert int(out.split("state_entries: ")[1].split()[0]) > 0


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
    leaves = {x for x in tree.preorder if not tree.children(x)}
    assert int(capsys.readouterr().out) in leaves
    assert elapsed < 1.0
    # far past the interpreter's recursion limit in halvings of the budget
    assert cli.main(["lseq", "--td", str(td), "--d", str(1 << 1200), "--r", "1"]) == 0
    assert int(capsys.readouterr().out) in leaves


def test_lseq_at_the_budget_limit_is_fast(tmp_path, capsys):
    # the balanced n=1024, k=3, seed-7 k-tree at d = 2^2048: each answer is
    # a descent sized by the closed form, not a fill of every block length
    g, t = gen_ktree(KTreeSpec(n=1024, k=3, seed=7))
    td = tmp_path / "b.td"
    td.write_text(write_td(build_balanced(g, t), n_vertices=g.n))
    parsed = parse_td(td.read_text())
    tree = BalancedTD(parsed.bags, [tuple(e) for e in parsed.edges], parsed.root)
    d = cli.MAX_LSEQ_BUDGET
    total = schedule_length(leaf_depths(tree, tree.root), d)
    for r, leaf in ((123456789, 847), (total // 3, 492), (total, 1413)):
        start = time.perf_counter()
        assert cli.main(["lseq", "--td", str(td), "--d", str(d), "--r", str(r)]) == 0
        assert time.perf_counter() - start < 2.0
        assert int(capsys.readouterr().out) == leaf


def test_lseq_budget_limit(path_files, capsys):
    _, td = path_files
    assert cli.main(["lseq", "--td", td, "--d", str(cli.MAX_LSEQ_BUDGET), "--r", "1"]) == 0
    assert int(capsys.readouterr().out) == 3
    assert cli.main(["lseq", "--td", td, "--d", str(cli.MAX_LSEQ_BUDGET << 1), "--r", "1"]) == 2
    assert "--d must be at most 2**2048" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["-1", "21"])
def test_useq_order_limit(s, capsys):
    assert cli.main(["useq", "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--s must be in 0..20" in captured.err


@pytest.mark.parametrize("reps", ["0", "101"])
def test_bench_reps_limit(reps, capsys):
    assert cli.main(["bench", "--grid", "8:1", "--reps", reps]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--reps must be in 1..100" in captured.err


def test_bench_grid_size_limit(capsys):
    assert cli.main(["bench", "--grid", f"8:1,{cli.MAX_BENCH_N + 1}:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--grid sizes must be at most 8192" in captured.err


def test_gen_ktree_size_limit(tmp_path, capsys):
    gr, td = tmp_path / "k.gr", tmp_path / "k.td"
    assert cli.main(["gen-ktree", "--n", str(cli.MAX_GEN_N + 1), "--k", "3",
                     "--graph-out", str(gr), "--td-out", str(td)]) == 2
    assert "--n must be at most 100000" in capsys.readouterr().err
    assert not gr.exists() and not td.exists()


def test_width_limits(tmp_path, capsys):
    # sizes small enough that a missing check would still finish at once
    gr, td, out = tmp_path / "k.gr", tmp_path / "k.td", tmp_path / "b.csv"
    k = str(cli.MAX_GEN_K + 1)
    assert cli.main(["gen-ktree", "--n", "40", "--k", k,
                     "--graph-out", str(gr), "--td-out", str(td)]) == 2
    assert "--k must be at most 16" in capsys.readouterr().err
    assert cli.main(["bench", "--grid", f"8:1,40:{k}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--grid widths must be at most 16" in captured.err
    assert not gr.exists() and not td.exists() and not out.exists()


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


def test_header_arc_count_mismatch_is_exit_2(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text("p dgr 4 0\n1 2\n2 3\n")
    td.write_text(PATH_TD)
    assert cli.main(["reach", "--graph", str(gr), "--td", str(td),
                     "--source", "1", "--target", "3"]) == 2
    assert "header declares 0 arcs, found 2, line 1" in capsys.readouterr().err


def test_invalid_utf8_is_a_format_error(tmp_path, capsys):
    text = b"p dgr 2 1\n1 \xff\n"
    for parse, error in ((parse_graph, GraphFormatError), (parse_td, TdFormatError)):
        with pytest.raises(error, match="invalid UTF-8, line 2") as exc:
            parse(text)
        assert exc.value.line == 2
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_bytes(text)
    td.write_text(PATH_TD)
    assert cli.main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    assert "invalid UTF-8, line 2" in capsys.readouterr().err


def test_negative_vertex_count_is_exit_2(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text("p dgr -1 0\n")
    td.write_text(PATH_TD)
    assert cli.main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    assert "vertex count must be non-negative, line 1" in capsys.readouterr().err


@pytest.mark.parametrize("gr_text, td_text, message", [
    ("p dgr four 3\n1 2\n2 3\n3 4\n", PATH_TD, "non-integer token in header, line 1"),
    (PATH_GR, PATH_TD.replace("s td 3 2 4\n", "s td 3 2 4\n" * 2), "duplicate header, line 3"),
    (PATH_GR, PATH_TD.replace("2 4", "2 four"), "non-integer token in header, line 2"),
    (PATH_GR, PATH_TD.replace("b 2 2 3", "b x 2 3"), "malformed bag line, line 4"),
], ids=["graph-header-token", "td-duplicate-header", "td-header-token", "td-bag-line"])
def test_format_errors_name_the_line(tmp_path, capsys, gr_text, td_text, message):
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_text(gr_text)
    td.write_text(td_text)
    assert cli.main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    assert message in capsys.readouterr().err


def test_edge_line_with_extra_tokens_is_exit_2(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    gr.write_text(PATH_GR)
    td.write_text("c root 1\ns td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3 99\n")
    assert cli.main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    assert "malformed edge line, line 7" in capsys.readouterr().err


def test_lseq_malformed_root_line_is_exit_2(tmp_path, capsys):
    td = tmp_path / "t.td"
    td.write_text("c root 1 2\ns td 1 2 2\nb 1 1 2\n")
    assert cli.main(["lseq", "--td", str(td), "--d", "2", "--r", "1"]) == 2
    assert "expected 'c root <id>', line 1" in capsys.readouterr().err


def test_header_max_bag_mismatch_is_exit_2(tmp_path, capsys):
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_text(PATH_GR)
    td.write_text(PATH_TD.replace("s td 3 2 4", "s td 3 3 4"))
    assert cli.main(["validate", "--graph", str(gr), "--td", str(td)]) == 2
    assert "max bag size 3 is not the largest bag's 2, line 2" in capsys.readouterr().err


def test_balance_of_empty_graph_is_exit_2(tmp_path, capsys):
    gr, td, out = tmp_path / "g.gr", tmp_path / "t.td", tmp_path / "b.td"
    gr.write_text("p dgr 0 0\n")
    td.write_text("s td 1 0 0\nb 1\n")  # valid: no vertex to cover
    assert cli.main(["balance", "--graph", str(gr), "--td", str(td), "--out", str(out)]) == 2
    assert "error: graph has no vertices" in capsys.readouterr().err
    assert not out.exists()


# lines of format keywords and small (also negative) numbers, so that most
# texts get past the header and into the bag, arc and edge rules
_TOKEN = st.one_of(st.sampled_from(["p", "dgr", "s", "td", "b", "c", "root", "x", "1.5", "-0"]),
                   st.integers(-3, 6).map(str), st.text(max_size=3))
_NUMBERS = st.lists(st.integers(-2, 3).map(str), max_size=4)


def _keyword_line(keywords):
    return st.tuples(st.sampled_from(keywords), _NUMBERS).map(lambda kw: " ".join([kw[0], *kw[1]]))


_LINE = st.one_of(st.lists(_TOKEN, max_size=6).map(" ".join),
                  _keyword_line(["p dgr", "s td", "b", "c root"]))
_TEXT = st.one_of(st.text(max_size=40),
                  st.lists(_LINE, max_size=8).map("\n".join),
                  st.tuples(_keyword_line(["p dgr", "s td"]), st.lists(_LINE, max_size=6))
                  .map(lambda text: "\n".join([text[0], *text[1]])))
# bytes, as the CLI reads files: raw, or encoded lines with stray bytes after
_BYTES = st.one_of(st.binary(max_size=40),
                   st.tuples(_TEXT, st.binary(max_size=3))
                   .map(lambda t: t[0].encode("utf-8", "surrogatepass") + t[1]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TEXT, _BYTES))
@example("p dgr -1 0\n")  # found by a fuzz run: once a plain ValueError
@example(b"p dgr 2 1\n1 \xff\n")  # once a bare UnicodeDecodeError
def test_parsers_raise_only_format_errors(text):
    for parse, error in ((parse_graph, GraphFormatError), (parse_td, TdFormatError)):
        try:
            parse(text)
        except error:
            pass
