import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netpairtest as npt
from netpairtest import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_kv(stdout):
    pairs = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


# --------------------------------------------------------------- simulate

def test_simulate_model1(tmp_path, capsys):
    out = tmp_path / "net.txt"
    code, stdout, _ = run([
        "simulate", "--model", "1", "--n", "120", "--n0", "24",
        "--theta", "0.9", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    assert "wrote" in stdout
    assert npt.load_edge_list(out).shape[0] <= 120
    # deterministic: same seed, identical file
    out2 = tmp_path / "net2.txt"
    run(["simulate", "--model", "1", "--n", "120", "--n0", "24",
         "--theta", "0.9", "--seed", "5", "--out", str(out2)], capsys)
    assert out.read_text().splitlines()[1:] == \
        out2.read_text().splitlines()[1:]
    # the printed count is the number of pairs written, a loop counting as
    # one edge
    loops = tmp_path / "loops.txt"
    _, stdout, _ = run([
        "simulate", "--model", "1", "--n", "40", "--n0", "4", "--theta",
        "0.9", "--seed", "0", "--self-loops", "--out", str(loops)], capsys)
    lines = loops.read_text().splitlines()[1:]
    assert sum(a == b for a, b in map(str.split, lines)) > 0
    assert stdout.strip() == f"wrote {loops} ({len(lines)} edges)"


@pytest.mark.parametrize("model, signal", [
    ("1", ["--theta", "0.9"]), ("2", ["--r2", "0.81"])],
    ids=["model1", "model2"])
def test_simulate_header_carries_the_recipe(tmp_path, capsys, model, signal):
    out = tmp_path / "net.txt"
    code, _, _ = run([
        "simulate", "--model", model, "--n", "120", "--n0", "24",
        "--rho", "0.3", *signal, "--seed", "7", "--out", str(out)], capsys)
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("# netpairtest ")
    name = signal[0].lstrip("-")
    assert header.endswith(f"model={model} seed=7 n=120 n0=24 rho=0.3 "
                           f"{name}={signal[1]}")
    assert [p.name for p in tmp_path.iterdir()] == ["net.txt"]


def test_params_out_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "1", "--n", "120", "--n0", "24",
                  "--theta", "0.9", "--out", str(tmp_path / "net.txt"),
                  "--params-out", str(tmp_path / "p.txt")])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--params-out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_missing_signal_flag(tmp_path, capsys):
    code, _, err = run([
        "simulate", "--model", "1", "--n", "120", "--n0", "24",
        "--out", str(tmp_path / "x.txt")], capsys)
    assert code == cli.EXIT_USAGE
    assert "--theta" in err


def test_simulate_bad_r2_is_one_usage_error(tmp_path, capsys):
    # r2 is checked before its square root is taken: no numpy warning
    code, _, err = run([
        "simulate", "--model", "2", "--n", "120", "--n0", "24",
        "--r2", "-1", "--out", str(tmp_path / "x.txt")], capsys)
    assert code == cli.EXIT_USAGE
    assert err.splitlines() == ["error: r2 must lie in (0, 1]"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be at least 0, got -1"),
    (["--rho", "nan"], "rho must lie in [0, 1], got nan"),
    (["--rho", "-1"], "rho must lie in [0, 1], got -1.0"),
    (["--rho", "2"], "rho must lie in [0, 1], got 2.0"),
])
@pytest.mark.parametrize("signal", [["--model", "1", "--theta", "0.9"],
                                    ["--model", "2", "--r2", "0.81"]])
def test_simulate_names_a_bad_seed_or_rho(tmp_path, capsys, flags, message,
                                          signal):
    # a negative seed reached numpy ("expected non-negative integer"), and a
    # NaN rho was named as a non-symmetric mixing matrix
    code, _, err = run(["simulate", "--n", "120", "--n0", "24", *signal,
                        *flags, "--out", str(tmp_path / "x.txt")], capsys)
    assert code == cli.EXIT_USAGE
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- test-pair

@pytest.fixture(scope="module")
def karate_path():
    return npt.karate_club_path()


def test_test_pair_t(karate_path, capsys):
    code, stdout, _ = run([
        "test-pair", "--graph", karate_path, "--one-based",
        "--method", "t", "--i", "7", "--j", "13", "--k", "2"], capsys)
    assert code == 0
    vals = _parse_kv(stdout)
    assert vals["method"] == "T"
    assert vals["df"] == "2"
    assert float(vals["p_value"]) == pytest.approx(0.6926, abs=2e-3)


def test_test_pair_g(karate_path, capsys):
    code, stdout, _ = run([
        "test-pair", "--graph", karate_path, "--one-based",
        "--method", "g", "--i", "3", "--j", "8", "--k", "2"], capsys)
    assert code == 0
    vals = _parse_kv(stdout)
    assert vals["df"] == "1"
    assert float(vals["p_value"]) < 0.05


def test_test_pair_same_node(karate_path, capsys):
    code, _, err = run([
        "test-pair", "--graph", karate_path, "--one-based",
        "--method", "t", "--i", "7", "--j", "7"], capsys)
    assert code == cli.EXIT_USAGE
    assert "distinct" in err


def test_missing_graph_is_data_error(capsys):
    code, _, err = run([
        "test-pair", "--graph", "/no/such/file", "--method", "t",
        "--i", "0", "--j", "1"], capsys)
    assert code == cli.EXIT_DATA
    assert "data error" in err


def test_unreadable_graph_is_data_error(tmp_path, capsys):
    binary = tmp_path / "graph.bin"
    binary.write_bytes(bytes(range(256)))
    for path, reason in ((tmp_path, "directory"), (binary, "UTF-8")):
        code, _, err = run([
            "test-pair", "--graph", str(path), "--method", "t",
            "--i", "0", "--j", "1"], capsys)
        assert code == cli.EXIT_DATA
        assert "data error" in err and reason in err


def test_malformed_graph_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    code, _, err = run([
        "test-pair", "--graph", str(bad), "--method", "t",
        "--i", "0", "--j", "1"], capsys)
    assert code == cli.EXIT_DATA


@pytest.mark.parametrize("argv", [
    ["test-pair", "--method", "t", "--i", "0", "--j", "13"],
    ["test-pair", "--method", "g", "--i", "7", "--j", "99"],
    ["pvalue-matrix", "--method", "t", "--nodes", "1,2,40"],
    ["test-pair", "--method", "t", "--i", "35", "--j", "1"],
])
def test_node_label_outside_graph_is_usage_error(karate_path, capsys, argv):
    # with --one-based, label 0 would otherwise wrap around to node 34; the
    # message names the label as typed, and the labels of the 34 nodes
    code, stdout, err = run(argv + ["--graph", karate_path, "--one-based"],
                            capsys)
    assert code == cli.EXIT_USAGE
    typed = [int(tok) for flag, value in zip(argv, argv[1:])
             if flag in ("--i", "--j", "--nodes") for tok in value.split(",")]
    label = next(tok for tok in typed if not 1 <= tok <= 34)
    assert err == f"error: node {label} outside the node range [1, 35)\n"
    assert stdout == ""


def test_numeric_error_exit_code(tmp_path, capsys):
    # disconnected components make the ratio test degenerate
    bad = tmp_path / "disc.txt"
    bad.write_text("0 1\n0 2\n1 2\n0 3\n1 3\n2 3\n4 5\n4 6\n5 6\n")
    code, _, err = run([
        "test-pair", "--graph", str(bad), "--method", "g",
        "--i", "4", "--j", "5", "--k", "2"], capsys)
    assert code == cli.EXIT_NUMERIC
    assert "numerical error" in err


@pytest.mark.parametrize("one_based", [False, True])
def test_degenerate_node_is_named_by_its_typed_label(tmp_path, capsys,
                                                     one_based):
    # two cliques, {0..3} and {4, 5, 6} in 0-based labels: the leading
    # eigenvector vanishes on the second, whose first node is labelled 5
    # in a 1-based file
    first = int(one_based)
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (4, 5), (4, 6),
             (5, 6)]
    path = tmp_path / "cliques.txt"
    path.write_text("".join(f"{u + first} {v + first}\n" for u, v in edges))
    code, stdout, err = run(
        ["test-pair", "--graph", str(path), "--method", "g",
         "--i", str(4 + first), "--j", str(5 + first), "--k", "2"]
        + ["--one-based"] * one_based, capsys)
    assert code == cli.EXIT_NUMERIC
    assert err == (f"numerical error: leading-eigenvector entry at node "
                   f"{4 + first} is degenerate\n")
    assert stdout == ""


class _NewTestFailure(ArithmeticError):
    pass


@pytest.mark.parametrize("failure", [*npt.inference.TEST_FAILURES,
                                     _NewTestFailure],
                         ids=lambda failure: failure.__name__)
def test_every_listed_failure_exits_3(monkeypatch, karate_path, capsys,
                                      failure):
    if failure is _NewTestFailure:
        # a failure added to the list needs no edit in the CLI
        monkeypatch.setattr(cli, "TEST_FAILURES",
                            (*cli.TEST_FAILURES, _NewTestFailure))

    def raising(*args, **kwargs):
        raise failure("listed")

    monkeypatch.setattr(cli, "test_T", raising)
    code, stdout, err = run([
        "test-pair", "--graph", karate_path, "--method", "t",
        "--i", "0", "--j", "1"], capsys)
    assert code == cli.EXIT_NUMERIC
    assert err.startswith("numerical error: listed")
    assert "Traceback" not in err
    assert stdout == ""


def test_repeated_top_eigenvalue_gets_a_k_estimate(tmp_path, capsys):
    # 52 disjoint 16-cliques (n=832): eigenvalue 15 has multiplicity 52 and
    # 15^2 clears the threshold 2.01 * log(832) * 15, so K needs more than
    # 50 pairs
    path = tmp_path / "cliques.txt"
    path.write_text("".join(f"{16 * c + a} {16 * c + b}\n"
                            for c in range(52)
                            for a in range(16) for b in range(a + 1, 16)))
    code, stdout, _ = run(["estimate-k", "--graph", str(path)], capsys)
    assert code == cli.EXIT_OK
    vals = _parse_kv(stdout)
    assert vals["k_hat"] == "52"
    assert len(vals["eigenvalue_magnitudes"].split(",")) >= 50
    # the 52-fold eigenvalue makes the T covariance singular
    code, _, err = run(["test-pair", "--method", "t", "--i", "0", "--j", "1",
                        "--graph", str(path)], capsys)
    assert code == cli.EXIT_NUMERIC
    assert err.startswith("numerical error")
    assert "Traceback" not in err


def test_huge_node_label_is_data_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("0 1\n1 9223372036854775808\n")
    code, _, err = run(["estimate-k", "--graph", str(path)], capsys)
    assert code == cli.EXIT_DATA
    assert err == (f"data error: {path}:2: node label 9223372036854775808 "
                   "too large\n")


@pytest.mark.parametrize("label,count", [(2**47, 2**47), (2**63 - 1, 2**63 - 1)])
def test_unindexable_node_count_is_data_error(tmp_path, capsys, label, count):
    # the CSR needs count + 1 row pointers: 1 PiB and more cannot be held
    path = tmp_path / "huge.txt"
    path.write_text(f"1 2\n2 {label}\n")
    code, stdout, err = run(["test-pair", "--graph", str(path), "--one-based",
                             "--method", "t", "--i", "1", "--j", "2"], capsys)
    assert (code, stdout) == (cli.EXIT_DATA, "")
    assert err == f"data error: {path}: node count {count} is too large to index\n"


@pytest.mark.parametrize("argv", [
    ["test-pair", "--method", "t", "--i", "0", "--j", "1", "--k=16"],
    ["test-pair", "--method", "g", "--i", "0", "--j", "1", "--k=6"],
    ["pvalue-matrix", "--method", "t", "--nodes", "0,1,2", "--k=16"],
])
def test_k_above_the_node_count_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "five.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, stdout, err = run(argv + ["--graph", str(path)], capsys)
    assert code == cli.EXIT_USAGE
    k = argv[-1].split("=")[1]
    assert err == f"error: k must lie in [0, 5], got {k}\n"
    assert stdout == ""


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["test-pair", "--method", "t", "--i", "0", "--j", "1"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


# ----------------------------------------------------------- pvalue-matrix

def test_pvalue_matrix_stdout(karate_path, capsys):
    code, stdout, _ = run([
        "pvalue-matrix", "--graph", karate_path, "--one-based",
        "--method", "t", "--k", "2",
        "--nodes", "3,7,8,9,10,13,27"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "node,3,7,8,9,10,13,27"
    assert len(lines) == 8
    grid = np.array([[float(v) for v in line.split(",")[1:]]
                     for line in lines[1:]])
    assert np.array_equal(grid, grid.T)
    assert np.array_equal(np.diag(grid), np.ones(7))
    # row for node 7, column for node 13
    assert grid[1, 5] == pytest.approx(0.6926, abs=2e-3)


def test_pvalue_matrix_file(karate_path, tmp_path, capsys):
    out = tmp_path / "pm.csv"
    code, _, _ = run([
        "pvalue-matrix", "--graph", karate_path, "--one-based",
        "--method", "g", "--k", "2", "--nodes", "7,13",
        "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().startswith("node,7,13")


# ------------------------------------------------- estimate-k and spectrum

def test_estimate_k(karate_path, capsys):
    code, stdout, _ = run([
        "estimate-k", "--graph", karate_path, "--one-based"], capsys)
    assert code == 0
    vals = _parse_kv(stdout)
    assert vals["k_hat"] == "0"
    assert vals["max_degree"] == "17"


def test_spectrum(karate_path, tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, _, _ = run([
        "spectrum", "--graph", karate_path, "--one-based",
        "--m", "4", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(6.7257, abs=1e-3)


# ------------------------------------------------------------ mc presets

def test_mc_tiny_preset(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.MC_PRESETS, "tiny", dict(
        model=1, n=120, n0=24, rho=0.2, grid=(0.9,)))
    out = tmp_path / "mc.csv"
    code, _, _ = run(["mc", "--preset", "tiny", "--reps", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "model,n,signal,metric,value,replications,failures"
    metrics = {line.split(",")[3] for line in lines[2:]}
    assert metrics == {"size", "power"}


def test_mc_tiny_k_accuracy(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.MC_PRESETS, "tiny-k", dict(
        model=1, n=120, n0=24, rho=0.2, grid=(0.9,), kind="k_accuracy"))
    out = tmp_path / "mc.csv"
    code, _, _ = run(["mc", "--preset", "tiny-k", "--reps", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert "p_k_correct" in text and "p_k_at_most" in text


def test_mc_tiny_null_histogram(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.MC_PRESETS, "tiny-null", dict(
        model=1, n=120, n0=24, rho=0.2, grid=(0.9,), kind="null_histogram"))
    out = tmp_path / "mc.csv"
    code, _, _ = run(["mc", "--preset", "tiny-null", "--reps", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    assert "ks_distance=" in out.read_text()


def test_mc_null_histogram_needs_the_true_k(capsys):
    # with K estimated, the samples have no one chi-square law to test
    for preset in ("fig1-model1", "fig1-model2"):
        code, out, err = run(["mc", "--preset", preset, "--reps", "2",
                              "--k-mode", "estimated_k"], capsys)
        assert code == cli.EXIT_USAGE == 1
        assert out == ""
        assert err == "error: null sampling requires k_mode='true_k'\n"


def test_mc_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--preset", "nope"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


# ----------------------------------------------------------- oracle-check

def test_oracle_check_small(tmp_path, capsys):
    out = tmp_path / "oc.csv"
    code, _, _ = run([
        "oracle-check", "--model", "1", "--signal", "0.9",
        "--sizes", "80,120", "--reps", "2", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "n,metric,value"
    assert lines[2].startswith("80,sigma1_trend,")
    assert lines[3].startswith("120,sigma1_trend,")


@pytest.mark.parametrize("reps", ["-3", "0"])
def test_oracle_check_needs_a_replication(reps, capsys):
    code, stdout, err = run(["oracle-check", "--sizes", "80",
                             f"--reps={reps}"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: --reps must be at least 1\n"
    assert stdout == ""


def test_oracle_check_without_an_eigenvalue_location_is_numeric(capsys):
    code, stdout, err = run(["oracle-check", "--model", "2", "--sizes", "200",
                             "--reps", "1"], capsys)
    assert (code, stdout) == (cli.EXIT_NUMERIC, "")
    assert err.startswith("numerical error: no sign change on bracket")


# ------------------------------------------------------ exit-code property

_LABELS = st.integers(-1, 16)


@settings(max_examples=150, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14))
                      .filter(lambda e: e[0] != e[1]), max_size=25),
       loop=st.none() | st.integers(0, 14), zero_label=st.booleans(),
       one_based=st.booleans(), self_loops=st.booleans(),
       command=st.sampled_from(["estimate-k", "spectrum", "test-pair",
                                "pvalue-matrix"]),
       method=st.sampled_from(["t", "g"]), i=_LABELS, j=_LABELS,
       nodes=st.lists(_LABELS, min_size=1, max_size=5),
       k=st.none() | st.integers(-1, 16), m=st.integers(-1, 16),
       huge_label=st.none() | st.integers(2**47, 2**63 - 1)
       | st.integers(2**63, 2**70))
def test_every_input_maps_to_an_exit_code(tmp_path_factory, edges, loop,
                                          zero_label, one_based, self_loops,
                                          command, method, i, j, nodes, k, m,
                                          huge_label):
    # n <= 15; a self loop without --self-loops, with --one-based a "0"
    # label, and a label of 2^47 or more are malformed input: from 2^47 the
    # node count cannot be indexed, from 2^63 the label is too large. Labels
    # between about 10^6 and 2^47 are never drawn, since the loader would
    # try to hold their n + 1 row pointers.
    offset = 1 if one_based else 0
    if loop is not None:
        edges = edges + [(loop, loop)]
    lines = [f"{u + offset} {v + offset}" for u, v in edges]
    if zero_label:
        lines.append("0 1")
    if huge_label is not None:
        lines.append(f"1 {huge_label}")
    path = tmp_path_factory.mktemp("exit") / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    argv = [command, "--graph", str(path)]
    argv += ["--one-based"] * one_based + ["--self-loops"] * self_loops
    if command == "spectrum":
        argv.append(f"--m={m}")
    if command == "test-pair":
        argv += ["--method", method, f"--i={i}", f"--j={j}"]
    if command == "pvalue-matrix":
        argv += ["--method", method, "--nodes=" + ",".join(map(str, nodes))]
    if k is not None and command in ("test-pair", "pvalue-matrix"):
        argv.append(f"--k={k}")
    _assert_exit_code(argv)


def _assert_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA,
                    cli.EXIT_NUMERIC), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["oracle-check", "simulate"]),
       model=st.sampled_from([1, 2]), n=st.integers(-2, 60),
       n0=st.integers(-2, 20), more_sizes=st.lists(st.integers(-2, 60),
                                                   max_size=1),
       reps=st.integers(1, 2))
@example(command="oracle-check", model=2, n=20, n0=0, more_sizes=[], reps=1)
def test_every_model_input_maps_to_an_exit_code(tmp_path_factory, command,
                                                model, n, n0, more_sizes,
                                                reps):
    # most sizes have no model layout; 20 has one, but model 2 finds no
    # eigenvalue location there
    if command == "oracle-check":
        sizes = ",".join(map(str, [n] + more_sizes))
        args = [f"--sizes={sizes}", f"--reps={reps}"]
    else:
        out = tmp_path_factory.mktemp("simulate") / "net.txt"
        args = [f"--n={n}", f"--n0={n0}", "--theta=0.9", "--r2=0.81",
                f"--out={out}"]
    _assert_exit_code([command, f"--model={model}"] + args)
