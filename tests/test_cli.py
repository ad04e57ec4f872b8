import json
import os
import subprocess
import sys

import pytest

from coxconj import cli, coxmat


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_system(tmp_path, matrix, names=None):
    p = tmp_path / "sys.json"
    data = {"rank": len(matrix), "matrix": matrix}
    if names:
        data["names"] = names
    p.write_text(json.dumps(data))
    return str(p)


def test_reduce_ss_cancellation(tmp_path, capsys):
    path = write_system(tmp_path, [[1, 3], [3, 1]])
    code, out, _ = run(capsys, "--system", path, "--word", "0 0", "reduce")
    assert code == 0
    assert json.loads(out) == {"word": [], "length": 0}


def test_classify(tmp_path, capsys):
    path = write_system(tmp_path, [[1, 3, 2], [3, 1, 4], [2, 4, 1]])
    code, out, _ = run(capsys, "--system", path, "classify")
    assert code == 0
    data = json.loads(out)
    assert data["components"][0]["type"] == "B3"
    assert data["spherical"] is True


def test_cyc(tmp_path, capsys):
    path = write_system(tmp_path, [[1, 3], [3, 1]])
    code, out, _ = run(capsys, "--system", path, "--word", "0 1 0", "cyc")
    assert code == 0
    data = json.loads(out)
    assert data["min_length"] == 1 and data["size"] == 3


def test_graph_finite(tmp_path, capsys):
    path = write_system(tmp_path, [[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    code, out, _ = run(capsys, "--system", path, "--word", "0", "graph")
    assert code == 0
    data = json.loads(out)
    assert data["pipeline"] == "finite-order"
    assert len(data["graph"]["vertices"]) == 3


def test_graph_example_verify(capsys):
    code, out, err = run(capsys, "--example", "d7-1", "--verify", "graph")
    assert code == 0, err
    assert "verify: OK" in err
    data = json.loads(out)
    assert data["xi_w_order"] == 1 and data["delta_w"] == {}
    assert sorted(data["I_w"]) == ["s1", "s3", "s4", "s5", "s6"]


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "--example", "ind-rank5", "--format", "dot",
                       "graph")
    assert code == 0
    assert out.startswith("graph conj {")


def test_check_small_affine(tmp_path, capsys):
    path = write_system(tmp_path, [[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    code, out, _ = run(capsys, "--system", path, "--word", "0 1 2 0 1 2",
                       "check")
    assert code == 0 and out.strip() == "MATCH"


def test_reducible_rejected(tmp_path, capsys):
    path = write_system(tmp_path, [[1, 2], [2, 1]])
    code, _, err = run(capsys, "--system", path, "--word", "0", "graph")
    # a reducible *infinite* ambient is rejected; A1 x A1 is spherical so
    # use an infinite one
    path = write_system(tmp_path, [[1, 2, 2], [2, 1, 0], [2, 0, 1]])
    code, _, err = run(capsys, "--system", path, "--word", "1 2", "graph")
    assert code == cli.EXIT_SHAPE
    assert "reducible" in err


def test_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "--system", str(p), "--word", "0", "reduce")
    assert code == cli.EXIT_USAGE


def test_unknown_example(capsys):
    code, _, err = run(capsys, "--example", "nope", "graph")
    assert code == cli.EXIT_SHAPE


def test_memory_error_is_a_pipeline_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_graph", exhausted)
    code, out, err = run(capsys, "--example", "d7-1", "graph")
    assert code == cli.EXIT_PIPELINE
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("doc", [
    {"matrix": [[1, 3, 2], [3, 1, 4], [2, 4, 1]], "names": ["a", "b"]},
    {"rank": 2},
    [[1, 3], [3, 1]],
    {"matrix": [[1, -3], [-3, 1]]},
    {"matrix": [[1, 3], [3, 1]], "names": ["a", "a"]},
], ids=["short-names", "no-matrix", "not-an-object", "negative-label",
        "duplicate-names"])
def test_malformed_system_refused(tmp_path, capsys, doc):
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    for command in ("classify", "graph"):
        code, out, err = run(capsys, "--system", str(p), "--word", "0 1",
                             command)
        assert code == cli.EXIT_SHAPE, err
        assert out == "" and err.startswith("error: ")


def test_generator_named_like_a_transversal_reflection(tmp_path, capsys):
    # names must be distinct, so the transversal names avoid "tau1" here
    path = write_system(tmp_path, [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
                        ["a", "tau1", "c"])
    code, out, err = run(capsys, "--system", path, "--word", "0 1 2 0 1 2 1",
                         "graph")
    assert code == 0, err
    assert json.loads(out)["transversal"] == ["tau1", "tau1'"]


def test_determinism(tmp_path, capsys, monkeypatch):
    code1, out1, _ = run(capsys, "--example", "d7-1", "graph")
    code2, out2, _ = run(capsys, "--example", "d7-1", "graph")
    assert out1 == out2
    # cold, then warm: the second request reuses the interned system
    monkeypatch.setattr(coxmat, "_INTERNED", {})
    for matrix, word in [
            ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], "0 1 2"),
            ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], "0 1 2 0 1 2 1"),
            ([[1, 3, 3], [3, 1, 7], [3, 7, 1]], "0 1 2 1 0 2")]:
        path = write_system(tmp_path, matrix)
        cold = run(capsys, "--system", path, "--word", word, "graph")
        warm = run(capsys, "--system", path, "--word", word, "graph")
        assert cold[0] == 0 and cold == warm
    assert len(coxmat._INTERNED) == 3


def test_module_run_has_no_import_warning():
    # the package must not import cli itself, or runpy warns that
    # coxconj.cli was already in sys.modules before it ran as __main__
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "coxconj.cli", "--example", "ind-337",
         "classify"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
